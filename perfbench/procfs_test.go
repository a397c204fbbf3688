package main

import (
	"os"
	"testing"
)

func fixture(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestProcParsersOnCapturedFiles(t *testing.T) {
	// proc_stat's command name holds a space and a ')' to exercise the
	// field counting; utime 1234 and stime 567 ticks.
	if got, err := parseStatCPU(fixture(t, "proc_stat")); err != nil || got != 18.01 {
		t.Errorf("parseStatCPU = %v, %v; want 18.01", got, err)
	}
	if got, err := parseHWMMiB(fixture(t, "proc_status")); err != nil || got != 3104.0/1024 {
		t.Errorf("parseHWMMiB = %v, %v; want %v", got, err, 3104.0/1024)
	}
	if got, err := parseWchar(fixture(t, "proc_io")); err != nil || got != 2062 {
		t.Errorf("parseWchar = %v, %v; want 2062", got, err)
	}
	if _, err := parseStatCPU("12 (x) S 1 2"); err == nil {
		t.Error("parseStatCPU accepted a truncated stat line")
	}
	if _, err := parseKeyed("VmRSS: 1 kB\n", "VmHWM"); err == nil {
		t.Error("parseKeyed found a missing key")
	}
}

func TestParseSample(t *testing.T) {
	for _, tc := range []struct {
		line string
		name string
		v    float64
		ok   bool
	}{
		{`streamhull_store_evictions_total 42`, "streamhull_store_evictions_total", 42, true},
		{`streamhull_http_requests_total{endpoint="points",code="200"} 7`, "streamhull_http_requests_total", 7, true},
		{`streamhull_store_rehydrate_seconds_sum 0.125`, "streamhull_store_rehydrate_seconds_sum", 0.125, true},
		{`x{a="}"} 3`, "x", 3, true},
		{`# HELP x y`, "", 0, false},
		{``, "", 0, false},
		{`x{a="b"`, "", 0, false},
	} {
		name, v, ok := parseSample(tc.line)
		if name != tc.name || v != tc.v || ok != tc.ok {
			t.Errorf("parseSample(%q) = %q, %v, %v; want %q, %v, %v", tc.line, name, v, ok, tc.name, tc.v, tc.ok)
		}
	}
}

func TestParseGCTrace(t *testing.T) {
	path := t.TempDir() + "/log"
	log := "time=x level=INFO msg=\"hullserver listening\"\n" +
		"gc 1 @0.011s 1%: 0.010+0.52+0.003 ms clock, 0.020+0.10/0.31/0.49+0.006 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P\n" +
		"gc 2 @0.950s 3%: 0.011+1.2+0.004 ms clock, 0.022+0.5/1.0/0+0.008 ms cpu, 9->10->3 MB, 8 MB goal, 0 MB stacks, 0 MB globals, 2 P\n" +
		"gc 3 @1.900s 2%: 0.011+1.2+0.004 ms clock, 0.022+0.5/1.0/0+0.008 ms cpu, 6->6->3 MB, 7 MB goal, 0 MB stacks, 0 MB globals, 2 P\n"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	frac, heap, err := parseGCTrace(path)
	if err != nil || frac != 0.02 || heap != 9 {
		t.Errorf("parseGCTrace = %v, %v, %v; want 0.02, 9, nil", frac, heap, err)
	}
}
