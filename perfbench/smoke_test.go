package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// tinyShape shrinks every workload so a whole run takes seconds.
var tinyShape = shape{
	ingestStreams: 2, ingestPreload: 2,
	coldStreams: 12, coldResident: 3,
	aggCount: 2, aggPreRounds: 1,
	setups: 2,
}

// buildServer compiles hullserver from this checkout once per test
// binary.
func buildServer(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs hullserver")
	}
	bin := filepath.Join(t.TempDir(), "hullserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hullserver")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building hullserver: %v\n%s", err, out)
	}
	return bin
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkMetrics asserts a result carries exactly the metrics, with the
// units, that BENCHMARK.json declares.
func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	var got, exp []string
	for name, m := range res.Metrics {
		got = append(got, name+" "+m.Unit)
	}
	for _, m := range want {
		exp = append(exp, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(exp)
	if strings.Join(got, ",") != strings.Join(exp, ",") {
		t.Errorf("metrics %v\nBENCHMARK.json declares %v", got, exp)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	bin := buildServer(t)
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workload {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 0.1, trace: traced,
				root: "..", server: bin, dataRoot: t.TempDir(), shape: tinyShape}
			var out bytes.Buffer
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failed %d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if traced {
				checkMetrics(t, res, bf.PerLayer)
				if !strings.Contains(out.String(), "server.ServeHTTP") {
					t.Errorf("%s: traced report has no span table:\n%s", name, out.String())
				}
			} else {
				checkMetrics(t, res, bf.EndToEnd)
				for _, m := range []string{"ops_per_s", "write_p50_ms", "setup_s"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
					}
				}
			}
			if !strings.HasPrefix(out.String(), `{"host":`) {
				t.Errorf("%s: report does not start with the host block:\n%s", name, out.String())
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, cfg := range []config{
		{workload: "nope", server: "x", seconds: 1},
		{workload: "ingest", seconds: 1},
		{workload: "ingest", server: "x", seconds: 0},
		{workload: "ingest", server: "x", seconds: 1, store: "memory"},
	} {
		if _, err := run(cfg, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%+v) succeeded", cfg)
		}
	}
}
