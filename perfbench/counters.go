package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// scrapeMetrics fetches base's /metrics and sums every series by metric
// name (labels dropped).
func scrapeMetrics(base string) (map[string]float64, error) {
	hc := &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, v, ok := parseSample(sc.Text())
		if ok {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// parseSample parses one Prometheus text-format sample line into its
// metric name and value; comments and malformed lines report !ok.
func parseSample(line string) (string, float64, bool) {
	if line == "" || line[0] == '#' {
		return "", 0, false
	}
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return "", 0, false
	}
	rest := line[nameEnd:]
	if rest[0] == '{' {
		close := strings.LastIndexByte(rest, '}')
		if close < 0 {
			return "", 0, false
		}
		rest = rest[close+1:]
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return "", 0, false
	}
	return line[:nameEnd], v, true
}

// gcLine matches the Go runtime's GODEBUG=gctrace=1 summary line: the
// cumulative share of CPU spent in GC, and the heap at GC start, after
// it, and live.
var gcLine = regexp.MustCompile(`^gc \d+ @[0-9.]+s (\d+)%: .* (\d+)->(\d+)->(\d+) MB`)

// parseGCTrace returns the process's lifetime GC CPU share (from the last
// GC line) and its largest heap at GC start, in MiB.
func parseGCTrace(path string) (frac, heapMB float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		m := gcLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		pct, _ := strconv.ParseFloat(m[1], 64)
		frac = pct / 100
		start, _ := strconv.ParseFloat(m[2], 64)
		heapMB = max(heapMB, start)
	}
	return frac, heapMB, sc.Err()
}
