// Command perfbench is the end-to-end benchmark of hullserver: it runs the
// real server as its own process on loopback and drives it from one
// client over one keep-alive connection, in a closed loop, through one of
// three workloads (ingest, coldfleet, aggregate). A traced run instead
// drives an in-process server built the way hullserver builds it and
// splits the time by layer. See README.md.
//
// run.sh builds hullserver and this command from the checkout and runs:
//
//	perfbench --root <checkout> --server <hullserver binary>
//	          --workload ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; everything written goes under it
	server   string // hullserver binary
	store    string // storage backend override ("" = hullserver's default)
	dataRoot string // where data directories go ("" = <root>/.bench_build/data)
	shape    shape
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, coldfleet or aggregate")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured phase length on the reference host; sets the fixed operation count")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout (build outputs, data and logs go under its .bench_build)")
	flag.StringVar(&cfg.server, "server", "", "hullserver binary built from the checkout")
	flag.StringVar(&cfg.store, "store", "", "override hullserver's storage backend (fswal or muxwal) for an ad-hoc comparison")
	flag.StringVar(&cfg.dataRoot, "data-root", "", "directory for data directories (default <root>/.bench_build/data)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.shape = fullShape
	if !cfg.trace {
		// The client is one goroutine waiting on one connection; a
		// second P would only spin looking for work on the core the
		// server needs. The traced run keeps the default: its server
		// shares this process.
		runtime.GOMAXPROCS(1)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run, printing the report to out, and
// returns the result line's contents.
func run(cfg config, out io.Writer) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest, coldfleet or aggregate)", cfg.workload)
	}
	if cfg.server == "" {
		return nil, errors.New("--server is required (run.sh builds it)")
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if cfg.store != "" && cfg.store != "fswal" && cfg.store != "muxwal" {
		return nil, fmt.Errorf("--store %q: want fswal or muxwal", cfg.store)
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return nil, err
	}
	cfg.root = root
	if cfg.dataRoot == "" {
		cfg.dataRoot = filepath.Join(root, ".bench_build", "data")
	}
	for _, dir := range []string{cfg.dataRoot, logDir(cfg)} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	measured := max(1, int(cfg.seconds*w.span*w.rate+0.5))
	sc := w.build(cfg.seed, cfg.shape, measured, w.warmup)
	warm := sc.ops() - measured
	printHost(out, cfg, w, sc)
	if cfg.trace {
		return runTraced(cfg, w, sc, warm, out)
	}
	return runEndToEnd(cfg, w, sc, warm, out)
}

func logDir(cfg config) string { return filepath.Join(cfg.root, ".bench_build", "logs") }
