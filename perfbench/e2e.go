package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// phaseResult is what the measured phase of one pass recorded.
type phaseResult struct {
	ops      int
	elapsed  time.Duration
	writes   latencies
	reads    latencies
	points   int      // points ingested by measured writes
	readBods [][]byte // recorded read responses (traced passes)
	// The measured phase is cut into chunks of equal operation counts;
	// chunkRate and chunkCPU are each chunk's operations per second and
	// server CPU milliseconds per operation.
	chunkRate []float64
	chunkCPU  []float64
}

func (p phaseResult) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// chunks is how many equal slices of the measured phase the throughput
// and CPU metrics take their median over: a burst of load from outside
// the benchmark then spoils one slice instead of the whole figure.
const chunks = 10

// maxRecordedReads bounds the read responses a traced pass keeps for the
// encode replay.
const maxRecordedReads = 512

// runOps runs the warm-up untimed, calls mark, then runs and times the
// measured operations. cpu, when set, reads the server's CPU seconds at
// each chunk boundary. A failed operation is counted by the client and
// the loop goes on: the answer checks then fail the run.
func runOps(sess session, total, warm int, record bool, mark func(string), cpu func() float64) phaseResult {
	for i := 0; i < warm; i++ {
		sess.op(i, false)
	}
	mark("measured")
	res := phaseResult{ops: total - warm}
	start := time.Now()
	lastT, lastCPU, lastI := start, 0.0, warm
	if cpu != nil {
		lastCPU = cpu()
	}
	for i := warm; i < total; i++ {
		o := sess.op(i, record && len(res.readBods) < maxRecordedReads)
		if o.err == nil {
			if o.write > 0 {
				res.writes = append(res.writes, o.write)
				res.points += o.points
			}
			if o.hasRead {
				res.reads = append(res.reads, o.read)
			}
			if o.readBody != nil {
				res.readBods = append(res.readBods, o.readBody)
			}
		}
		if done := i + 1 - warm; done*chunks/res.ops != (done-1)*chunks/res.ops || i+1 == total {
			now := time.Now()
			n := float64(i + 1 - lastI)
			res.chunkRate = append(res.chunkRate, n/now.Sub(lastT).Seconds())
			if cpu != nil {
				c := cpu()
				res.chunkCPU = append(res.chunkCPU, (c-lastCPU)*1000/n)
				lastCPU = c
			}
			lastT, lastI = now, i+1
		}
	}
	res.elapsed = time.Since(start)
	mark("check")
	return res
}

// gcSwitch is a runOps mark for passes whose server is another process:
// the client's garbage collector stays off while operations are timed,
// since on a small host its mark phase would steal a core from the
// server. The measured phase allocates a few megabytes at most. A pass
// whose server shares this process must keep it on.
type gcSwitch struct{ prev int }

func (g *gcSwitch) mark(phase string) {
	switch phase {
	case "measured":
		runtime.GC()
		g.prev = debug.SetGCPercent(-1)
	case "check":
		debug.SetGCPercent(g.prev)
	}
}

// runEndToEnd is the untraced run: hullserver as its own process, set up
// several times, measured once, checked, then crashed and restarted
// several times.
func runEndToEnd(cfg config, w workloadDef, sc scenario, warm int, out io.Writer) (*result, error) {
	logPath := filepath.Join(logDir(cfg), fmt.Sprintf("%s-%d-%d.log", w.name, cfg.seed, os.Getpid()))
	var (
		srv     *serverProc
		dataDir string
		dirs    []string
	)
	defer func() {
		if srv != nil {
			srv.kill()
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
		// Pay for this run's deletions and writeback now, so the next
		// run's fsyncs do not wait on them.
		syscall.Sync()
	}()
	c := newClient("", benchToken, oneConnTransport())
	var sess session
	var setups []float64
	for k := 0; k < cfg.shape.setups; k++ {
		if sc.durable() {
			d, err := os.MkdirTemp(cfg.dataRoot, w.name+"-")
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, d)
			dataDir = d
		}
		// Every set-up starts from a filesystem with nothing pending.
		syscall.Sync()
		start := time.Now()
		var err error
		srv, err = startServer(cfg.server, serverFlags(cfg, sc, dataDir), logPath, nil)
		if err != nil {
			return nil, err
		}
		c.base = srv.base()
		sess = sc.session(c)
		if err := sess.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < cfg.shape.setups-1 {
			// Only the last set-up's server is measured. Its data
			// directory stays until the run ends, so deleting it cannot
			// slow the next set-up.
			srv.kill()
			srv = nil
		}
	}
	var (
		cpuErr error
		gc     gcSwitch
	)
	ph := runOps(sess, sc.ops(), warm, false, gc.mark, func() float64 {
		v, err := procCPU(srv.pid())
		cpuErr = errors.Join(cpuErr, err)
		return v
	})
	if cpuErr != nil {
		return nil, cpuErr
	}
	rss, err := procHWM(srv.pid())
	if err != nil {
		return nil, err
	}
	errs, wrong := sess.check()
	errRel, errMax := errStats(errs)

	// Crash and restart on the same data: recovery_s is the median time
	// from relaunch to serving again (for the in-memory aggregate, to the
	// followers' refill being acked).
	var recoveries []float64
	for k := 0; k < w.restarts; k++ {
		srv.kill()
		srv = nil
		start := time.Now()
		srv, err = startServer(cfg.server, serverFlags(cfg, sc, dataDir), logPath, nil)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		c.base = srv.base()
		if err := sess.restarted(); err != nil {
			return nil, fmt.Errorf("refill after restart: %w", err)
		}
		recoveries = append(recoveries, time.Since(start).Seconds())
	}
	// Acknowledged writes must survive the crashes.
	wrong = append(wrong, checkCounts(c, sc)...)

	p99, slices := ph.writes.slicedPercentileMs(99, chunks)
	m := map[string]metric{
		"ops_per_s":     {median(ph.chunkRate), "1/s"},
		"write_p50_ms":  {ph.writes.percentileMs(50), "ms"},
		"cpu_ms_per_op": {median(ph.chunkCPU), "ms"},
		"err_rel":       {errRel, "ratio"},
		"setup_s":       {median(setups), "s"},
		"rss_mb":        {rss, "MiB"},
	}
	res := &result{Correct: c.failed == 0 && len(wrong) == 0,
		Attempted: c.attempted, Failed: c.failed + len(wrong), Metrics: m}
	printEndToEnd(out, w, ph, setups, recoveries, p99, slices, errMax, res, c.failures, wrong)
	if res.Correct {
		os.Remove(logPath)
	}
	return res, nil
}

func printEndToEnd(out io.Writer, w workloadDef, ph phaseResult, setups, recoveries []float64,
	p99 float64, p99Slices int, errMax float64, res *result, failures, wrong []string) {
	fmt.Fprintf(out, "workload %s: %d measured ops in %.2fs (%.1f/s overall); attempted %d, failed %d\n",
		w.name, ph.ops, ph.elapsed.Seconds(), ph.opsPerSec(), res.Attempted, res.Failed)
	for _, name := range []string{"ops_per_s", "write_p50_ms", "cpu_ms_per_op",
		"err_rel", "setup_s", "rss_mb"} {
		m := res.Metrics[name]
		fmt.Fprintf(out, "  %-14s %12.4f %s\n", name, m.Value, m.Unit)
	}
	// Not gated: the in-memory aggregate has no recovery of its own, and
	// its restart-and-refill time swings from run to run.
	fmt.Fprintf(out, "  %-14s %12.4f %s  (not gated: median of %d crash-restarts)\n",
		"recovery_s", median(recoveries), "s", len(recoveries))
	// Not gated: on a shared 2-vCPU host the tail swings with the
	// neighbours' load far beyond any bound the gate allows.
	fmt.Fprintf(out, "  %-14s %12.4f %s  (not gated: median p99 of %d slices of %d writes)\n",
		"write_p99_ms", p99, "ms", p99Slices, len(ph.writes)/p99Slices)
	fmt.Fprintf(out, "  %-14s %12.4f %s  (not gated: the worst stream; err_rel is the mean over streams)\n",
		"err_rel_max", errMax, "ratio")
	printLatency(out, "write", ph.writes)
	if len(ph.reads) > 0 {
		fmt.Fprintf(out, "  %-14s %12.4f %s  (not gated: only coldfleet and aggregate read)\n",
			"read_p50_ms", ph.reads.percentileMs(50), "ms")
		printLatency(out, "read", ph.reads)
	}
	fmt.Fprintf(out, "  setups_s %v  recoveries_s %v\n", roundAll(setups), roundAll(recoveries))
	fmt.Fprintf(out, "  chunk ops_per_s %v\n  chunk cpu_ms_per_op %v\n", roundAll(ph.chunkRate), roundAll(ph.chunkCPU))
	for _, f := range failures {
		fmt.Fprintln(out, "  failed:", f)
	}
	for i, wr := range wrong {
		if i == 8 {
			fmt.Fprintf(out, "  ... %d more wrong answers\n", len(wrong)-i)
			break
		}
		fmt.Fprintln(out, "  wrong:", wr)
	}
}

// printLatency states the highest percentile the sample supports and
// how many samples lie beyond it.
func printLatency(out io.Writer, what string, l latencies) {
	p := supportedPercentile(len(l))
	if p == 0 {
		fmt.Fprintf(out, "  %s latency: %d samples, too few for any percentile\n", what, len(l))
		return
	}
	fmt.Fprintf(out, "  %s latency: p50 %.3f p90 %.3f p95 %.3f ms, highest supported p%g = %.3f ms (n=%d, %d beyond)\n",
		what, l.percentileMs(50), l.percentileMs(90), l.percentileMs(95), p, l.percentileMs(p), len(l), beyond(len(l), p))
	if p < 99 {
		fmt.Fprintf(out, "  %s latency: p99 has fewer than %d samples beyond it at n=%d\n", what, minBeyond, len(l))
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}
