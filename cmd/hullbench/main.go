// Command hullbench regenerates the evaluation of Hershberger–Suri
// "Adaptive Sampling for Geometric Problems over Data Streams": Table 1
// (all four sections), the §5.4 lower-bound experiment (Fig. 9), the
// error-vs-r scaling of Theorem 5.4, the diameter approximation of
// Lemma 3.1, and the per-point processing-cost comparison of §3.1/§5.3.
//
// Usage:
//
//	hullbench -all                # everything, paper-scale (n = 100000)
//	hullbench -table1 -n 20000    # just Table 1, smaller stream
//	hullbench -sweep -lowerbound -diameter -timing
//	hullbench -windowed           # sliding-window cost/fidelity sweep
//	hullbench -fanin              # multi-node fan-in error vs push interval
//
// Throughput is measured elsewhere: perfbench drives the real server end
// to end, and the package benchmarks (go test -bench) time the library.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/experiments"
	"github.com/streamgeom/streamhull/internal/workload"
)

func main() {
	var (
		all        = flag.Bool("all", false, "run every experiment")
		table1     = flag.Bool("table1", false, "reproduce Table 1 (§7)")
		sweep      = flag.Bool("sweep", false, "error vs r sweep (Theorem 5.4)")
		lowerBound = flag.Bool("lowerbound", false, "circle lower bound (§5.4, Fig. 9)")
		diameter   = flag.Bool("diameter", false, "diameter approximation (Lemma 3.1)")
		timing     = flag.Bool("timing", false, "per-point processing cost (§3.1/§5.3)")
		windowed   = flag.Bool("windowed", false, "sliding-window cost and fidelity on a drift-burst stream")
		faninF     = flag.Bool("fanin", false, "continuous multi-node fan-in: aggregate error vs push interval and source count")
		n          = flag.Int("n", 100000, "stream length per experiment")
		r          = flag.Int("r", 16, "adaptive sample parameter (uniform uses 2r)")
		seed       = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	if !*all && !*table1 && !*sweep && !*lowerBound && !*diameter && !*timing && !*windowed && !*faninF {
		flag.Usage()
		os.Exit(2)
	}

	diskGen := func(s int64) workload.Generator { return workload.Disk(s, geom.Point{}, 1) }
	ellipseGen := func(s int64) workload.Generator {
		return workload.Ellipse(s, 1, 1.0/float64(*r), geom.TwoPi/float64(4**r))
	}

	if *all || *table1 {
		fmt.Println("=== Table 1 (§7) ===")
		secs := experiments.RunTable1(experiments.Table1Config{N: *n, R: *r, Seed: *seed})
		fmt.Print(experiments.FormatTable1(secs))
	}
	if *all || *sweep {
		fmt.Println("=== Error vs r (Theorem 5.4: adaptive O(D/r²) vs uniform Θ(D/r)) ===")
		rs := []int{8, 16, 32, 64, 128}
		fmt.Print(experiments.FormatSweep("uniform-in-disk stream", experiments.ErrorSweep(diskGen, *n, rs, *seed)))
		fmt.Println()
		fmt.Print(experiments.FormatSweep("rotated thin-ellipse stream", experiments.ErrorSweep(ellipseGen, *n, rs, *seed)))
		fmt.Println()
		// The true Θ(D/r) uniform regime: eccentricity tied to r, as in
		// the paper's aspect-ratio-r ellipse.
		scaled := func(s int64, r int) workload.Generator {
			return workload.Ellipse(s, 1, 1.0/float64(r), geom.TwoPi/float64(4*r))
		}
		fmt.Print(experiments.FormatSweep("ellipse with aspect ratio r (paper's regime)",
			experiments.ErrorSweepScaled(scaled, *n, rs, *seed)))
		fmt.Println()
	}
	if *all || *lowerBound {
		fmt.Println("=== Lower bound (§5.4 / Fig. 9) ===")
		fmt.Print(experiments.FormatLowerBound(experiments.LowerBound([]int{8, 16, 32, 64, 128, 256}, *seed)))
		fmt.Println()
	}
	if *all || *diameter {
		fmt.Println("=== Diameter approximation (Lemma 3.1) ===")
		fmt.Print(experiments.FormatDiameter(experiments.DiameterSweep(diskGen, *n, []int{8, 16, 32, 64, 128}, *seed)))
		fmt.Println()
	}
	if *all || *timing {
		fmt.Println("=== Per-point processing cost (§3.1/§5.3) ===")
		fmt.Print(experiments.FormatTiming(experiments.TimeSweep(diskGen, *n, []int{16, 32, 64, 128, 256, 512}, *seed)))
		fmt.Println()
	}
	if *all || *windowed {
		fmt.Println("=== Sliding-window summaries (count windows over a drift-burst stream) ===")
		burstGen := func(s int64) workload.Generator {
			return workload.DriftBurst(s, 1, geom.Pt(0.001, 0), *n/10, *n/200, 25)
		}
		windows := []int{max(1, *n/100), max(1, *n/20), max(1, *n/4)}
		fmt.Print(experiments.FormatWindowed(experiments.WindowedSweep(burstGen, *n, windows, *r, *seed)))
		fmt.Println()
	}
	if *all || *faninF {
		fmt.Println("=== Continuous fan-in (aggregate error vs push interval and source count) ===")
		// A pure drift stream (no bursts), so the newest points are always
		// the extreme ones: the stale aggregate lags the drift by however
		// many points each source holds back, which is exactly what the
		// push interval trades away.
		driftGen := func(s int64) workload.Generator {
			return workload.DriftBurst(s, 1, geom.Pt(0.001, 0), *n, 0, 0)
		}
		rows, err := experiments.FanInSweep(driftGen, *n,
			[]int{2, 4, 8}, []int{512, 2048, 8192}, *r, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fanin sweep:", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatFanIn(rows))
		fmt.Println()
	}
}
