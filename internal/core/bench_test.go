package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/streamgeom/streamhull/geom"
)

func benchPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		p := geom.Pt(rng.Float64()*2-1, rng.Float64()*2-1)
		if p.Norm2() <= 1 {
			pts = append(pts, p)
		}
	}
	return pts
}

// BenchmarkAblationSearch compares the localized candidate-gap search
// against the exhaustive reference scan (Config.Reference), the ablation
// for the §5.2 step-1 fast path.
func BenchmarkAblationSearch(b *testing.B) {
	pts := benchPoints(1<<16, 1)
	for _, r := range []int{32, 256} {
		b.Run(fmt.Sprintf("Fast/r=%d", r), func(b *testing.B) {
			h := New(Config{R: r})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Insert(pts[i%len(pts)])
			}
		})
		b.Run(fmt.Sprintf("Reference/r=%d", r), func(b *testing.B) {
			h := New(Config{R: r, Reference: true})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Insert(pts[i%len(pts)])
			}
		})
	}
}

// BenchmarkAblationHeight sweeps the refinement-tree height limit k
// (§5.1: "the tree height parameter can be used to control the degree of
// adaptive sampling"): k = 1 is nearly uniform, k = log2 r is the paper's
// recommendation. The workload is the thin rotated ellipse, where deep
// refinement actually binds; the reported metric is the a-posteriori
// error bound, which should drop as k grows.
func BenchmarkAblationHeight(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const r = 64
	pts := make([]geom.Point, 1<<14)
	for i := range pts {
		ang := rng.Float64() * geom.TwoPi
		rad := math.Sqrt(rng.Float64())
		pts[i] = geom.Pt(rad*math.Cos(ang), rad*math.Sin(ang)/float64(r)).
			Rotate(geom.TwoPi / float64(4*r))
	}
	for _, k := range []int{1, 2, 3, 6} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var errBound float64
			for i := 0; i < b.N; i++ {
				h := New(Config{R: r, Height: k})
				h.InsertAll(pts)
				errBound = h.MaxUncertaintyHeight()
			}
			b.ReportMetric(errBound*1e6, "errBound·1e6")
		})
	}
}

// BenchmarkInsertHot measures the steady-state discard path: the summary
// is pre-warmed so nearly every benchmark insert is an interior point.
func BenchmarkInsertHot(b *testing.B) {
	pts := benchPoints(1<<16, 3)
	for _, r := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			h := New(Config{R: r})
			h.InsertAll(pts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Insert(pts[i%len(pts)])
			}
		})
	}
}

// BenchmarkStatic measures the §4 off-line construction.
func BenchmarkStatic(b *testing.B) {
	pts := benchPoints(1<<14, 4)
	for _, r := range []int{16, 64} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildStatic(pts, Config{R: r})
			}
		})
	}
}
