package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/convex"
)

// --- workload helpers -----------------------------------------------------

func diskPts(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		p := geom.Pt(rng.Float64()*2-1, rng.Float64()*2-1)
		if p.Norm2() <= 1 {
			pts = append(pts, p)
		}
	}
	return pts
}

func ellipsePts(rng *rand.Rand, n int, a, b, rot float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		ang := rng.Float64() * geom.TwoPi
		rad := math.Sqrt(rng.Float64())
		pts[i] = geom.Pt(a*rad*math.Cos(ang), b*rad*math.Sin(ang)).Rotate(rot)
	}
	return pts
}

func circlePts(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Unit(rng.Float64() * geom.TwoPi)
	}
	return pts
}

func spiralPts(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Unit(float64(i) * 0.73).Scale(0.5 + float64(i)*2.0/float64(n))
	}
	return pts
}

func squarePts(rng *rand.Rand, n int, rot float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*2-1, rng.Float64()*2-1).Rotate(rot)
	}
	return pts
}

func workloads(rng *rand.Rand, n int) map[string][]geom.Point {
	theta0 := geom.TwoPi / 16
	return map[string][]geom.Point{
		"disk":           diskPts(rng, n),
		"ellipse":        ellipsePts(rng, n, 1, 1.0/16, theta0/4),
		"circle":         circlePts(rng, n),
		"spiral":         spiralPts(n),
		"square":         squarePts(rng, n, theta0/3),
		"collinear":      {{X: 0, Y: 0}, {X: 1, Y: 1}, {X: -2, Y: -2}, {X: 3, Y: 3}, {X: 0.5, Y: 0.5}},
		"duplicates":     {{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 0}, {X: 2, Y: 0}},
		"two-points":     {{X: 0, Y: 0}, {X: 5, Y: 0}},
		"single-point":   {{X: 3, Y: 4}},
		"tiny-cluster":   tinyCluster(rng, n/4),
		"changing-shape": changingShape(rng, n),
	}
}

func tinyCluster(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(1+rng.Float64()*1e-9, -2+rng.Float64()*1e-9)
	}
	return pts
}

func changingShape(rng *rand.Rand, n int) []geom.Point {
	half := n / 2
	out := ellipsePts(rng, half, 0.05, 0.8, 0)
	return append(out, ellipsePts(rng, n-half, 1.6, 0.9, 0)...)
}

// --- invariant and bound tests ---------------------------------------------

// TestInvariantsAllWorkloads runs Check after every insert on every
// workload, for both the standard and fixed-budget variants.
func TestInvariantsAllWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, pts := range workloads(rng, 700) {
		for _, cfg := range []Config{
			{R: 16},
			{R: 16, TargetDirs: 32},
			{R: 8, Height: 2},
		} {
			h := New(cfg)
			for i, p := range pts {
				h.Insert(p)
				if err := h.Check(); err != nil {
					t.Fatalf("%s cfg=%+v point %d: %v", name, cfg, i, err)
				}
			}
		}
	}
}

// TestSampleBudget verifies Theorem 5.4's 2r+1 sample-point bound and
// Lemma 4.2's r+1 refinement budget across workloads.
func TestSampleBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for name, pts := range workloads(rng, 3000) {
		for _, r := range []int{8, 16, 32} {
			h := New(Config{R: r})
			for _, p := range pts {
				h.Insert(p)
				if got := h.RefinementDirs(); got > r+1 {
					t.Fatalf("%s r=%d: %d refinement dirs > r+1", name, r, got)
				}
			}
			if got := h.SampleSize(); got > 2*r+1 {
				t.Fatalf("%s r=%d: sample size %d > 2r+1", name, r, got)
			}
		}
	}
}

// TestHullInsideTruth verifies the approximate hull is always inside the
// true hull ("Our approximate convex hull always lies inside the true
// hull", §1.1).
func TestHullInsideTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for name, pts := range workloads(rng, 2000) {
		h := New(Config{R: 16})
		h.InsertAll(pts)
		truth := convex.Hull(pts)
		for _, v := range h.Vertices() {
			if truth.DistToPoint(v) > 1e-9 {
				t.Fatalf("%s: sampled vertex %v outside true hull", name, v)
			}
		}
	}
}

// TestErrorBound verifies Corollary 5.2 as a hard guarantee: every stream
// point lies within 16πP/r² of the adaptive hull (the paper's d∞ with
// k = log2 r). The approximate priority queue can unrefine a factor ≤ 2
// early, which could double the bound to 32π; the test asserts the
// stricter 16π, which holds on these workloads, and logs the measured
// constant.
func TestErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for name, pts := range workloads(rng, 3000) {
		if len(pts) < 10 {
			continue
		}
		for _, r := range []int{8, 16, 32} {
			h := New(Config{R: r})
			h.InsertAll(pts)
			poly := h.Polygon()
			p := h.Perimeter()
			if p == 0 {
				continue
			}
			bound := 16 * math.Pi * p / float64(r*r)
			worst := 0.0
			for _, q := range pts {
				if d := poly.DistToPoint(q); d > worst {
					worst = d
				}
			}
			if worst > bound {
				t.Errorf("%s r=%d: max distance %v exceeds 16πP/r² = %v (ratio to P/r²: %.2f)",
					name, r, worst, bound, worst*float64(r*r)/p)
			}
			t.Logf("%s r=%d: worst·r²/P = %.3f (bound 16π≈50.3)", name, r, worst*float64(r*r)/p)
		}
	}
}

// TestUncertaintyTrianglesCoverStream: every stream point lies inside the
// hull or inside some uncertainty triangle region — equivalently within
// the max triangle height of the hull... the triangles themselves bound
// the reachable region, so distance to hull must not exceed the maximum
// triangle height plus rounding.
func TestUncertaintyTrianglesCoverStream(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pts := ellipsePts(rng, 4000, 1, 0.25, 0.37)
	h := New(Config{R: 16})
	h.InsertAll(pts)
	poly := h.Polygon()
	maxH := h.MaxUncertaintyHeight()
	// The streaming guarantee adds the d_index slack to the static
	// triangles; 16πP/r² bounds that slack (Cor. 5.2).
	slack := 16 * math.Pi * h.Perimeter() / float64(16*16)
	for _, q := range pts {
		if d := poly.DistToPoint(q); d > maxH+slack+1e-9 {
			t.Fatalf("point %v at distance %v > maxHeight %v + slack %v", q, d, maxH, slack)
		}
	}
}

// TestFastMatchesReference cross-validates the localized candidate-gap
// search against the exhaustive reference scan: the full sample state must
// be identical after every insert.
func TestFastMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for name, pts := range workloads(rng, 1200) {
		fast := New(Config{R: 16})
		ref := New(Config{R: 16, Reference: true})
		for i, p := range pts {
			fast.Insert(p)
			ref.Insert(p)
			fs, rs := fast.Samples(), ref.Samples()
			if len(fs) != len(rs) {
				t.Fatalf("%s point %d: %d samples fast vs %d reference", name, i, len(fs), len(rs))
			}
			for j := range fs {
				if fs[j].Idx != rs[j].Idx || !fs[j].Point.Eq(rs[j].Point) {
					t.Fatalf("%s point %d sample %d: fast %+v vs reference %+v",
						name, i, j, fs[j], rs[j])
				}
			}
		}
	}
}

// TestDeterminism: identical streams give identical summaries.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	pts := ellipsePts(rng, 2000, 1, 0.1, 0.2)
	build := func() []Sample {
		h := New(Config{R: 16})
		h.InsertAll(pts)
		return h.Samples()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("nondeterministic sample count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic samples")
		}
	}
}

// TestAdaptiveBeatsUniformOnEllipse reproduces the qualitative §7 result:
// on a rotated thin ellipse, the adaptive hull with 2r directions has far
// smaller maximum uncertainty height than the uniform hull with 2r
// directions.
func TestAdaptiveBeatsUniformOnEllipse(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const r = 16
	theta0 := geom.TwoPi / r
	pts := ellipsePts(rng, 20000, 1, 1.0/16, theta0/4)

	adaptive := New(Config{R: r, TargetDirs: 2 * r})
	adaptive.InsertAll(pts)
	uniPoly := buildUniformPolygon(pts, 2*r)

	truth := convex.Hull(pts)
	adWorst, uniWorst := 0.0, 0.0
	adPoly := adaptive.Polygon()
	for _, v := range truth.Vertices() {
		if d := adPoly.DistToPoint(v); d > adWorst {
			adWorst = d
		}
		if d := uniPoly.DistToPoint(v); d > uniWorst {
			uniWorst = d
		}
	}
	if adWorst > uniWorst {
		t.Errorf("adaptive worst error %v not better than uniform %v", adWorst, uniWorst)
	}
	t.Logf("rotated ellipse: adaptive %v vs uniform %v (ratio %.1f)", adWorst, uniWorst, uniWorst/adWorst)
}

// buildUniformPolygon builds the plain uniformly sampled hull with m
// directions (an adaptive hull with a zero refinement budget).
func buildUniformPolygon(pts []geom.Point, m int) convex.Polygon {
	u := New(Config{R: m, TargetDirs: m})
	u.InsertAll(pts)
	return u.Polygon()
}

// TestErrorShrinksQuadratically: doubling r should shrink the worst error
// by roughly 4× (Theorem 5.4). Tolerate noise by requiring at least 2.5×
// between r=16 and r=64 (two doublings ⇒ ≥ 6×).
func TestErrorShrinksQuadratically(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	pts := diskPts(rng, 30000)
	truth := convex.Hull(pts)
	errAt := func(r int) float64 {
		h := New(Config{R: r})
		h.InsertAll(pts)
		poly := h.Polygon()
		worst := 0.0
		for _, v := range truth.Vertices() {
			if d := poly.DistToPoint(v); d > worst {
				worst = d
			}
		}
		return worst
	}
	e16, e64 := errAt(16), errAt(64)
	if e64 <= 0 {
		t.Skip("zero error at r=64; stream too small")
	}
	ratio := e16 / e64
	if ratio < 6 {
		t.Errorf("error ratio r=16→64 is %.2f, want ≥ 6 (quadratic ⇒ ~16)", ratio)
	}
	t.Logf("disk: err(16)=%v err(64)=%v ratio=%.1f", e16, e64, ratio)
}

// TestTargetDirsBudget: the fixed-budget variant holds exactly TargetDirs
// directions once the stream is non-degenerate.
func TestTargetDirsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts := diskPts(rng, 2000)
	h := New(Config{R: 16, TargetDirs: 32})
	h.InsertAll(pts)
	if got := h.DirectionCount(); got != 32 {
		t.Errorf("DirectionCount = %d, want 32", got)
	}
	if err := h.Check(); err != nil {
		t.Error(err)
	}
}

// TestStaticMatchesBound: the §4 static construction satisfies Lemma 4.3's
// O(D/r²) uncertainty height with the explicit constant from the proof
// (≤ 2πP·max_k(k+1)/2^k /r² ≤ 4πP/r², asserted with slack).
func TestStaticMatchesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, r := range []int{8, 16, 32, 64} {
		pts := diskPts(rng, 5000)
		h := BuildStatic(pts, Config{R: r})
		if err := h.Check(); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		p := h.Perimeter()
		if p == 0 {
			continue
		}
		bound := 4 * math.Pi * p / float64(r*r)
		if got := h.MaxUncertaintyHeight(); got > bound {
			t.Errorf("r=%d: static max height %v > bound %v", r, got, bound)
		}
	}
}

// TestStaticRefinementCount: Lemma 4.2 — at most r+1 added extrema.
func TestStaticRefinementCount(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, r := range []int{8, 16, 32} {
		pts := ellipsePts(rng, 5000, 1, 0.05, 0.3)
		h := BuildStatic(pts, Config{R: r})
		if got := h.RefinementDirs(); got > r+1 {
			t.Errorf("r=%d: static refinements %d > r+1", r, got)
		}
		if got := h.SampleSize(); got > 2*r+1 {
			t.Errorf("r=%d: static sample size %d > 2r+1", r, got)
		}
	}
}

// TestStreamMatchesStaticOnHullVertices: feeding just the hull vertices of
// a set through the stream should produce a summary whose error is
// comparable to the static construction on the same set (not identical —
// the stream's history matters — but within the same bound class).
func TestStreamMatchesStaticOnHullVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	pts := diskPts(rng, 3000)
	const r = 16
	static := BuildStatic(pts, Config{R: r})
	stream := New(Config{R: r})
	stream.InsertAll(pts)
	sBound := 16 * math.Pi * static.Perimeter() / float64(r*r)
	if got := stream.MaxUncertaintyHeight(); got > 2*sBound {
		t.Errorf("stream max height %v far exceeds static-class bound %v", got, sBound)
	}
}

func TestEmptyAndTinyStreams(t *testing.T) {
	h := New(Config{R: 8})
	if h.Samples() != nil {
		t.Error("samples before any point")
	}
	if got := h.Polygon(); !got.IsEmpty() {
		t.Error("polygon before any point")
	}
	h.Insert(geom.Pt(1, 2))
	if err := h.Check(); err != nil {
		t.Error(err)
	}
	if got := h.SampleSize(); got != 1 {
		t.Errorf("one point: SampleSize = %d", got)
	}
	h.Insert(geom.Pt(1, 2)) // duplicate
	h.Insert(geom.Pt(3, 4))
	if err := h.Check(); err != nil {
		t.Error(err)
	}
	if got := h.Polygon().Len(); got != 2 {
		t.Errorf("two distinct points: polygon has %d vertices", got)
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("R too small", func() { New(Config{R: 3}) })
	mustPanic("TargetDirs < R", func() { New(Config{R: 16, TargetDirs: 8}) })
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	pts := diskPts(rng, 1000)
	h := New(Config{R: 16})
	h.InsertAll(pts)
	st := h.Stats()
	if st.Points != 1000 {
		t.Errorf("Points = %d", st.Points)
	}
	if st.Discarded+st.UniformChanges > st.Points {
		t.Errorf("inconsistent stats: %+v", st)
	}
	if st.Discarded == 0 {
		t.Error("no discards on a disk stream; discard path untested")
	}
	if st.GapRebuilds == 0 {
		t.Error("no gap rebuilds")
	}
}
