package main

import (
	"math"
	"slices"
	"sort"

	"github.com/streamgeom/streamhull/geom"
)

// The benchmark's own answer checks. They are written here from first
// principles rather than borrowed from the repository, so a bug in the
// program's geometry cannot also hide in its oracle.

// convexHull returns the convex hull of pts in counter-clockwise order
// without collinear points (Andrew's monotone chain). It does not modify
// pts.
func convexHull(pts []geom.Point) []geom.Point {
	s := slices.Clone(pts)
	sort.Slice(s, func(i, j int) bool {
		if s[i].X != s[j].X {
			return s[i].X < s[j].X
		}
		return s[i].Y < s[j].Y
	})
	s = slices.CompactFunc(s, func(a, b geom.Point) bool { return a == b })
	if len(s) < 3 {
		return s
	}
	cross := func(o, a, b geom.Point) float64 {
		return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
	}
	h := make([]geom.Point, 0, 2*len(s))
	for _, p := range s {
		for len(h) >= 2 && cross(h[len(h)-2], h[len(h)-1], p) <= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	lower := len(h) + 1
	for i := len(s) - 2; i >= 0; i-- {
		p := s[i]
		for len(h) >= lower && cross(h[len(h)-2], h[len(h)-1], p) <= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	return h[:len(h)-1]
}

// hullAccumulator keeps the exact hull of every point added so far,
// folding each batch into the running hull.
type hullAccumulator struct{ hull []geom.Point }

func (a *hullAccumulator) add(batch []geom.Point) {
	a.hull = convexHull(append(slices.Clone(a.hull), batch...))
}

// diameter returns the largest distance between two points of pts.
func diameter(pts []geom.Point) float64 {
	best := 0.0
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d > best {
				best = d
			}
		}
	}
	return best
}

// distToConvex returns the distance from p to the convex polygon poly
// (counter-clockwise, as convexHull returns it): 0 inside or on it.
func distToConvex(p geom.Point, poly []geom.Point) float64 {
	switch len(poly) {
	case 0:
		return math.Inf(1)
	case 1:
		return p.Dist(poly[0])
	case 2:
		return geom.Seg(poly[0], poly[1]).DistToPoint(p)
	}
	inside := true
	best := math.Inf(1)
	for i := range poly {
		a, b := poly[i], poly[(i+1)%len(poly)]
		if b.Sub(a).Cross(p.Sub(a)) < 0 {
			inside = false
		}
		if d := geom.Seg(a, b).DistToPoint(p); d < best {
			best = d
		}
	}
	if inside {
		return 0
	}
	return best
}

// errRel is the approximation error of a served hull against the exact
// hull, as Blum et al. define it for streaming hulls: the largest
// distance from an exact-hull vertex to the served hull, relative to the
// exact diameter. served may be in any order; it is re-folded here.
func errRel(exact, served []geom.Point) float64 {
	d := diameter(exact)
	if d == 0 {
		return 0
	}
	poly := convexHull(served)
	worst := 0.0
	for _, v := range exact {
		if e := distToConvex(v, poly); e > worst {
			worst = e
		}
	}
	return worst / d
}

// errStats summarizes per-stream errors: their mean, which err_rel
// reports, and the worst stream.
func errStats(errs []float64) (mean, worst float64) {
	for _, e := range errs {
		mean += e
		worst = max(worst, e)
	}
	if len(errs) > 0 {
		mean /= float64(len(errs))
	}
	return mean, worst
}

// pointSet answers "did the client send this exact point?" from 64-bit
// fingerprints of the coordinates' bit patterns, sorted for binary
// search. Eight bytes a point keeps millions of sent points cheap.
type pointSet struct{ keys []uint64 }

func pointKey(p geom.Point) uint64 {
	return mix64(math.Float64bits(p.X)) ^ bitsRotate(mix64(math.Float64bits(p.Y)^0x9e3779b97f4a7c15))
}

func bitsRotate(x uint64) uint64 { return x<<29 | x>>35 }

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (s *pointSet) add(pts []geom.Point) {
	for _, p := range pts {
		s.keys = append(s.keys, pointKey(p))
	}
}

// seal sorts the fingerprints; call once after the last add.
func (s *pointSet) seal() { slices.Sort(s.keys) }

func (s *pointSet) has(p geom.Point) bool {
	_, ok := slices.BinarySearch(s.keys, pointKey(p))
	return ok
}
