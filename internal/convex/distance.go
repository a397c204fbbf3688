package convex

import (
	"math"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/robust"
)

// edges returns the boundary segments of the polygon, handling the
// degenerate sizes so distance queries work on any summary state.
func (p Polygon) edges() []geom.Segment {
	n := len(p.vs)
	switch n {
	case 0:
		return nil
	case 1:
		return []geom.Segment{{A: p.vs[0], B: p.vs[0]}}
	case 2:
		return []geom.Segment{{A: p.vs[0], B: p.vs[1]}}
	}
	out := make([]geom.Segment, n)
	for i := 0; i < n; i++ {
		out[i] = geom.Seg(p.vs[i], p.vs[(i+1)%n])
	}
	return out
}

// Intersects reports whether the two polygons share at least one point
// (touching counts). It is a separating-axis test over both polygons'
// edge normals, with the support lookups done by the O(log n) extreme
// search, plus containment checks for the fully-nested cases.
func Intersects(p, q Polygon) bool {
	if len(p.vs) == 0 || len(q.vs) == 0 {
		return false
	}
	// Degenerate cases reduce to point/segment tests.
	if len(p.vs) <= 2 || len(q.vs) <= 2 {
		for _, a := range p.edges() {
			for _, b := range q.edges() {
				if a.Intersects(b) {
					return true
				}
			}
		}
		// One may be inside the other.
		return p.Contains(q.vs[0]) || q.Contains(p.vs[0])
	}
	if separatedByEdge(p, q) || separatedByEdge(q, p) {
		return false
	}
	return true
}

// separatedByEdge reports whether some edge of p has all of q strictly
// outside its supporting half-plane.
func separatedByEdge(p, q Polygon) bool {
	n := len(p.vs)
	for i := 0; i < n; i++ {
		a := p.vs[i]
		b := p.vs[(i+1)%n]
		d := b.Sub(a)
		// Outward normal of CCW edge.
		u := geom.Pt(d.Y, -d.X)
		// q lies strictly outside iff even its least-outward vertex is
		// outside: min over q of v·u > a·u ⟺ −support(−u) > a·u.
		j := q.Extreme(u.Neg())
		if robust.CmpDot(q.vs[j], a, u) > 0 {
			return true
		}
	}
	return false
}

// MinDist returns the minimum distance between the two polygons and a pair
// of points realizing it. Intersecting polygons have distance zero. The
// edge-pair scan is O(nm) rather than a linear rotating-calipers walk;
// summary polygons have at most 2r+1 vertices, so this stays comfortably
// fast for tracking queries.
func MinDist(p, q Polygon) (float64, [2]geom.Point) {
	if len(p.vs) == 0 || len(q.vs) == 0 {
		return math.Inf(1), [2]geom.Point{}
	}
	if Intersects(p, q) {
		w := p.vs[0]
		if q.Contains(w) {
			return 0, [2]geom.Point{w, w}
		}
		// Some boundary pair touches/crosses; find any witness point.
		for _, a := range p.edges() {
			for _, b := range q.edges() {
				if a.Intersects(b) {
					w := witnessPoint(a, b)
					return 0, [2]geom.Point{w, w}
				}
			}
		}
		return 0, [2]geom.Point{q.vs[0], q.vs[0]} // p contains q
	}
	best := math.Inf(1)
	var pair [2]geom.Point
	for _, a := range p.edges() {
		for _, b := range q.edges() {
			pa, pb := closestSegmentPoints(a, b)
			if d := pa.Dist2(pb); d < best {
				best = d
				pair = [2]geom.Point{pa, pb}
			}
		}
	}
	return math.Sqrt(best), pair
}

// closestSegmentPoints returns a closest pair of points between two
// non-intersecting segments; the first point is on a, the second on b. For
// disjoint segments the minimum is always realized with at least one
// endpoint, so four endpoint projections cover all cases.
func closestSegmentPoints(a, b geom.Segment) (geom.Point, geom.Point) {
	candidates := [4][2]geom.Point{
		{a.ClosestPoint(b.A), b.A},
		{a.ClosestPoint(b.B), b.B},
		{a.A, b.ClosestPoint(a.A)},
		{a.B, b.ClosestPoint(a.B)},
	}
	best := candidates[0]
	bestD := best[0].Dist2(best[1])
	for _, c := range candidates[1:] {
		if d := c[0].Dist2(c[1]); d < bestD {
			bestD = d
			best = c
		}
	}
	return best[0], best[1]
}

// witnessPoint returns a point in the intersection of two intersecting
// segments.
func witnessPoint(a, b geom.Segment) geom.Point {
	la := geom.Seg(a.A, a.B)
	// Proper crossing: solve the two lines.
	d1 := b.B.Sub(b.A)
	d2 := a.B.Sub(a.A)
	den := d2.Cross(d1)
	if den != 0 {
		t := b.A.Sub(a.A).Cross(d1) / den
		if t >= 0 && t <= 1 {
			return a.A.Lerp(a.B, t)
		}
	}
	// Collinear or touching: one of the endpoints lies on the other segment.
	for _, c := range []geom.Point{b.A, b.B} {
		if la.Dist2ToPoint(c) == 0 {
			return c
		}
	}
	return a.A
}

// SeparatingLine returns a line strictly separating two disjoint polygons,
// oriented with p on the negative side and q on the positive side, and
// reports whether one exists. Touching or overlapping polygons are not
// separable (matching the §6 "no longer linearly separable" event).
func SeparatingLine(p, q Polygon) (geom.Line, bool) {
	d, pair := MinDist(p, q)
	if d <= 0 || math.IsInf(d, 1) {
		return geom.Line{}, false
	}
	n := pair[1].Sub(pair[0]).Scale(1 / d)
	mid := pair[0].Lerp(pair[1], 0.5)
	return geom.Line{N: n, Offset: n.Dot(mid)}, true
}
