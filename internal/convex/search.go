package convex

import (
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/robust"
)

// The functions in this file operate on an indexed view of a convex CCW
// vertex cycle: n vertices accessed through at(i) for 0 ≤ i < n. This lets
// the static Polygon type and the dynamic hull summaries share one
// implementation of the §3.1 binary searches.

// ContainsIdx reports whether q lies inside or on the boundary of the
// convex CCW cycle, in O(log n) orientation tests. The cycle may be weakly
// convex (collinear runs are tolerated) but must not be self-intersecting.
func ContainsIdx(n int, at func(int) geom.Point, q geom.Point) bool {
	switch n {
	case 0:
		return false
	case 1:
		return q.Eq(at(0))
	case 2:
		a, b := at(0), at(1)
		return robust.Orient2D(a, b, q) == 0 && geom.Seg(a, b).Dist2ToPoint(q) == 0
	}
	v0 := at(0)
	// Outside the wedge at v0?
	if robust.Orient2D(v0, at(1), q) < 0 {
		return false
	}
	o := robust.Orient2D(v0, at(n-1), q)
	if o > 0 {
		return false
	}
	if o == 0 {
		// q on the supporting line of v0→at(n−1); inside iff on the segment.
		return geom.Seg(v0, at(n-1)).Dist2ToPoint(q) == 0
	}
	// Binary search for the wedge (v0, at(lo), at(lo+1)) containing q:
	// the largest lo with orient(v0, at(lo), q) ≥ 0.
	lo, hi := 1, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if robust.Orient2D(v0, at(mid), q) >= 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return robust.Orient2D(at(lo), at(lo+1), q) >= 0
}

// ContainsBruteIdx is the O(n) reference for ContainsIdx.
func ContainsBruteIdx(n int, at func(int) geom.Point, q geom.Point) bool {
	switch n {
	case 0:
		return false
	case 1:
		return q.Eq(at(0))
	case 2:
		a, b := at(0), at(1)
		return robust.Orient2D(a, b, q) == 0 && geom.Seg(a, b).Dist2ToPoint(q) == 0
	}
	for i := 0; i < n; i++ {
		if robust.Orient2D(at(i), at((i+1)%n), q) < 0 {
			return false
		}
	}
	return true
}

// VisibleRange returns the contiguous circular range of edges of the cycle
// that are visible from q (q strictly outside the edge's supporting line):
// first is the index of the first visible edge in CCW order and count the
// number of visible edges. ok is false when no edge is visible, i.e. q is
// inside or on the boundary of the cycle.
//
// Edge i runs from at(i) to at(i+1). The visible vertices form the chain
// at(first), …, at(first+count): the two tangent points from q are
// at(first) and at((first+count) mod n).
//
// The scan is O(n), where a binary search for the two tangents from q
// would be O(log n). It is invoked only for points that change the hull
// (or land in the thin uncertainty ring), which standard amortization
// makes cheap for the summaries.
func VisibleRange(n int, at func(int) geom.Point, q geom.Point) (first, count int, ok bool) {
	if n < 2 {
		return 0, 0, false
	}
	if n == 2 {
		// Degenerate two-vertex cycle: both "edges" are the same segment
		// with opposite orientations; exactly one is visible unless q is
		// collinear with it.
		switch robust.Orient2D(at(0), at(1), q) {
		case -1:
			return 0, 1, true
		case 1:
			return 1, 1, true
		default:
			return 0, 0, false
		}
	}
	visible := func(i int) bool {
		return robust.Orient2D(at(i%n), at((i+1)%n), q) < 0
	}
	// Find any non-visible edge followed by the first visible edge.
	start := -1
	prev := visible(n - 1)
	for i := 0; i < n; i++ {
		cur := visible(i)
		if cur && !prev {
			start = i
			break
		}
		prev = cur
	}
	if start == -1 {
		// Either all edges visible (impossible for q outside a convex cycle
		// with n ≥ 3) or none visible.
		return 0, 0, false
	}
	count = 1
	for count < n && visible(start+count) {
		count++
	}
	return start, count, true
}

// ExtremeIdx returns an index of a vertex maximizing v·u, scanning all
// vertices with exact comparisons. Among equally extreme vertices it
// returns the one first reached from index 0.
func ExtremeIdx(n int, at func(int) geom.Point, u geom.Point) int {
	best := 0
	bp := at(0)
	for i := 1; i < n; i++ {
		p := at(i)
		if robust.CmpDot(p, bp, u) > 0 {
			best, bp = i, p
		}
	}
	return best
}

// Extreme returns the index of a vertex of the polygon extreme in direction
// u. For the strictly convex polygons produced by Hull it uses the
// precomputed edge-normal table for an O(log n) search, falling back to the
// linear scan for degenerate sizes. The result is validated against its
// neighbors with exact comparisons.
func (p Polygon) Extreme(u geom.Point) int {
	n := len(p.vs)
	if n == 0 {
		panic("convex: Extreme on empty polygon")
	}
	if n <= 8 {
		return ExtremeIdx(n, p.Vertex, u)
	}
	i := p.extremeByNormals(u)
	// Exact local adjustment (the normal table is floating point).
	for robust.CmpDot(p.Vertex(i+1), p.Vertex(i), u) > 0 {
		i = (i + 1) % n
	}
	for robust.CmpDot(p.Vertex(i-1), p.Vertex(i), u) > 0 {
		i = (i - 1 + n) % n
	}
	return i
}

// Tangents returns the two tangent vertex indices from an external point:
// t1 begins and t2 ends the CCW chain of vertices visible from q. ok is
// false if q is inside or on the boundary.
func (p Polygon) Tangents(q geom.Point) (t1, t2 int, ok bool) {
	first, count, ok := VisibleRange(len(p.vs), p.Vertex, q)
	if !ok {
		return 0, 0, false
	}
	return first, (first + count) % len(p.vs), true
}

// Contains reports whether q is inside or on the polygon in O(log n).
func (p Polygon) Contains(q geom.Point) bool {
	return ContainsIdx(len(p.vs), p.Vertex, q)
}

// ContainsBrute is the linear-time reference for Contains.
func (p Polygon) ContainsBrute(q geom.Point) bool {
	return ContainsBruteIdx(len(p.vs), p.Vertex, q)
}
