// Package fixeddir maintains the convex hull of a point stream sampled in a
// fixed set of directions: for every direction θ_j it keeps the running
// extremum (the input point maximizing p·u(θ_j)).
//
// With m evenly spaced directions this is exactly the uniformly sampled
// hull of Hershberger–Suri §3 (the Feigenbaum–Kannan–Zhang-style baseline
// with Θ(D/r) hull error); with an arbitrary direction set it implements
// the frozen stage of the "partially adaptive" strawman of §7 and the
// uniform level of the adaptive hull of §4–5.
//
// The vertex list is kept sorted by the first direction each vertex is
// extreme in, so the discard test for a new point is an O(log v)
// point-in-polygon search (§3.1); points that do change the hull pay O(v)
// for the splice, which amortizes over the at-most-one deletion of each
// stored vertex.
package fixeddir

import (
	"fmt"
	"math"
	"sort"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/convex"
	"github.com/streamgeom/streamhull/internal/robust"
)

// vertexRec is one stored extremum: the point and the first direction index
// it is extreme in. The record covers directions up to (but not including)
// the next record's start, cyclically.
type vertexRec struct {
	start int
	pt    geom.Point
}

// Hull is the fixed-direction sampled hull. It is not safe for concurrent
// use; the public streamhull package adds locking.
type Hull struct {
	angles []float64    // sorted direction angles in [0, 2π)
	units  []geom.Point // unit vectors for the directions
	verts  []vertexRec  // current extrema, sorted by start
	perim  float64      // perimeter of the sampled polygon
	n      int          // stream points processed
	hullCh int          // inserts that changed the hull
	// degenerate is set if a vertex ever had to be split into two records
	// (possible only for near-degenerate small hulls); it forces the exact
	// linear scan from then on.
	degenerate bool
	// scratch buffers reused across inserts.
	pieces []piece
}

type piece struct{ start, count int }

// Change reports what an Insert did.
type Change struct {
	Changed bool // the hull was modified
	First   bool // this was the first point of the stream
	Lo, Hi  int  // inclusive circular range of beaten direction indices
	Count   int  // number of beaten directions
}

// NewUniform returns a hull sampling m evenly spaced directions j·2π/m
// (the uniformly sampled hull with parameter r = m of §3). m must be ≥ 3.
func NewUniform(m int) *Hull {
	if m < 3 {
		panic(fmt.Sprintf("fixeddir: m = %d < 3", m))
	}
	angles := make([]float64, m)
	for j := range angles {
		angles[j] = geom.TwoPi * float64(j) / float64(m)
	}
	return newHull(angles)
}

// NewFromAngles returns a hull sampling the given directions. The angles
// must be strictly increasing within [0, 2π) and there must be at least 3.
func NewFromAngles(angles []float64) *Hull {
	if len(angles) < 3 {
		panic(fmt.Sprintf("fixeddir: %d directions < 3", len(angles)))
	}
	for i, a := range angles {
		if a < 0 || a >= geom.TwoPi || math.IsNaN(a) {
			panic(fmt.Sprintf("fixeddir: angle %v out of [0, 2π)", a))
		}
		if i > 0 && angles[i-1] >= a {
			panic("fixeddir: angles not strictly increasing")
		}
	}
	return newHull(append([]float64(nil), angles...))
}

func newHull(angles []float64) *Hull {
	units := make([]geom.Point, len(angles))
	for i, a := range angles {
		units[i] = geom.Unit(a)
	}
	return &Hull{angles: angles, units: units}
}

// DirCount returns the number of sampled directions.
func (h *Hull) DirCount() int { return len(h.angles) }

// Angle returns the angle of direction j.
func (h *Hull) Angle(j int) float64 { return h.angles[h.wrap(j)] }

// UnitDir returns the unit vector of direction j.
func (h *Hull) UnitDir(j int) geom.Point { return h.units[h.wrap(j)] }

// N returns the number of stream points processed.
func (h *Hull) N() int { return h.n }

// SetN overrides the processed-point counter. Summaries rebuilt from a
// persisted snapshot use it so N keeps counting the whole stream, not
// just the replayed sample.
func (h *Hull) SetN(n int) { h.n = n }

// HullChanges returns how many inserts modified the hull.
func (h *Hull) HullChanges() int { return h.hullCh }

// VertexCount returns the number of stored vertex records.
func (h *Hull) VertexCount() int { return len(h.verts) }

// Perimeter returns the perimeter of the sampled polygon (0 for fewer than
// two vertices, twice the segment length for exactly two).
func (h *Hull) Perimeter() float64 { return h.perim }

func (h *Hull) wrap(j int) int {
	m := len(h.angles)
	j %= m
	if j < 0 {
		j += m
	}
	return j
}

// ExtremumAt returns the stored extremum for direction j; ok is false
// before any point has been processed.
func (h *Hull) ExtremumAt(j int) (geom.Point, bool) {
	if len(h.verts) == 0 {
		return geom.Point{}, false
	}
	return h.verts[h.coveringIdx(h.wrap(j))].pt, true
}

// coveringIdx returns the index into verts of the record covering
// direction j.
func (h *Hull) coveringIdx(j int) int {
	// Last record with start ≤ j; if none, the coverage wraps around from
	// the final record.
	i := sort.Search(len(h.verts), func(i int) bool { return h.verts[i].start > j })
	if i == 0 {
		return len(h.verts) - 1
	}
	return i - 1
}

// coverageEnd returns the last direction index covered by verts[i].
func (h *Hull) coverageEnd(i int) int {
	next := h.verts[(i+1)%len(h.verts)].start
	return h.wrap(next - 1)
}

// beats reports whether q strictly exceeds the stored extremum in
// direction j. Exact (robust) comparison.
func (h *Hull) beats(q geom.Point, j int) bool {
	j = h.wrap(j)
	v := h.verts[h.coveringIdx(j)]
	return robust.CmpDot(q, v.pt, h.units[j]) > 0
}

// Degenerate reports whether the structure ever had to split a vertex
// record (exact-tie degeneracies); callers doing geometric searches over
// the record cycle should fall back to exact scans when this is set.
func (h *Hull) Degenerate() bool { return h.degenerate }

// VertexPoint returns the point of the i-th vertex record in CCW order.
func (h *Hull) VertexPoint(i int) geom.Point { return h.verts[i].pt }

// Inside reports whether q lies inside or on the sampled polygon, using
// the O(log v) search. It must not be used when Degenerate() is true.
func (h *Hull) Inside(q geom.Point) bool {
	return convex.ContainsIdx(len(h.verts), h.VertexPoint, q)
}

// VisibleArc returns the contiguous range of record-cycle edges visible
// from q (see convex.VisibleRange). It must not be used when Degenerate()
// is true.
func (h *Hull) VisibleArc(q geom.Point) (first, count int, ok bool) {
	return convex.VisibleRange(len(h.verts), h.VertexPoint, q)
}

// VerticesCCW returns the distinct hull vertices in counterclockwise
// order (the order of the directions they are extreme in).
func (h *Hull) VerticesCCW() []geom.Point {
	out := make([]geom.Point, 0, len(h.verts))
	for _, v := range h.verts {
		if len(out) == 0 || !out[len(out)-1].Eq(v.pt) {
			out = append(out, v.pt)
		}
	}
	// The wrap-around pair can also coincide.
	if len(out) > 1 && out[0].Eq(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

// Polygon returns the sampled hull as a convex polygon.
func (h *Hull) Polygon() convex.Polygon {
	return convex.FromConvexCCW(h.VerticesCCW())
}

// Support returns the support value of the sampled hull in direction j:
// the maximum of p·u(θ_j) over all stream points seen so far. It panics
// before the first point.
func (h *Hull) Support(j int) float64 {
	p, ok := h.ExtremumAt(j)
	if !ok {
		panic("fixeddir: Support before first point")
	}
	return p.Dot(h.units[h.wrap(j)])
}

// Insert processes one stream point and reports what changed.
func (h *Hull) Insert(q geom.Point) Change {
	h.n++
	m := len(h.angles)
	if len(h.verts) == 0 {
		h.verts = append(h.verts, vertexRec{start: 0, pt: q})
		h.hullCh++
		return Change{Changed: true, First: true, Lo: 0, Hi: m - 1, Count: m}
	}

	// Discard test: a point inside the sampled polygon beats no sampled
	// direction (§3.1 / Algorithm AdaptiveHull step 1). O(log v).
	if !h.degenerate && len(h.verts) >= 3 {
		at := func(i int) geom.Point { return h.verts[i].pt }
		if convex.ContainsIdx(len(h.verts), at, q) {
			return Change{}
		}
	}

	lo, count, any := h.beatenRange(q)
	if !any {
		return Change{}
	}
	hi := h.wrap(lo + count - 1)
	h.apply(q, lo, hi, count)
	h.hullCh++
	return Change{Changed: true, Lo: lo, Hi: hi, Count: count}
}

// beatenRange finds the circular contiguous range of directions in which q
// beats the stored extrema. It walks the vertex records; for each it
// intersects the record's coverage with the half-circle of directions
// around angle(q − v), then makes the boundary exact with robust
// comparisons. Total cost O(v + beaten + log m).
func (h *Hull) beatenRange(q geom.Point) (lo, count int, any bool) {
	h.pieces = h.pieces[:0]
	total := 0
	for i, v := range h.verts {
		total += h.beatenWithin(q, v.pt, v.start, h.coverageEnd(i))
	}
	m := len(h.angles)
	if total == 0 {
		return 0, 0, false
	}
	if total >= m {
		// Only possible transiently for degenerate hulls; treat as beating
		// everything.
		return 0, m, true
	}
	// The union of the pieces is a single circular arc (the set of
	// directions where q exceeds the hull's support function). Its start is
	// the unique beaten direction whose predecessor is not beaten.
	for _, p := range h.pieces {
		if !h.beats(q, p.start-1) {
			lo = p.start
			// Validate contiguity at the far end; a violation means the
			// summary's support structure is corrupt.
			hi := h.wrap(lo + total - 1)
			if !h.beats(q, hi) || h.beats(q, hi+1) {
				panic("fixeddir: beaten directions not contiguous")
			}
			return lo, total, true
		}
	}
	panic("fixeddir: no start of beaten range found")
}

// beatenWithin appends to h.pieces the sub-ranges of the coverage window
// [s..e] (circular) in which q beats the vertex point v: the directions u
// with (q−v)·u > 0, an open half-circle around angle(q−v). Within the
// window the beaten set is that half-circle's intersection with the
// window, which has at most one run touching each window end plus at most
// one interior run; the scans below cost O(1 + beaten).
func (h *Hull) beatenWithin(q, v geom.Point, s, e int) (total int) {
	d := q.Sub(v)
	if d.X == 0 && d.Y == 0 {
		return 0
	}
	span := h.wrap(e-s) + 1
	beat := func(off int) bool {
		if off < 0 || off >= span {
			return false
		}
		j := h.wrap(s + off)
		return robust.CmpDot(q, v, h.units[j]) > 0
	}
	// Leading run (touching the window start).
	lead := 0
	for lead < span && beat(lead) {
		lead++
	}
	if lead > 0 {
		h.pieces = append(h.pieces, piece{start: s, count: lead})
		total += lead
	}
	if lead == span {
		return total
	}
	// Trailing run (touching the window end).
	trail := span
	for trail > lead && beat(trail-1) {
		trail--
	}
	if trail < span {
		h.pieces = append(h.pieces, piece{start: h.wrap(s + trail), count: span - trail})
		total += span - trail
	}
	// Interior run: if one exists it contains the sampled direction
	// nearest to angle(q−v) (the direction along which q exceeds v the
	// most). Locate it approximately and confirm exactly.
	c := geom.NormalizeAngle(d.Angle())
	nearest := h.nearestIndex(c)
	for _, j := range []int{nearest, h.wrap(nearest - 1), h.wrap(nearest + 1)} {
		off := h.wrap(j - s)
		if off <= lead || off >= trail-1 || !beat(off) {
			continue
		}
		lo, hi := off, off
		for lo-1 > lead-1 && beat(lo-1) {
			lo--
		}
		for hi+1 < trail && beat(hi+1) {
			hi++
		}
		// Exclude any overlap with the runs already recorded.
		if lo < lead {
			lo = lead
		}
		if hi >= trail {
			hi = trail - 1
		}
		if lo <= hi {
			h.pieces = append(h.pieces, piece{start: h.wrap(s + lo), count: hi - lo + 1})
			total += hi - lo + 1
		}
		break
	}
	return total
}

// nearestIndex returns the direction index whose angle is closest to a.
func (h *Hull) nearestIndex(a float64) int {
	i := sort.SearchFloat64s(h.angles, a)
	// Candidates: i−1, i (mod m); compare cyclic distances.
	c1 := h.wrap(i - 1)
	c2 := h.wrap(i)
	if geom.AngleDist(h.angles[c1], a) <= geom.AngleDist(h.angles[c2], a) {
		return c1
	}
	return c2
}

// apply splices q into the vertex list as the extremum for directions
// [lo..hi] and recomputes the perimeter. All circular-interval decisions
// are made in offsets relative to lo, where the beaten range is [0..B].
func (h *Hull) apply(q geom.Point, lo, hi, count int) {
	m := len(h.angles)
	if count >= m {
		h.verts = h.verts[:0]
		h.verts = append(h.verts, vertexRec{start: 0, pt: q})
		h.recomputePerimeter()
		return
	}
	B := count - 1 // beaten range in lo-offsets: [0..B]

	if len(h.verts) == 1 {
		// One record covers the whole circle. Whatever part q beats, the
		// survivor's remaining coverage [hi+1 .. lo−1] is circularly
		// contiguous, so re-keying it to hi+1 is always correct.
		old := h.verts[0].pt
		h.verts = h.verts[:0]
		h.verts = append(h.verts, vertexRec{start: lo, pt: q}, vertexRec{start: h.wrap(hi + 1), pt: old})
		sort.Slice(h.verts, func(i, j int) bool { return h.verts[i].start < h.verts[j].start })
		h.recomputePerimeter()
		return
	}

	// Split case: the record covering lo starts before lo and also covers
	// past hi, so its coverage is cut into two non-adjacent arcs by q and
	// the record must be duplicated after q. For ≥ 3 points in genuinely
	// convex position this cannot happen (a vertex's normal cone is
	// contiguous); it is reachable only through exact-tie degeneracies, so
	// the structure is flagged to use the exact linear path from then on.
	splitRec := vertexRec{start: -1}
	cov := h.coveringIdx(lo)
	if h.verts[cov].start != lo {
		covEndOff := h.wrap(h.coverageEnd(cov) - lo)
		if covEndOff > B {
			splitRec = vertexRec{start: h.wrap(hi + 1), pt: h.verts[cov].pt}
			h.degenerate = true
		}
	}

	next := make([]vertexRec, 0, len(h.verts)+2)
	for i, v := range h.verts {
		offS := h.wrap(v.start - lo)
		offE := h.wrap(h.coverageEnd(i) - lo)
		switch {
		case offS <= B && offE <= B && offS <= offE:
			// Entire coverage inside the beaten range: drop the record.
			continue
		case offS <= B:
			// Coverage starts inside the beaten range but continues past
			// hi: re-key the record to just after the range.
			next = append(next, vertexRec{start: h.wrap(hi + 1), pt: v.pt})
		default:
			// Coverage starts outside the beaten range. If its tail is
			// beaten that is handled implicitly by q's new record.
			next = append(next, v)
		}
	}
	next = append(next, vertexRec{start: lo, pt: q})
	if splitRec.start >= 0 {
		next = append(next, splitRec)
	}
	sort.Slice(next, func(i, j int) bool { return next[i].start < next[j].start })
	h.verts = next
	h.recomputePerimeter()
}

func (h *Hull) recomputePerimeter() {
	vs := h.VerticesCCW()
	switch len(vs) {
	case 0, 1:
		h.perim = 0
		return
	}
	var p float64
	for i := range vs {
		p += vs[i].Dist(vs[(i+1)%len(vs)])
	}
	h.perim = p
}
