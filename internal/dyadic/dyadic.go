// Package dyadic provides exact integer arithmetic on the sample directions
// of the adaptive hull.
//
// Hershberger–Suri choose every sample direction by hierarchical bisection:
// each direction is j·θ0/2^i for θ0 = 2π/r (§5.3, "each sample direction θ
// can be expressed as a multiple of θ0/2^i for some i"). We therefore
// represent a direction as an integer index in a fixed-point space with 2^k
// units per uniform gap, where k is the refinement-tree height limit
// (§5.1). Bisection, alignment, the paper's index(θ), and gap membership
// all become exact integer operations, so no floating-point drift can
// corrupt the refinement-tree structure.
package dyadic

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/streamgeom/streamhull/geom"
)

// Space describes the direction index space for a given sample parameter r
// and refinement height limit k. Indices run in [0, Units): index t
// corresponds to the angle 2π·t/Units, and uniform direction j corresponds
// to index j·2^k.
type Space struct {
	R     int    // number of uniform directions (r in the paper)
	K     uint   // refinement-tree height limit (k ≤ log2 r)
	Scale uint64 // 2^K: index units per uniform gap
	Units uint64 // R * Scale: index units on the whole circle
}

// NewSpace returns the direction space for r uniform directions and height
// limit k. It panics if r < 3 or k > 62−log2(r) (far beyond any practical
// configuration).
func NewSpace(r int, k uint) Space {
	if r < 3 {
		panic(fmt.Sprintf("dyadic: r = %d < 3", r))
	}
	if k > 32 {
		panic(fmt.Sprintf("dyadic: height limit k = %d too large", k))
	}
	scale := uint64(1) << k
	return Space{R: r, K: k, Scale: scale, Units: uint64(r) * scale}
}

// DefaultHeight returns the paper's recommended height limit k = ⌊log2 r⌋
// (§5.3: "To minimize running time and maximize accuracy, we choose
// k = log2 r").
func DefaultHeight(r int) uint {
	if r < 2 {
		return 0
	}
	return uint(bits.Len(uint(r)) - 1)
}

// Uniform returns the index of uniform direction j (0 ≤ j < r).
func (s Space) Uniform(j int) uint64 { return uint64(j) * s.Scale }

// IsUniform reports whether the index is one of the r uniform directions.
func (s Space) IsUniform(t uint64) bool { return t%s.Scale == 0 }

// Gap returns the uniform gap [j·θ0, (j+1)·θ0) containing the index.
func (s Space) Gap(t uint64) int { return int(t / s.Scale) }

// Angle returns the direction angle in radians for an index. Indices ≥
// Units are taken modulo the full circle, so callers may pass "unwrapped"
// interval endpoints.
func (s Space) Angle(t uint64) float64 {
	return geom.TwoPi * float64(t%s.Units) / float64(s.Units)
}

// UnitVector returns the unit vector of the direction at index t.
func (s Space) UnitVector(t uint64) geom.Point { return geom.Unit(s.Angle(t)) }

// Theta0 returns θ0 = 2π/r.
func (s Space) Theta0() float64 { return geom.TwoPi / float64(s.R) }

// Index returns the paper's index(θ) for the direction at t: the smallest i
// such that the direction is a multiple of θ0/2^i (§5.3).
func (s Space) Index(t uint64) uint {
	t %= s.Units
	tz := uint(bits.TrailingZeros64(t | s.Units)) // t==0 → trailing zeros of Units ≥ K
	if tz >= s.K {
		return 0
	}
	return s.K - tz
}

// Depth returns the refinement depth of the dyadic interval [lo, hi): the
// number of bisections applied to a uniform gap to obtain it. The interval
// endpoints may be unwrapped (hi may exceed Units for the gap that crosses
// zero). It panics if the width is not a power-of-two fraction of a gap.
func (s Space) Depth(lo, hi uint64) uint {
	w := hi - lo
	if w == 0 || w > s.Scale || s.Scale%w != 0 || bits.OnesCount64(w) != 1 {
		panic(fmt.Sprintf("dyadic: invalid interval width %d (scale %d)", w, s.Scale))
	}
	return uint(bits.TrailingZeros64(s.Scale)) - uint(bits.TrailingZeros64(w))
}

// Mid returns the bisection midpoint of the dyadic interval [lo, hi).
// It panics if the interval cannot be bisected (width ≤ 1 unit).
func (s Space) Mid(lo, hi uint64) uint64 {
	if hi-lo < 2 {
		panic("dyadic: interval too narrow to bisect")
	}
	return lo + (hi-lo)/2
}

// Wrap reduces an unwrapped index to [0, Units).
func (s Space) Wrap(t uint64) uint64 { return t % s.Units }

// CCWDist returns the counterclockwise index distance from a to b,
// in [0, Units).
func (s Space) CCWDist(a, b uint64) uint64 {
	a, b = a%s.Units, b%s.Units
	if b >= a {
		return b - a
	}
	return s.Units - a + b
}

// InOpenCCW reports whether index t lies strictly inside the
// counterclockwise open interval (lo, hi); the interval may wrap.
func (s Space) InOpenCCW(t, lo, hi uint64) bool {
	g := s.CCWDist(lo, hi)
	d := s.CCWDist(lo, t)
	return d > 0 && d < g
}

// AngleToNearestIdx converts an arbitrary angle (radians) to the nearest
// direction index, rounding to the nearest unit. Boundary decisions made
// from this conversion are approximate; callers must confirm them with
// exact point predicates.
func (s Space) AngleToNearestIdx(theta float64) uint64 {
	f := geom.NormalizeAngle(theta) / geom.TwoPi * float64(s.Units)
	t := uint64(math.Round(f))
	return t % s.Units
}
