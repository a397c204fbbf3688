package main

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/streamgeom/streamhull/geom"
)

func TestErrRelSquareAgainstDiamond(t *testing.T) {
	square := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	diamond := []geom.Point{geom.Pt(0.5, 0), geom.Pt(1, 0.5), geom.Pt(0.5, 1), geom.Pt(0, 0.5)}
	if got := errRel(square, diamond); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("errRel(square, diamond) = %v, want 0.25", got)
	}
	if got := errRel(square, square); got != 0 {
		t.Errorf("errRel(square, square) = %v, want 0", got)
	}
}

func TestConvexHull(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2),
		geom.Pt(1, 1), geom.Pt(1, 0), geom.Pt(0, 0), // interior, collinear, duplicate
	}
	h := convexHull(pts)
	want := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2)}
	if len(h) != len(want) {
		t.Fatalf("hull = %v, want %v", h, want)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("hull = %v, want %v (counter-clockwise from the lowest-leftmost)", h, want)
		}
	}
	var acc hullAccumulator
	acc.add(pts[:3])
	acc.add(pts[3:])
	if len(acc.hull) != 4 {
		t.Errorf("accumulated hull = %v", acc.hull)
	}
}

func TestDistToConvex(t *testing.T) {
	sq := convexHull([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)})
	for _, tc := range []struct {
		p    geom.Point
		want float64
	}{
		{geom.Pt(0.5, 0.5), 0}, {geom.Pt(1, 0.5), 0}, {geom.Pt(2, 0.5), 1}, {geom.Pt(2, 2), math.Sqrt2},
	} {
		if got := distToConvex(tc.p, sq); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("distToConvex(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := distToConvex(geom.Pt(0, 3), []geom.Point{geom.Pt(0, 0), geom.Pt(0, 1)}); got != 2 {
		t.Errorf("distance to a segment = %v, want 2", got)
	}
}

func TestPointSet(t *testing.T) {
	var s pointSet
	s.add([]geom.Point{geom.Pt(1, 2), geom.Pt(-0.5, 3e-9)})
	s.seal()
	if !s.has(geom.Pt(1, 2)) || !s.has(geom.Pt(-0.5, 3e-9)) {
		t.Error("sent points not found")
	}
	if s.has(geom.Pt(2, 1)) || s.has(geom.Pt(1, 2.0000000001)) {
		t.Error("unsent point found")
	}
}

func TestPointsBodyRoundTripsExactly(t *testing.T) {
	src := newStream(7, 3)
	pts := src.next(64)
	var req pointsRequest
	if err := json.Unmarshal(pointsBody(pts), &req); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if req.Points[i] != [2]float64{p.X, p.Y} {
			t.Fatalf("point %d: decoded %v, sent %v", i, req.Points[i], p)
		}
	}
}

func TestErrStats(t *testing.T) {
	mean, worst := errStats([]float64{0.1, 0.3, 0.2})
	if math.Abs(mean-0.2) > 1e-15 || worst != 0.3 {
		t.Errorf("errStats = %v, %v; want 0.2, 0.3", mean, worst)
	}
	if mean, worst := errStats(nil); mean != 0 || worst != 0 {
		t.Errorf("errStats(nil) = %v, %v", mean, worst)
	}
}
