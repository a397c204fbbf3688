package main

import (
	"math"
	"strconv"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

// Every workload's points come from the repository's drift generator: a
// disk whose centre moves steadily, so the hull keeps changing and a
// fresh batch keeps finding new extremes (a moving vehicle fleet). Each
// stream has its own generator, seeded from the run's seed and the
// stream's index.

const (
	driftRadius = 1.0
	// driftStep moves the centre per point: about one radius every
	// 500k points, so a stream's hull stretches over a run.
	driftStepX = 2e-6
	driftStepY = 1e-6
)

// stream is one seeded point source. Coordinates are rounded to 1e-9 so
// their JSON text stays short; the server parses back the same float64s
// the client holds, which the answer checks rely on.
type stream struct {
	gen workload.Generator
}

func newStream(seed int64, index int) *stream {
	return &stream{gen: workload.Drift(seed*1_000_003+int64(index)*7919, driftRadius,
		geom.Pt(driftStepX, driftStepY))}
}

func (s *stream) next(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := s.gen.Next()
		pts[i] = geom.Pt(math.Round(p.X*1e9)/1e9, math.Round(p.Y*1e9)/1e9)
	}
	return pts
}

// pointsBody encodes a batch as the JSON body POST /points takes.
func pointsBody(pts []geom.Point) []byte {
	b := make([]byte, 0, 12+len(pts)*28)
	b = append(b, `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, p.X, 'f', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, p.Y, 'f', -1, 64)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// truth is what the client knows about one stream it fed: how many
// points it sent, their exact hull, and the set of the points
// themselves.
type truth struct {
	n     int
	exact hullAccumulator
	sent  pointSet
}

func (t *truth) add(pts []geom.Point) {
	t.n += len(pts)
	t.exact.add(pts)
	t.sent.add(pts)
}
