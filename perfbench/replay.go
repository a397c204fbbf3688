package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/fanin"
)

// Replays time the pure layers on exactly what the traced run recorded,
// through the layers' public functions: the handler's JSON decode on the
// POST bodies, InsertBatch on the logged batches, SummaryFromCheckpoint
// on the sealed checkpoints, the read cache's rebuild, and the fan-in
// delta encode, apply and re-merge on the follower pushes.

// maxReplays bounds each replay's sample so a traced run stays short.
const maxReplays = 1000

// allocCounter measures heap allocations between start and stop.
type allocCounter struct{ before runtime.MemStats }

func (a *allocCounter) start() { runtime.ReadMemStats(&a.before) }

func (a *allocCounter) stop() uint64 {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - a.before.Mallocs
}

// spread picks at most n items evenly from xs.
func spread[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// pointsRequest mirrors the body type the server's points handler decodes.
type pointsRequest struct {
	Points [][2]float64 `json:"points"`
}

// replayDecode re-runs the points handler's decode on POST bodies and
// returns ns per point.
func replayDecode(bodies [][]byte) float64 {
	var pts int
	var busy time.Duration
	for _, b := range spread(bodies, maxReplays) {
		var req pointsRequest
		start := time.Now()
		err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
		busy += time.Since(start)
		if err != nil {
			panic(err) // the benchmark encoded these bodies itself
		}
		pts += len(req.Points)
	}
	if pts == 0 {
		return 0
	}
	return float64(busy.Nanoseconds()) / float64(pts)
}

// replayEncode re-runs the server's response encode (a JSON encoder over
// a map, as its writeJSON does) on the recorded read answers and returns
// µs per answer.
func replayEncode(bodies [][]byte) float64 {
	var busy time.Duration
	for _, b := range bodies {
		v := answerValue(b)
		start := time.Now()
		_ = json.NewEncoder(io.Discard).Encode(v)
		busy += time.Since(start)
	}
	if len(bodies) == 0 {
		return 0
	}
	return float64(busy.Nanoseconds()) / 1e3 / float64(len(bodies))
}

// answerValue rebuilds the value a read handler encoded from its answer:
// a hull or a diameter.
func answerValue(body []byte) map[string]any {
	var h struct {
		Vertices  [][2]float64 `json:"vertices"`
		Area      float64      `json:"area"`
		Perimeter float64      `json:"perimeter"`
		N         int          `json:"n"`
		Diameter  *float64     `json:"diameter"`
		Pair      [][2]float64 `json:"pair"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		panic(err) // the answer checks already decoded these
	}
	if h.Diameter != nil {
		return map[string]any{"diameter": *h.Diameter, "pair": h.Pair}
	}
	return map[string]any{"vertices": h.Vertices, "area": h.Area, "perimeter": h.Perimeter, "n": h.N}
}

// insertReplay is the summary layer's insert cost on the logged batches.
type insertReplay struct {
	nsPerPt        float64
	allocsPerBatch float64
	discardRatio   float64
}

// replayInsert replays every stream's logged batches, in order, into a
// fresh adaptive summary, timing the batches logged in the measured
// phase.
func replayInsert(batches []recordedBatch, r int) insertReplay {
	byKey := make(map[string][]recordedBatch)
	var keys []string
	for _, b := range batches {
		if _, ok := byKey[b.key]; !ok {
			keys = append(keys, b.key)
		}
		byKey[b.key] = append(byKey[b.key], b)
	}
	var (
		busy          time.Duration
		pts, nBatches int
		allocs        uint64
		discarded     int
		processed     int
		ac            allocCounter
	)
	for _, k := range keys {
		sum := streamhull.NewAdaptive(r)
		bs := byKey[k]
		i := 0
		for ; i < len(bs) && bs[i].phase != "measured"; i++ {
			mustInsert(sum, bs[i].pts)
		}
		ac.start()
		start := time.Now()
		for ; i < len(bs) && bs[i].phase == "measured"; i++ {
			mustInsert(sum, bs[i].pts)
			pts += len(bs[i].pts)
			nBatches++
		}
		busy += time.Since(start)
		allocs += ac.stop()
		st := sum.Stats()
		discarded += st.Discarded
		processed += st.Points
	}
	var out insertReplay
	if pts > 0 {
		out.nsPerPt = float64(busy.Nanoseconds()) / float64(pts)
		out.allocsPerBatch = float64(allocs) / float64(nBatches)
	}
	if processed > 0 {
		out.discardRatio = float64(discarded) / float64(processed)
	}
	return out
}

func mustInsert(sum *streamhull.AdaptiveHull, pts []geom.Point) {
	if _, err := sum.InsertBatch(pts); err != nil {
		panic(err) // the server accepted the same batch
	}
}

// restoreReplay is the cost of bringing checkpoints back and sealing new
// ones, and of the read cache's first materialization on them.
type restoreReplay struct {
	restoreMs, restoreAllocs float64
	snapshotUs               float64
	rebuildUs, rebuildAllocs float64
	count                    int
}

// replayRestore restores each checkpoint payload the way a Load or a
// checkpoint re-base does (SummaryFromCheckpoint), then times Snapshot +
// MarshalBinary on the result — the next checkpoint's encode — and, when
// withRebuild, the read cache's first materialization (a diameter
// query, as coldfleet's reads ask).
func replayRestore(ckpts []recordedCheckpoint, r int, withRebuild bool) (restoreReplay, error) {
	spec := streamhull.Spec{Kind: streamhull.KindAdaptive, R: r}
	var out restoreReplay
	var restore, snap, rebuild time.Duration
	var rAllocs, bAllocs uint64
	var ac allocCounter
	for _, c := range spread(ckpts, maxReplays) {
		ac.start()
		start := time.Now()
		sum, err := streamhull.SummaryFromCheckpoint(spec, c.data)
		restore += time.Since(start)
		rAllocs += ac.stop()
		if err != nil {
			return out, fmt.Errorf("restoring a recorded checkpoint of %s: %w", c.key, err)
		}
		start = time.Now()
		if _, err := sum.(streamhull.Snapshotter).Snapshot().MarshalBinary(); err != nil {
			return out, err
		}
		snap += time.Since(start)
		if withRebuild {
			ac.start()
			start = time.Now()
			streamhull.NewQueryCache(sum).Diameter()
			rebuild += time.Since(start)
			bAllocs += ac.stop()
		}
		out.count++
	}
	if out.count == 0 {
		return out, nil
	}
	n := float64(out.count)
	out.restoreMs = float64(restore.Nanoseconds()) / 1e6 / n
	out.restoreAllocs = float64(rAllocs) / n
	out.snapshotUs = float64(snap.Nanoseconds()) / 1e3 / n
	if withRebuild {
		out.rebuildUs = float64(rebuild.Nanoseconds()) / 1e3 / n
		out.rebuildAllocs = float64(bAllocs) / n
	}
	return out, nil
}

// faninReplay is the fan-in layer's cost per measured push.
type faninReplay struct {
	encodeUs, applyUs        float64
	mergeMs, mergeAllocs     float64
	rebuildUs, rebuildAllocs float64
}

// replayFanIn replays the aggregate workload's follower pushes, in order,
// into fresh aggregates: the follower's delta encode (ComputeDelta +
// EncodeDelta, falling back to the full snapshot when that is smaller,
// as fanin.Pusher does), the aggregator's apply (decode + push), the
// re-merge the next read triggers, and the read cache's fold of the
// merged hull.
func replayFanIn(sc *aggScenario, measuredOps int) (faninReplay, error) {
	aggs := make([]*streamhull.FanInHull, len(sc.ids))
	for i := range aggs {
		a, err := streamhull.NewFanIn(r)
		if err != nil {
			return faninReplay{}, err
		}
		aggs[i] = a
	}
	type acked struct {
		epoch uint64
		pts   []geom.Point
	}
	base := make(map[[2]int]acked)
	var (
		epoch                      uint64
		enc, apply, merge, rebuild time.Duration
		mAllocs, bAllocs           uint64
		n                          int
		ac                         allocCounter
	)
	for i, p := range sc.pushes {
		measured := i >= len(sc.pushes)-measuredOps
		epoch++
		agg := aggs[p.agg]
		src := sc.sources[p.src]
		key := [2]int{p.src, p.agg}
		start := time.Now()
		var frame []byte
		if b, ok := base[key]; ok {
			frame = fanin.EncodeDelta(fanin.ComputeDelta(b.epoch, epoch, p.snap.N, b.pts, p.snap.Points))
			if len(frame) >= len(p.snap.Data) {
				frame = nil
			}
		}
		encoded := time.Since(start)
		start = time.Now()
		if frame != nil {
			d, err := fanin.DecodeDelta(frame)
			if err == nil {
				err = agg.PushDelta(src, d)
			}
			if err != nil {
				return faninReplay{}, err
			}
		} else {
			snap, err := streamhull.DecodeSnapshot(p.snap.Data)
			if err == nil {
				err = agg.Push(src, epoch, snap)
			}
			if err != nil {
				return faninReplay{}, err
			}
		}
		applied := time.Since(start)
		base[key] = acked{epoch: epoch, pts: p.snap.Points}
		if !measured {
			continue
		}
		ac.start()
		start = time.Now()
		agg.SampleSize() // forces the re-merge a read after a push pays
		merge += time.Since(start)
		mAllocs += ac.stop()
		ac.start()
		start = time.Now()
		streamhull.NewQueryCache(agg).Hull()
		rebuild += time.Since(start)
		bAllocs += ac.stop()
		enc += encoded
		apply += applied
		n++
	}
	if n == 0 {
		return faninReplay{}, nil
	}
	f := float64(n)
	return faninReplay{
		encodeUs: float64(enc.Nanoseconds()) / 1e3 / f, applyUs: float64(apply.Nanoseconds()) / 1e3 / f,
		mergeMs: float64(merge.Nanoseconds()) / 1e6 / f, mergeAllocs: float64(mAllocs) / f,
		rebuildUs: float64(rebuild.Nanoseconds()) / 1e3 / f, rebuildAllocs: float64(bAllocs) / f,
	}, nil
}

// kernelPoint is one point of a §3.1/§5 cost curve.
type kernelPoint struct {
	r         int
	nsPerPt   float64
	restoreMs float64
	restores  int
}

// kernelRs are the sample parameters of the printed cost curves.
var kernelRs = []int{8, 32, 128, 512, 1024}

// kernelCurves replays one stream's logged batches into adaptive
// summaries of each r in kernelRs, timing InsertBatch per point and,
// every checkpointEvery points, restoring the checkpoint a server would
// have sealed. §5 predicts insert cost growing like log r.
func kernelCurves(batches []recordedBatch, checkpointEvery int) ([]kernelPoint, error) {
	if len(batches) == 0 {
		return nil, nil
	}
	key := batches[0].key
	var mine [][]geom.Point
	for _, b := range batches {
		if b.key == key {
			mine = append(mine, b.pts)
		}
	}
	var out []kernelPoint
	for _, rr := range kernelRs {
		sum := streamhull.NewAdaptive(rr)
		var busy time.Duration
		var pts, since int
		var payloads [][]byte
		for _, b := range mine {
			start := time.Now()
			mustInsert(sum, b)
			busy += time.Since(start)
			pts += len(b)
			since += len(b)
			if since >= checkpointEvery {
				since = 0
				data, err := sum.Snapshot().MarshalBinary()
				if err != nil {
					return nil, err
				}
				payloads = append(payloads, data)
			}
		}
		kp := kernelPoint{r: rr, nsPerPt: float64(busy.Nanoseconds()) / float64(pts), restores: len(payloads)}
		spec := streamhull.Spec{Kind: streamhull.KindAdaptive, R: rr}
		var restore time.Duration
		for _, data := range payloads {
			start := time.Now()
			if _, err := streamhull.SummaryFromCheckpoint(spec, data); err != nil {
				return nil, err
			}
			restore += time.Since(start)
		}
		if len(payloads) > 0 {
			kp.restoreMs = float64(restore.Nanoseconds()) / 1e6 / float64(len(payloads))
		}
		out = append(out, kp)
	}
	return out, nil
}
