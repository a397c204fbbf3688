package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/streamgeom/streamhull/internal/server"
	"github.com/streamgeom/streamhull/internal/store"
	"github.com/streamgeom/streamhull/internal/workload"
)

// StorePoint is what the cold-tier storage sweep measures: a server
// owning far more streams than its residency cap.
type StorePoint struct {
	HeapPerCold float64 // bytes of heap per stream beyond the hot set
	Resident    int     // summaries actually warm at the end
	RehydrateUs float64 // mean cold-touch rehydration latency, µs
	EvictTotal  float64 // lifetime evictions
}

// StoreSweep builds a server on the in-memory store with a MaxResident
// cap far below the stream count, so heap growth is the storage cost.
// It fills the server with streams (each ingesting pointsPer points
// through the real HTTP handler), then touches streams that went cold.
// It demonstrates the cold tier's claim: resident memory is
// O(hot·summary + streams·r_bytes) — the paper's O(r) checkpoint is
// what makes the per-cold-stream term a few hundred bytes — rather than
// O(streams·summary).
func StoreSweep(streams, hot, pointsPer, r int, seed int64) (*StorePoint, error) {
	srv, err := server.New(server.Config{
		DefaultR:    r,
		MaxStreams:  streams + 8,
		MaxResident: hot,
		Store:       store.NewMemory(),
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// One shared ingest body: per-stream point identity is irrelevant to
	// a memory experiment, and encoding once keeps the fill phase
	// measuring the server, not the client.
	pts := workload.Take(workload.Ellipse(seed, 1, 0.6, 0.3), pointsPer)
	body := struct {
		Points [][2]float64 `json:"points"`
	}{Points: make([][2]float64, len(pts))}
	for i, p := range pts {
		body.Points[i] = [2]float64{p.X, p.Y}
	}
	ingestBody, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%07d", i)
		req := httptest.NewRequest("POST", "/v1/streams/"+id+"/points",
			bytes.NewReader(ingestBody))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != 200 {
			return nil, fmt.Errorf("ingest %s: %d %s", id, w.Code, w.Body.String())
		}
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)

	// Rehydration latency: touch streams guaranteed cold (the oldest,
	// untouched since the fill pushed them out of the hot set).
	sample := min(64, streams-hot)
	rehydrate := time.Duration(0)
	for i := 0; i < sample; i++ {
		id := fmt.Sprintf("s%07d", i)
		t0 := time.Now()
		req := httptest.NewRequest("GET", "/v1/streams/"+id+"/hull", nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != 200 {
			return nil, fmt.Errorf("rehydrating %s: %d %s", id, w.Code, w.Body.String())
		}
		rehydrate += time.Since(t0)
	}

	p := &StorePoint{Resident: srv.ResidentStreams(), EvictTotal: srv.Evictions()}
	if cold := streams - hot; cold > 0 {
		p.HeapPerCold = heap / float64(cold)
	}
	if sample > 0 {
		p.RehydrateUs = float64(rehydrate.Microseconds()) / float64(sample)
	}
	return p, nil
}
