package experiments

import (
	"os"
	"testing"
)

// TestStoreSmokeRSSBound is the cold-tier memory check CI runs on every
// push: 50k streams created against a 500-stream residency cap,
// asserting the cold tier's memory claim — resident count pinned at the
// cap, and heap per cold stream bounded by the O(r) checkpoint size (a
// few hundred bytes of sample plus map/bookkeeping overhead), not by a
// full summary.
//
// The fill takes ~30s, so the test only runs when STREAMHULL_STORE_SMOKE
// is set; CI gives it its own step (see .github/workflows/ci.yml).
func TestStoreSmokeRSSBound(t *testing.T) {
	if os.Getenv("STREAMHULL_STORE_SMOKE") == "" {
		t.Skip("set STREAMHULL_STORE_SMOKE=1 to run the 50k-stream smoke")
	}
	const (
		streams = 50_000
		hot     = 500
	)
	p, err := StoreSweep(streams, hot, 32, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", *p)

	if p.Resident > hot {
		t.Errorf("resident %d exceeds cap %d", p.Resident, hot)
	}
	if p.EvictTotal == 0 {
		t.Error("no evictions despite streams >> cap; cold tier inactive")
	}
	// Measured ~1.4 KB/cold-stream (r=16 checkpoint + per-stream
	// bookkeeping); 4 KB leaves slack for allocator noise while still
	// failing hard if eviction stops releasing summaries (a warm
	// adaptive summary at r=16 costs tens of KB).
	if p.HeapPerCold > 4096 {
		t.Errorf("heap per cold stream %.0f B exceeds 4 KB bound; evicted streams are not releasing memory", p.HeapPerCold)
	}
	if p.RehydrateUs <= 0 {
		t.Error("no rehydration latency measured")
	}
}
