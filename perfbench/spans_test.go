package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "http.client", Start: 0, End: 100},
		// ServeHTTP inside the round trip.
		{ID: 2, Parent: 1, Name: "server.ServeHTTP", Start: 10, End: 90},
		// Two overlapping children [20,40) ∪ [30,50) cover 30, and one
		// sticking out past the parent's end covers only [80,90).
		{ID: 3, Parent: 2, Name: "store.Append", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "auth.Authenticate", Start: 30, End: 50},
		{ID: 5, Parent: 2, Name: "store.Checkpoint", Start: 80, End: 95},
		// A grandchild is its parent's business, not ServeHTTP's.
		{ID: 6, Parent: 3, Name: "inner", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 40, 3: 10, 4: 20, 5: 15, 6: 10} {
		if self[id] != want {
			t.Errorf("span %d self time = %d, want %d", id, self[id], want)
		}
	}
}

func TestLayerTableGroupsByNameWithinAPhase(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "server.ServeHTTP", Phase: "measured", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "store.Append", Phase: "measured", Start: 2, End: 6},
		{ID: 3, Name: "server.ServeHTTP", Phase: "measured", Start: 20, End: 40},
		{ID: 4, Name: "server.ServeHTTP", Phase: "setup", Start: 50, End: 90},
	}
	rows := layerTable(spans, "measured")
	if len(rows) != 2 || rows[0].Name != "server.ServeHTTP" {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.Count != 2 || r.Busy != 30 || r.Self != 26 {
		t.Errorf("ServeHTTP row = count %d busy %d self %d, want 2, 30, 26", r.Count, r.Busy, r.Self)
	}
}

func TestRecorderParentsChildrenOnTheOpenRequest(t *testing.T) {
	rec := newRecorder()
	root := rec.root("http.client", 0)
	srv := rec.reserve("server.ServeHTTP", root, root, 1)
	rec.enter(srv, root)
	rec.child("store.Append", 2, 3)
	rec.leave()
	rec.child("store.Close", 4, 5) // outside any request
	rec.finish(srv, 6)
	rec.finish(root, 7)
	got := rec.snapshot()
	if got[2].Parent != srv || got[2].Req != root {
		t.Errorf("in-request child = %+v, want parent %d req %d", got[2], srv, root)
	}
	if got[3].Parent != 0 || got[3].Req != 0 {
		t.Errorf("out-of-request child = %+v, want no parent", got[3])
	}
	if got[0].Req != root || got[0].End != 7 || got[1].End != 6 {
		t.Errorf("spans = %+v", got)
	}
}
