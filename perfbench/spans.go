package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded from outside the
// program: the client's round trip, Server.ServeHTTP, and the calls the
// server makes into the decorated store and auth provider.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Req    int    `json:"req,omitempty"`    // client request id; 0 = none
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. The harness is a
// closed loop over one connection, so at most one request is inside the
// server at a time; the store and auth decorators therefore parent their
// spans on the ServeHTTP span currently open, which the wrapping handler
// publishes in cur.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	phase string
	cur   int // open ServeHTTP span id, 0 when none
	curRq int // its request id
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), phase: "setup"} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) setPhase(p string) {
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent, req int, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Phase: r.phase, Start: start, End: end})
	return id
}

// reserve allocates a span id for a span that is still open, so its
// children can name it as their parent before it ends.
func (r *recorder) reserve(name string, parent, req int, start int64) int {
	return r.add(name, parent, req, start, start)
}

// root opens a request's root span; its id is the request id.
func (r *recorder) root(name string, start int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Req: id, Name: name, Phase: r.phase, Start: start, End: start})
	return id
}

func (r *recorder) currentPhase() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase
}

func (r *recorder) finish(id int, end int64) {
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// enter/leave bracket one ServeHTTP call.
func (r *recorder) enter(id, req int) {
	r.mu.Lock()
	r.cur, r.curRq = id, req
	r.mu.Unlock()
}

func (r *recorder) leave() {
	r.mu.Lock()
	r.cur, r.curRq = 0, 0
	r.mu.Unlock()
}

// child records a span under the open ServeHTTP span, if any.
func (r *recorder) child(name string, start, end int64) {
	r.mu.Lock()
	parent, req := r.cur, r.curRq
	r.mu.Unlock()
	r.add(name, parent, req, start, end)
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes the spans one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children may overlap
// each other or stick out of the parent; only the covered part of the
// parent's own interval is subtracted, once.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns how much of [start, end) the union of the children's
// intervals covers.
func covered(start, end int64, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, start), min(c.End, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerRow is one line of the per-layer table: how many spans a layer
// had, their total time, and their total self time.
type layerRow struct {
	Name       string
	Count      int
	Busy, Self time.Duration
	MeanBusyUs float64
	MeanSelfUs float64
}

// layerTable folds the spans of one phase into per-name rows, sorted by
// busy time, longest first.
func layerTable(spans []span, phase string) []layerRow {
	self := selfTimes(spans)
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		if s.Phase != phase {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Busy += time.Duration(s.dur())
		r.Self += time.Duration(self[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.MeanBusyUs = float64(r.Busy.Nanoseconds()) / 1e3 / float64(r.Count)
		r.MeanSelfUs = float64(r.Self.Nanoseconds()) / 1e3 / float64(r.Count)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Busy > out[j].Busy })
	return out
}
