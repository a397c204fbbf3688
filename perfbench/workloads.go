package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/fanin"
)

// r is every workload's sample parameter.
const r = 32

// The benchmark's bearer token: every request is authenticated, as in a
// deployed multi-tenant server.
const (
	benchToken  = "perfbench-token"
	benchTokens = benchToken + "=bench:all"
)

// workloadDef describes one workload. rate is the reference host's
// operations per second on it (2 vCPUs, data on ext4); a run's measured
// phase is a fixed seconds×rate operations, so runs of the same seed
// repeat the same work exactly instead of however much fits in the time.
type workloadDef struct {
	name string
	rate float64
	// span stretches the measured phase to span×seconds, so that the
	// write p99 can be taken over more than one slice of a thousand
	// writes: coldfleet writes on every other operation, and aggregate's
	// writes are sub-millisecond pushes.
	span   float64
	warmup int
	// restarts is how many crash-restarts a run times; recovery_s is
	// their median. Short recoveries (0.1–0.2 s) are repeated more, so a
	// burst of load from elsewhere spoils a few of them, not the median.
	restarts int
	build    func(seed int64, sh shape, measured, warmup int) scenario
}

// shape holds the workloads' sizes. The benchmark runs fullShape; the
// smoke tests shrink it.
type shape struct {
	ingestStreams int
	// ingestPreload batches per stream take every stream past its first
	// checkpoint (hullserver checkpoints every 65536 points).
	ingestPreload int
	coldStreams   int
	coldResident  int
	aggCount      int
	aggPreRounds  int // push rounds before timing
	setups        int // set-ups per run; setup_s is their median
}

var fullShape = shape{
	ingestStreams: 16, ingestPreload: 65,
	coldStreams: 800, coldResident: 80,
	aggCount: 32, aggPreRounds: 8,
	setups: 3,
}

// The workloads and why each is in the benchmark are described in
// README.md and BENCHMARK.json.
var workloads = []workloadDef{
	{name: "ingest", rate: 550, span: 1, warmup: 160, restarts: 9, build: buildIngest},
	{name: "coldfleet", rate: 285, span: 1.5, warmup: 200, restarts: 3, build: buildColdfleet},
	{name: "aggregate", rate: 245, span: 1.5, warmup: 128, restarts: 11, build: buildAggregate},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// opResult is what one operation measured.
type opResult struct {
	write    time.Duration
	read     time.Duration
	hasRead  bool
	readBody []byte // the read's response, when recording
	points   int    // points ingested by the write
	err      error
}

// scenario is a workload's inputs, generated in full from the seed
// before any server starts.
type scenario interface {
	// flags are hullserver's flags beyond -addr; dataDir is "" for
	// in-memory workloads.
	flags(dataDir string) []string
	durable() bool
	ops() int // warm-up plus measured operations
	// counts returns every stream's id and the n it must serve once
	// every operation has been acknowledged.
	counts() (ids []string, n []int)
	// session binds the inputs to one server through c. A session
	// holds the per-server client state (fan-in pushers' acked bases),
	// so each server launch gets a fresh one.
	session(c *client) session
}

type session interface {
	// setup creates the streams and runs the fixed preload.
	setup() error
	// op runs operation i of ops(); record asks for the read's body.
	op(i int, record bool) opResult
	// check verifies every stream's served answer against what the
	// client sent, returning each stream's relative error and any wrong
	// answers.
	check() (errs []float64, wrong []string)
	// restarted brings a freshly restarted server back to serving (the
	// fan-in refill); durable workloads recover on their own.
	restarted() error
}

// verifyHull checks one served hull against the client's truth.
func verifyHull(name string, ans hullAnswer, wantN int, t *truth) (float64, []string) {
	var wrong []string
	if ans.N != wantN {
		wrong = append(wrong, fmt.Sprintf("%s: served n=%d, client sent %d", name, ans.N, wantN))
	}
	served := make([]geom.Point, len(ans.Vertices))
	for i, v := range ans.Vertices {
		served[i] = geom.Pt(v[0], v[1])
		if !t.sent.has(served[i]) {
			wrong = append(wrong, fmt.Sprintf("%s: served vertex %v was never sent", name, served[i]))
			break
		}
	}
	if len(served) == 0 {
		wrong = append(wrong, name+": empty hull")
		return 0, wrong
	}
	return errRel(t.exact.hull, served), wrong
}

// checkCounts compares every stream's n in the stream listing, which
// never rehydrates a cold stream, with what the client sent.
func checkCounts(c *client, sc scenario) []string {
	var list struct {
		Streams []struct {
			ID string `json:"id"`
			N  int    `json:"n"`
		} `json:"streams"`
	}
	if err := c.getJSON("/v1/streams", &list); err != nil {
		return []string{err.Error()}
	}
	served := make(map[string]int, len(list.Streams))
	for _, s := range list.Streams {
		served[s.ID] = s.N
	}
	var wrong []string
	ids, want := sc.counts()
	for i, id := range ids {
		if n, ok := served[id]; !ok || n != want[i] {
			wrong = append(wrong, fmt.Sprintf("%s: listed n=%d (present %v), client sent %d", id, n, ok, want[i]))
		}
	}
	return wrong
}

func truthCounts(ts []*truth) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.n
	}
	return out
}

func checkStreams(c *client, ids []string, truths []*truth) ([]float64, []string) {
	var errs []float64
	var wrong []string
	for i, id := range ids {
		var ans hullAnswer
		if err := c.getJSON("/v1/streams/"+id+"/hull", &ans); err != nil {
			wrong = append(wrong, err.Error())
			continue
		}
		e, w := verifyHull(id, ans, truths[i].n, truths[i])
		wrong = append(wrong, w...)
		errs = append(errs, e)
	}
	return errs, wrong
}

func createStreams(c *client, ids []string) error {
	spec := []byte(fmt.Sprintf(`{"kind":"adaptive","r":%d}`, r))
	for _, id := range ids {
		if _, _, err := c.call(http.MethodPut, "/v1/streams/"+id, spec); err != nil {
			return err
		}
	}
	return nil
}

// ---- ingest ----

const ingestBatch = 1024

type ingestScenario struct {
	ids     []string // op i goes to stream i % len(ids)
	preload [][]byte // round-robin over streams
	bodies  [][]byte
	truths  []*truth
}

func buildIngest(seed int64, sh shape, measured, warmup int) scenario {
	n := roundUp(warmup+measured, sh.ingestStreams)
	sc := &ingestScenario{}
	streams := make([]*stream, sh.ingestStreams)
	for i := range streams {
		streams[i] = newStream(seed, i)
		sc.ids = append(sc.ids, fmt.Sprintf("s%02d", i))
		sc.truths = append(sc.truths, &truth{})
	}
	batch := func(i int) []byte {
		pts := streams[i].next(ingestBatch)
		sc.truths[i].add(pts)
		return pointsBody(pts)
	}
	for k := 0; k < sh.ingestPreload*sh.ingestStreams; k++ {
		sc.preload = append(sc.preload, batch(k%sh.ingestStreams))
	}
	for k := 0; k < n; k++ {
		sc.bodies = append(sc.bodies, batch(k%sh.ingestStreams))
	}
	for _, t := range sc.truths {
		t.sent.seal()
	}
	return sc
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

func (sc *ingestScenario) flags(dataDir string) []string {
	return []string{"-data", dataDir, "-auth-tokens", benchTokens}
}
func (sc *ingestScenario) durable() bool { return true }
func (sc *ingestScenario) ops() int      { return len(sc.bodies) }
func (sc *ingestScenario) counts() ([]string, []int) {
	return sc.ids, truthCounts(sc.truths)
}
func (sc *ingestScenario) session(c *client) session {
	return &ingestSession{sc: sc, c: c}
}

type ingestSession struct {
	sc *ingestScenario
	c  *client
}

func (s *ingestSession) setup() error {
	if err := createStreams(s.c, s.sc.ids); err != nil {
		return err
	}
	for k, body := range s.sc.preload {
		if _, _, err := s.c.call(http.MethodPost, "/v1/streams/"+s.sc.ids[k%len(s.sc.ids)]+"/points", body); err != nil {
			return err
		}
	}
	return nil
}

func (s *ingestSession) op(i int, _ bool) opResult {
	lat, _, err := s.c.call(http.MethodPost, "/v1/streams/"+s.sc.ids[i%len(s.sc.ids)]+"/points", s.sc.bodies[i])
	return opResult{write: lat, points: ingestBatch, err: err}
}

func (s *ingestSession) check() ([]float64, []string) {
	return checkStreams(s.c, s.sc.ids, s.sc.truths)
}

func (s *ingestSession) restarted() error { return nil }

// ---- coldfleet ----

const (
	coldPreload = 512 // points per stream before timing
	coldBatch   = 32
)

type coldScenario struct {
	ids      []string
	resident int
	preload  [][]byte // one body per stream
	target   []int    // op i touches stream target[i]
	bodies   [][]byte // op i's POST body; nil for a diameter query
	truths   []*truth
}

func buildColdfleet(seed int64, sh shape, measured, warmup int) scenario {
	n := warmup + measured
	sc := &coldScenario{resident: sh.coldResident}
	streams := make([]*stream, sh.coldStreams)
	for i := range streams {
		streams[i] = newStream(seed, i)
		sc.ids = append(sc.ids, fmt.Sprintf("c%04d", i))
		t := &truth{}
		sc.truths = append(sc.truths, t)
		pts := streams[i].next(coldPreload)
		t.add(pts)
		sc.preload = append(sc.preload, pointsBody(pts))
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		i := rng.Intn(len(streams))
		sc.target = append(sc.target, i)
		if k%2 == 1 {
			sc.bodies = append(sc.bodies, nil)
			continue
		}
		pts := streams[i].next(coldBatch)
		sc.truths[i].add(pts)
		sc.bodies = append(sc.bodies, pointsBody(pts))
	}
	for _, t := range sc.truths {
		t.sent.seal()
	}
	return sc
}

func (sc *coldScenario) flags(dataDir string) []string {
	return []string{"-data", dataDir, "-auth-tokens", benchTokens,
		"-max-resident", fmt.Sprint(sc.resident), "-max-streams", fmt.Sprint(len(sc.ids) + 48)}
}
func (sc *coldScenario) durable() bool { return true }
func (sc *coldScenario) ops() int      { return len(sc.target) }
func (sc *coldScenario) counts() ([]string, []int) {
	return sc.ids, truthCounts(sc.truths)
}
func (sc *coldScenario) session(c *client) session {
	return &coldSession{sc: sc, c: c}
}

type coldSession struct {
	sc *coldScenario
	c  *client
}

// setup's first POST to each stream creates it with hullserver's
// default spec (adaptive, r=32), as a sensor joining the fleet would.
func (s *coldSession) setup() error {
	for i, body := range s.sc.preload {
		if _, _, err := s.c.call(http.MethodPost, "/v1/streams/"+s.sc.ids[i]+"/points", body); err != nil {
			return err
		}
	}
	return nil
}

func (s *coldSession) op(i int, record bool) opResult {
	id := s.sc.ids[s.sc.target[i]]
	if body := s.sc.bodies[i]; body != nil {
		lat, _, err := s.c.call(http.MethodPost, "/v1/streams/"+id+"/points", body)
		return opResult{write: lat, points: coldBatch, err: err}
	}
	lat, resp, err := s.c.call(http.MethodGet, "/v1/streams/"+id+"/query?type=diameter", nil)
	res := opResult{read: lat, hasRead: true, err: err}
	if record && err == nil {
		res.readBody = append([]byte(nil), resp...)
	}
	return res
}

func (s *coldSession) check() ([]float64, []string) {
	return checkStreams(s.c, s.sc.ids, s.sc.truths)
}

func (s *coldSession) restarted() error { return nil }

// ---- aggregate ----

const (
	aggSources = 4
	aggStep    = 256 // new follower points between a source's pushes
)

// aggPush is one follower push: source src's snapshot of aggregate agg.
type aggPush struct {
	src, agg int
	snap     fanin.StreamSnapshot
}

type aggScenario struct {
	ids     []string
	sources []string
	pushes  []aggPush // preload rounds, then one per operation
	nPre    int
	truths  []*truth
	wantN   []int                    // per aggregate, after every push
	last    [][]fanin.StreamSnapshot // [src][agg], the final snapshots
}

func buildAggregate(seed int64, sh shape, measured, warmup int) scenario {
	aggCount := sh.aggCount
	sc := &aggScenario{wantN: make([]int, aggCount)}
	type follower struct {
		src *stream
		sum *streamhull.AdaptiveHull
	}
	fol := make([][]follower, aggSources)
	for s := range fol {
		sc.sources = append(sc.sources, fmt.Sprintf("follower%d", s))
		fol[s] = make([]follower, aggCount)
		for a := range fol[s] {
			fol[s][a] = follower{src: newStream(seed, s*aggCount+a), sum: streamhull.NewAdaptive(r)}
		}
		sc.last = append(sc.last, make([]fanin.StreamSnapshot, aggCount))
	}
	for a := 0; a < aggCount; a++ {
		sc.ids = append(sc.ids, fmt.Sprintf("a%02d", a))
		sc.truths = append(sc.truths, &truth{})
	}
	push := func(s, a int) {
		f := fol[s][a]
		pts := f.src.next(aggStep)
		sc.truths[a].add(pts)
		if _, err := f.sum.InsertBatch(pts); err != nil {
			panic(err) // generated points are finite
		}
		snap := f.sum.Snapshot()
		data, err := snap.Encode()
		if err != nil {
			panic(err)
		}
		ss := fanin.StreamSnapshot{Stream: sc.ids[a], R: snap.R, Data: data, N: snap.N, Points: snap.Points}
		sc.pushes = append(sc.pushes, aggPush{src: s, agg: a, snap: ss})
		sc.last[s][a] = ss
	}
	for round := 0; round < sh.aggPreRounds; round++ {
		for a := 0; a < aggCount; a++ {
			for s := 0; s < aggSources; s++ {
				push(s, a)
			}
		}
	}
	sc.nPre = len(sc.pushes)
	for i := 0; i < warmup+measured; i++ {
		push((i/aggCount)%aggSources, i%aggCount)
	}
	for a := range sc.truths {
		sc.truths[a].sent.seal()
		for s := range sc.last {
			sc.wantN[a] += sc.last[s][a].N
		}
	}
	return sc
}

func (sc *aggScenario) flags(string) []string     { return []string{"-auth-tokens", benchTokens} }
func (sc *aggScenario) durable() bool             { return false }
func (sc *aggScenario) ops() int                  { return len(sc.pushes) - sc.nPre }
func (sc *aggScenario) counts() ([]string, []int) { return sc.ids, sc.wantN }
func (sc *aggScenario) session(c *client) session {
	s := &aggSession{sc: sc, c: c}
	s.newPushers()
	return s
}

type aggSession struct {
	sc      *aggScenario
	c       *client
	pushers []*fanin.Pusher
	cur     []fanin.StreamSnapshot // what each source's next PushOnce sends
	epoch   atomic.Uint64
	stats   []fanin.PusherStats // counters of pushers replaced by a restart
}

// newPushers starts a fresh incarnation of every follower: no aggregate
// known to exist, no acked base, so the first push of each stream is a
// create plus a full snapshot.
func (s *aggSession) newPushers() {
	for _, p := range s.pushers {
		s.stats = append(s.stats, p.Stats())
	}
	s.pushers = s.pushers[:0]
	s.cur = make([]fanin.StreamSnapshot, aggSources)
	for i, name := range s.sc.sources {
		p, err := fanin.NewPusher(fanin.PusherConfig{
			Target: s.c.base, Source: name, Token: s.c.token, Client: s.c.hc,
			Deltas:     true,
			MaxRetries: -1, // a failed push is a failed operation, not a retry
			Epoch:      func() uint64 { return s.epoch.Add(1) },
			Collect:    func() []fanin.StreamSnapshot { return []fanin.StreamSnapshot{s.cur[i]} },
		})
		if err != nil {
			panic(err) // the config above is valid
		}
		s.pushers = append(s.pushers, p)
	}
}

func (s *aggSession) push(p aggPush) (time.Duration, error) {
	s.cur[p.src] = p.snap
	s.c.attempted++
	start := time.Now()
	err := s.pushers[p.src].PushOnce(context.Background())
	lat := time.Since(start)
	if err != nil {
		return lat, s.c.fail("push %s from %s: %v", p.snap.Stream, s.sc.sources[p.src], err)
	}
	return lat, nil
}

func (s *aggSession) setup() error {
	for _, p := range s.sc.pushes[:s.sc.nPre] {
		if _, err := s.push(p); err != nil {
			return err
		}
	}
	return nil
}

func (s *aggSession) op(i int, record bool) opResult {
	p := s.sc.pushes[s.sc.nPre+i]
	res := opResult{hasRead: true}
	res.write, res.err = s.push(p)
	if res.err != nil {
		return res
	}
	lat, body, err := s.c.call(http.MethodGet, "/v1/streams/"+s.sc.ids[p.agg]+"/hull", nil)
	res.read, res.err = lat, err
	if record && err == nil {
		res.readBody = append([]byte(nil), body...)
	}
	return res
}

func (s *aggSession) check() ([]float64, []string) {
	var errs []float64
	var wrong []string
	for a, id := range s.sc.ids {
		var ans hullAnswer
		if err := s.c.getJSON("/v1/streams/"+id+"/hull", &ans); err != nil {
			wrong = append(wrong, err.Error())
			continue
		}
		e, w := verifyHull(id, ans, s.sc.wantN[a], s.sc.truths[a])
		wrong = append(wrong, w...)
		errs = append(errs, e)
	}
	return errs, wrong
}

// restarted refills the restarted (empty, in-memory) base station: every
// follower, as a new incarnation, pushes its latest snapshot of every
// aggregate, and the station serves each merged hull again.
func (s *aggSession) restarted() error {
	s.newPushers()
	for a, id := range s.sc.ids {
		for src := range s.sc.sources {
			if _, err := s.push(aggPush{src: src, agg: a, snap: s.sc.last[src][a]}); err != nil {
				return err
			}
		}
		if _, _, err := s.c.call(http.MethodGet, "/v1/streams/"+id+"/hull", nil); err != nil {
			return err
		}
	}
	return nil
}

// pusherStats sums the counters of every pusher incarnation.
func (s *aggSession) pusherStats() fanin.PusherStats {
	var out fanin.PusherStats
	for _, st := range append(append([]fanin.PusherStats(nil), s.stats...), s.current()...) {
		out.Pushes += st.Pushes
		out.DeltaPushes += st.DeltaPushes
		out.FullPushes += st.FullPushes
		out.BytesPushed += st.BytesPushed
		out.Resyncs += st.Resyncs
	}
	return out
}

func (s *aggSession) current() []fanin.PusherStats {
	out := make([]fanin.PusherStats, len(s.pushers))
	for i, p := range s.pushers {
		out[i] = p.Stats()
	}
	return out
}
