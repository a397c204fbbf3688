package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/auth"
	"github.com/streamgeom/streamhull/internal/server"
	"github.com/streamgeom/streamhull/internal/store"
	"github.com/streamgeom/streamhull/internal/trace"
	"github.com/streamgeom/streamhull/internal/wal"
)

// The traced run times the layers from outside the program: a handler
// wrapping Server.ServeHTTP, a store.Store decorator installed through
// Config.Store, an auth.Provider decorator through Config.Auth, and the
// client's own round trips. Pure layers are timed afterwards by
// replaying what the run recorded through their public functions
// (replay.go).

// spanHeader carries the client's request id to the wrapping handler.
const spanHeader = "X-Perfbench-Request"

// tracingTransport records one "http.client" root span per request,
// ending when the response body is closed.
type tracingTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.root("http.client", t.rec.now())
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.finish(id, t.rec.now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.rec.finish(id, t.rec.now()) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedHandler times Server.ServeHTTP and publishes the open span so the
// decorators can parent on it.
type tracedHandler struct {
	srv *server.Server
	rec *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	parent, _ := strconv.Atoi(req.Header.Get(spanHeader))
	id := h.rec.reserve("server.ServeHTTP", parent, parent, h.rec.now())
	h.rec.enter(id, parent)
	h.srv.ServeHTTP(w, req)
	h.rec.leave()
	h.rec.finish(id, h.rec.now())
}

// timedAuth decorates the server's auth.Provider.
type timedAuth struct {
	auth.Provider
	rec *recorder
}

func (a timedAuth) Authenticate(token string) (auth.Identity, error) {
	start := a.rec.now()
	id, err := a.Provider.Authenticate(token)
	a.rec.child("auth.Authenticate", start, a.rec.now())
	return id, err
}

// recordedBatch is one point batch the server appended to a stream's log.
type recordedBatch struct {
	key   string
	pts   []geom.Point
	phase string
}

// recordedCheckpoint is one checkpoint payload the server sealed.
type recordedCheckpoint struct {
	key   string
	data  []byte
	phase string
}

// timedStore decorates the server's store.Store, timing every call and
// keeping what was appended and checkpointed for the replays.
type timedStore struct {
	store.Store
	rec *recorder

	mu      sync.Mutex
	batches []recordedBatch
	ckpts   []recordedCheckpoint
}

func (s *timedStore) time(name string, f func()) {
	start := s.rec.now()
	f()
	s.rec.child(name, start, s.rec.now())
}

func (s *timedStore) Create(key string, spec streamhull.Spec) (store.Appender, error) {
	var app store.Appender
	var err error
	s.time("store.Create", func() { app, err = s.Store.Create(key, spec) })
	if err != nil {
		return nil, err
	}
	return &timedAppender{Appender: app, st: s, key: key}, nil
}

func (s *timedStore) Open(key string) (store.Appender, error) {
	var app store.Appender
	var err error
	s.time("store.Open", func() { app, err = s.Store.Open(key) })
	if err != nil {
		return nil, err
	}
	return &timedAppender{Appender: app, st: s, key: key}, nil
}

func (s *timedStore) Load(key string) (*store.Recovered, error) {
	var rec *store.Recovered
	var err error
	s.time("store.Load", func() { rec, err = s.Store.Load(key) })
	return rec, err
}

type timedAppender struct {
	store.Appender
	st  *timedStore
	key string
}

func (a *timedAppender) keep(pts []geom.Point) {
	a.st.mu.Lock()
	a.st.batches = append(a.st.batches, recordedBatch{key: a.key, pts: pts, phase: a.st.rec.currentPhase()})
	a.st.mu.Unlock()
}

func (a *timedAppender) Append(pts []geom.Point) error {
	var err error
	a.st.time("store.Append", func() { err = a.Appender.Append(pts) })
	a.keep(pts)
	return err
}

func (a *timedAppender) AppendTimed(pts []geom.Point) (write, syncWait time.Duration, err error) {
	a.st.time("store.Append", func() { write, syncWait, err = a.Appender.AppendTimed(pts) })
	a.keep(pts)
	return write, syncWait, err
}

func (a *timedAppender) Checkpoint(snap []byte) error {
	var err error
	a.st.time("store.Checkpoint", func() { err = a.Appender.Checkpoint(snap) })
	a.st.mu.Lock()
	a.st.ckpts = append(a.st.ckpts, recordedCheckpoint{key: a.key,
		data: append([]byte(nil), snap...), phase: a.st.rec.currentPhase()})
	a.st.mu.Unlock()
	return err
}

func (a *timedAppender) Close() error {
	var err error
	a.st.time("store.Close", func() { err = a.Appender.Close() })
	return err
}

// inProcessConfig builds the server.Config hullserver builds for the
// same flags (cmd/hullserver/main.go), with the timing decorators in
// place of its store and auth provider. Only the flags the workloads set
// are accepted; the rest take hullserver's defaults.
func inProcessConfig(flags []string, rec *recorder) (server.Config, *timedStore, error) {
	fs := flag.NewFlagSet("hullserver", flag.ContinueOnError)
	data := fs.String("data", "", "")
	backend := fs.String("store", "", "")
	maxRes := fs.Int("max-resident", 0, "")
	maxS := fs.Int("max-streams", 1024, "")
	tokens := fs.String("auth-tokens", "", "")
	if err := fs.Parse(flags); err != nil {
		return server.Config{}, nil, err
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	provider := auth.Provider(auth.None{})
	if *tokens != "" {
		p, err := auth.ParseStaticTokens(*tokens)
		if err != nil {
			return server.Config{}, nil, err
		}
		provider = p
	}
	cfg := server.Config{
		DefaultR: 32, MaxStreams: *maxS, SweepInterval: 2 * time.Second,
		MaxResident: *maxRes, Sync: wal.SyncInterval, FsyncInterval: 50 * time.Millisecond,
		CheckpointEvery: 65536, Logger: logger,
		Tracer: trace.New(trace.Config{Capacity: 256, SlowThreshold: 250 * time.Millisecond, Logger: logger}),
		Auth:   timedAuth{Provider: provider, rec: rec},
	}
	var ts *timedStore
	if *data != "" {
		st, err := store.Open(*backend, *data, store.Options{
			Sync: wal.SyncInterval, Interval: 50 * time.Millisecond, Logger: logger,
		})
		if err != nil {
			return server.Config{}, nil, err
		}
		ts = &timedStore{Store: st, rec: rec}
		cfg.Store = ts
	}
	return cfg, ts, nil
}

// tracedResult is what the in-process traced pass recorded.
type tracedResult struct {
	phase  phaseResult
	spans  []span
	store  *timedStore // nil for in-memory workloads
	errRel float64
	wrong  []string
	client *client
}

// pusherCounts are the fan-in followers' counters over the measured phase.
type pusherCounts struct{ pushes, deltas, bytes float64 }

func pusherDelta(sess session, before pusherCounts) pusherCounts {
	as, ok := sess.(*aggSession)
	if !ok {
		return pusherCounts{}
	}
	st := as.pusherStats()
	return pusherCounts{
		pushes: float64(st.Pushes) - before.pushes,
		deltas: float64(st.DeltaPushes) - before.deltas,
		bytes:  float64(st.BytesPushed) - before.bytes,
	}
}

// tracedPass runs the workload against an in-process server.
func tracedPass(cfg config, w workloadDef, sc scenario, warm int) (*tracedResult, error) {
	rec := newRecorder()
	var dataDir string
	if sc.durable() {
		d, err := os.MkdirTemp(cfg.dataRoot, w.name+"-traced-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dataDir = d
	}
	syscall.Sync()
	scfg, ts, err := inProcessConfig(serverFlags(cfg, sc, dataDir), rec)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: &tracedHandler{srv: srv, rec: rec}, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-served
		srv.Close()
	}()

	c := newClient("http://"+ln.Addr().String(), benchToken,
		&tracingTransport{base: oneConnTransport(), rec: rec})
	sess := sc.session(c)
	if err := sess.setup(); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	rec.setPhase("warmup")
	ph := runOps(sess, sc.ops(), warm, true, rec.setPhase, nil)
	errs, wrong := sess.check()
	errRel, _ := errStats(errs)
	rec.setPhase("done")
	spans := rec.snapshot()
	path := filepath.Join(logDir(cfg), fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	return &tracedResult{phase: ph, spans: spans, store: ts, errRel: errRel, wrong: wrong, client: c}, nil
}

// countersResult is what the untraced hullserver pass read from the
// server's /metrics, /proc and GC trace.
type countersResult struct {
	phase     phaseResult
	metrics   map[string]float64 // measured-phase deltas of /metrics series, summed by name
	after     map[string]float64 // /metrics after the measured phase
	wchar     float64            // bytes written during the measured phase
	gcCPUFrac float64
	heapMB    float64
	wrong     []string
	client    *client
	pushers   pusherCounts
	errRel    float64
}

// countersPass runs the workload once against hullserver as its own
// process, untraced, with the Go runtime's GC trace on.
func countersPass(cfg config, w workloadDef, sc scenario, warm int) (*countersResult, error) {
	var dataDir string
	if sc.durable() {
		d, err := os.MkdirTemp(cfg.dataRoot, w.name+"-counters-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dataDir = d
	}
	logPath := filepath.Join(logDir(cfg), fmt.Sprintf("%s-%d-%d-gctrace.log", w.name, cfg.seed, os.Getpid()))
	os.Remove(logPath)
	syscall.Sync()
	srv, err := startServer(cfg.server, serverFlags(cfg, sc, dataDir), logPath, []string{"GODEBUG=gctrace=1"})
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	c := newClient(srv.base(), benchToken, oneConnTransport())
	sess := sc.session(c)
	if err := sess.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var (
		m0, m1    map[string]float64
		w0, w1    float64
		scrapeErr error
		before    pusherCounts
		gc        gcSwitch
	)
	ph := runOps(sess, sc.ops(), warm, false, func(p string) {
		gc.mark(p)
		m, err := scrapeMetrics(srv.base())
		scrapeErr = errors.Join(scrapeErr, err)
		wc, err := procWchar(srv.pid())
		scrapeErr = errors.Join(scrapeErr, err)
		if p == "measured" {
			m0, w0 = m, wc
			before = pusherDelta(sess, pusherCounts{})
		} else {
			m1, w1 = m, wc
		}
	}, nil)
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	pc := pusherDelta(sess, before)
	errs, wrong := sess.check()
	errRel, _ := errStats(errs)
	srv.kill()
	gcFrac, heap, err := parseGCTrace(logPath)
	if err != nil {
		return nil, err
	}
	os.Remove(logPath)
	delta := make(map[string]float64, len(m1))
	for k, v := range m1 {
		delta[k] = v - m0[k]
	}
	return &countersResult{phase: ph, metrics: delta, after: m1, wchar: w1 - w0,
		gcCPUFrac: gcFrac, heapMB: heap, wrong: wrong, client: c, pushers: pc, errRel: errRel}, nil
}
