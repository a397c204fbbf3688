// Package telemetry is the observability plane: a zero-dependency
// metrics registry speaking the Prometheus text exposition format, plus
// liveness/readiness handlers. The server, the fan-in pusher and the
// WAL report through it so one `curl /metrics` answers the operational
// questions the ROADMAP's production item lists — ingest rate, request
// latency distributions, cache hit ratios, fsync lag, per-tenant
// resident streams, and fan-in source staleness.
//
// Three primitive kinds, each with an optional label dimension:
//
//   - Counter: a monotone float64 (Add); rates are the scraper's job.
//   - Gauge: a settable float64. GaugeFunc and the collector variants
//     evaluate at scrape time, so values derived from live structures
//     (streams per tenant, WAL lag) need no background updater.
//   - Histogram: fixed cumulative buckets plus _sum and _count, the
//     shape PromQL's histogram_quantile expects.
//
// All mutation paths are lock-free atomics; registration and scraping
// take the registry lock. Families render sorted by name and series
// sorted by label values, so consecutive scrapes are diffable.
package telemetry

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds metric families and renders them in the Prometheus
// text format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with its help text, type, label schema and
// live series. collect, when set, contributes scrape-time series (used
// by the *Func and collector constructors).
type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64 // histograms only

	mu      sync.Mutex
	series  map[string]*series
	collect func(emit func(labelValues []string, value float64))
}

// series is one label combination's live value.
type series struct {
	labelValues []string
	bits        atomic.Uint64 // float64 bits for counters/gauges

	// histogram state (nil otherwise): cumulative on render, raw here.
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
	total  atomic.Uint64
	// exemplars holds the latest trace-linked observation per bucket
	// (last slot = +Inf), rendered only in the OpenMetrics exposition.
	exemplars []atomic.Pointer[exemplar]
}

// exemplar links one histogram observation to the trace that produced
// it, so a latency bucket on a dashboard jumps straight to a concrete
// slow request in /debug/traces.
type exemplar struct {
	traceID string
	value   float64
	ts      float64 // unix seconds
}

func (s *series) add(v float64) {
	for {
		old := s.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if s.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (s *series) set(v float64) { s.bits.Store(math.Float64bits(v)) }

func (s *series) value() float64 { return math.Float64frombits(s.bits.Load()) }

// register adds a family, panicking on a name collision with a
// different schema — metric names are code-level constants, so a
// collision is a programming error worth failing loudly on.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ, labels: labels, buckets: buckets,
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func seriesKey(labelValues []string) string { return strings.Join(labelValues, "\xff") }

// get returns (creating if needed) the series for one label combination.
func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	key := seriesKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		if f.typ == "histogram" {
			s.counts = make([]atomic.Uint64, len(f.buckets))
			s.exemplars = make([]atomic.Pointer[exemplar], len(f.buckets)+1)
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotone metric.
type Counter struct{ s *series }

// Add increments the counter by v (v < 0 is ignored: counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.s.add(v)
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.s.add(1) }

// Value returns the current count (tests and status pages).
func (c *Counter) Value() float64 { return c.s.value() }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for one label-value combination.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.get(labelValues)}
}

// Gauge is a settable metric.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.s.set(v) }

// Add moves the gauge by v (negative allowed).
func (g *Gauge) Add(v float64) { g.s.add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.s.value() }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.get(labelValues)}
}

// Histogram observes a distribution over fixed buckets.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.buckets {
		if v <= ub {
			h.s.counts[i].Add(1)
			break
		}
	}
	h.s.total.Add(1)
	for {
		old := h.s.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveExemplar records one sample and, when traceID is non-empty,
// attaches it as the bucket's exemplar — the trace id a dashboard can
// follow from a latency bucket to the concrete request in
// /debug/traces. Exemplars render only in the OpenMetrics exposition;
// the classic text format ignores them.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	idx := len(h.buckets) // +Inf slot
	for i, ub := range h.buckets {
		if v <= ub {
			idx = i
			break
		}
	}
	h.s.exemplars[idx].Store(&exemplar{
		traceID: traceID, value: v,
		ts: float64(time.Now().UnixNano()) / 1e9,
	})
}

// Count returns the number of observations (tests and smoke checks).
func (h *Histogram) Count() uint64 { return h.s.total.Load() }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{s: v.f.get(labelValues), buckets: v.f.buckets}
}

// DefBuckets is the default latency bucket ladder (seconds): spans
// cache-hit microseconds through slow durable appends.
var DefBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return &Counter{s: r.register(name, help, "counter", nil, nil).get(nil)}
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels, nil)}
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return &Gauge{s: r.register(name, help, "gauge", nil, nil).get(nil)}
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labels, nil)}
}

// NewGaugeFunc registers a gauge evaluated at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil, nil)
	f.collect = func(emit func([]string, float64)) { emit(nil, fn()) }
}

// NewCounterFunc registers a counter evaluated at scrape time; fn must
// be monotone for the exposition to be honest.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "counter", nil, nil)
	f.collect = func(emit func([]string, float64)) { emit(nil, fn()) }
}

// NewGaugeCollector registers a labeled gauge family whose series are
// produced wholesale at scrape time: collect receives an emit callback
// and calls it once per live label combination. Built for values that
// mirror live structures — streams per tenant, fan-in source staleness —
// where series appear and vanish with the structures themselves.
func (r *Registry) NewGaugeCollector(name, help string, labels []string, collect func(emit func(labelValues []string, value float64))) {
	f := r.register(name, help, "gauge", labels, nil)
	f.collect = collect
}

// NewHistogramVec registers a labeled histogram family over buckets
// (ascending upper bounds; +Inf is implicit).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, "histogram", labels, buckets)}
}

// fmtValue renders a float the way Prometheus expects.
func fmtValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv(v)
}

func strconv(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if i > 0 || len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extra[i], escapeLabel(extra[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// Render writes the whole registry in the Prometheus text format.
func (r *Registry) Render() string { return r.render(false) }

// RenderOpenMetrics writes the registry in the OpenMetrics exposition:
// the same families, histogram buckets annotated with their exemplars
// (`# {trace_id="…"} value timestamp`), terminated by `# EOF`. Served
// when a scraper negotiates Accept: application/openmetrics-text —
// exemplars are invalid in the classic text format, so they appear
// only here.
func (r *Registry) RenderOpenMetrics() string { return r.render(true) + "# EOF\n" }

func (r *Registry) render(openMetrics bool) string {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.render(&b, openMetrics)
	}
	return b.String()
}

func (f *family) render(b *strings.Builder, openMetrics bool) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	if f.collect != nil {
		type row struct {
			labels string
			value  float64
		}
		var rows []row
		f.collect(func(lv []string, v float64) {
			rows = append(rows, row{labelString(f.labels, lv), v})
		})
		sort.Slice(rows, func(i, j int) bool { return rows[i].labels < rows[j].labels })
		for _, r := range rows {
			fmt.Fprintf(b, "%s%s %s\n", f.name, r.labels, fmtValue(r.value))
		}
		return
	}
	f.mu.Lock()
	sers := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		sers = append(sers, s)
	}
	f.mu.Unlock()
	sort.Slice(sers, func(i, j int) bool {
		return seriesKey(sers[i].labelValues) < seriesKey(sers[j].labelValues)
	})
	for _, s := range sers {
		if f.typ != "histogram" {
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues), fmtValue(s.value()))
			continue
		}
		// Buckets are stored raw per bucket; the format wants cumulative
		// counts up to each upper bound, then +Inf = _count.
		cum := uint64(0)
		for i, ub := range f.buckets {
			cum += s.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d%s\n", f.name,
				labelString(f.labels, s.labelValues, "le", fmtValue(ub)), cum,
				s.exemplarSuffix(i, openMetrics))
		}
		total := s.total.Load()
		fmt.Fprintf(b, "%s_bucket%s %d%s\n", f.name,
			labelString(f.labels, s.labelValues, "le", "+Inf"), total,
			s.exemplarSuffix(len(f.buckets), openMetrics))
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelValues),
			fmtValue(math.Float64frombits(s.sum.Load())))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelValues), total)
	}
}

// exemplarSuffix renders the bucket's exemplar annotation, or "" in
// the classic format (exemplars are OpenMetrics-only syntax).
func (s *series) exemplarSuffix(bucket int, openMetrics bool) string {
	if !openMetrics {
		return ""
	}
	ex := s.exemplars[bucket].Load()
	if ex == nil {
		return ""
	}
	return fmt.Sprintf(` # {trace_id="%s"} %s %.3f`,
		escapeLabel(ex.traceID), fmtValue(ex.value), ex.ts)
}

// Handler serves the registry as a /metrics endpoint, negotiating the
// OpenMetrics exposition (with exemplars) when the scraper asks for it.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req != nil && strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			_, _ = w.Write([]byte(r.RenderOpenMetrics()))
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Render()))
	})
}

// Health tracks process liveness and readiness. Liveness is implied by
// answering at all; readiness flips once startup (WAL recovery) is done
// and can be dropped again during shutdown so load balancers drain
// before the listener closes. While startup recovery runs, the
// readiness endpoint additionally reports its progress — "recovered k
// of n streams" — so an operator watching a slow recovery can tell a
// working startup from a hung one.
type Health struct {
	ready            atomic.Bool
	starting         atomic.Bool
	recovered, total atomic.Int64
}

// SetReady flips the readiness state.
func (h *Health) SetReady(ready bool) { h.ready.Store(ready) }

// StartRecovery enters the "starting" state with total streams to
// recover; /readyz reports progress until FinishRecovery.
func (h *Health) StartRecovery(total int) {
	h.total.Store(int64(total))
	h.recovered.Store(0)
	h.starting.Store(true)
}

// SetRecovered publishes recovery progress (n streams done so far).
func (h *Health) SetRecovered(n int) { h.recovered.Store(int64(n)) }

// FinishRecovery leaves the "starting" state. A recovery that fails
// never calls it: the process stays starting (and unready) rather than
// serving partial data.
func (h *Health) FinishRecovery() { h.starting.Store(false) }

// Recovery reports the startup-recovery state: whether it is still
// running and how far it got.
func (h *Health) Recovery() (recovered, total int, starting bool) {
	return int(h.recovered.Load()), int(h.total.Load()), h.starting.Load()
}

// LivenessHandler always answers 200 "ok": the process is up.
func (h *Health) LivenessHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
}

// ReadinessHandler answers 200 "ready" once SetReady(true), 503 before.
// While startup recovery runs the 503 body is a JSON progress report,
// {"status":"starting","recovered":k,"total":n}.
func (h *Health) ReadinessHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if recovered, total, starting := h.Recovery(); starting {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "{\"status\":\"starting\",\"recovered\":%d,\"total\":%d}\n",
				recovered, total)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !h.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("not ready\n"))
			return
		}
		_, _ = w.Write([]byte("ready\n"))
	})
}
