package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cnnperf/internal/obs"
)

// The traced run measures single layers. It has two parts:
//
//  1. Load: the workload runs on a set-up topology twice, untraced and
//     then with a span around every replica and gateway handler call,
//     wrapped from outside. Correlating the two by request id gives the
//     gateway hop; subtracting the replayed library work from a
//     predict's handler time gives its batch wait. The difference
//     between the two windows is the tracing overhead.
//  2. Replay: the workload's inputs go once more, sequentially, through
//     the exported library functions each layer is made of, with a span
//     around each call (replay.go).
//
// All spans land in one obs.Tracer, written as one Chrome trace.

// layer is a timed per-layer metric: its span name and the unit its
// per-call median is reported in.
type layer struct {
	name string
	unit string
}

func (l layer) scale() time.Duration {
	switch l.unit {
	case "ms":
		return time.Millisecond
	case "us":
		return time.Microsecond
	}
	return time.Nanosecond
}

// metricName is the name of the layer's per-call median: the span name
// and the unit, as in dca.compile_us.
func (l layer) metricName() string { return l.name + "_" + l.unit }

// layers lists every timed layer in report order. Each reports its
// per-call median (<name>_<unit>), its call count (<name>.calls) and
// its busy time (<name>.busy_ms).
var layers = []layer{
	{"server.handler", "ms"},
	{"server.batch_wait", "ms"},
	{"server.json_encode", "us"},
	{"core.predict", "us"},
	{"gateway.hop", "ms"},
	{"ptxgen.compile", "ms"},
	{"ptxanalysis.lint", "ms"},
	{"ptxanalysis.liveness", "us"},
	{"absint.analyze", "us"},
	{"ptx.parse", "us"},
	{"ptxanalysis.lint_gate", "us"},
	{"dca.build_cfg", "us"},
	{"dca.dep_graph", "us"},
	{"dca.control_slice", "us"},
	{"dca.compile", "us"},
	{"dca.exec", "ns_per_thread"},
	{"dca.analyze_program", "ms"},
	{"ptxanalysis.analyze_module", "ms"},
	{"core.analyze_ptx", "ms"},
	{"analysiscache.key", "us"},
	{"core.estimator_build", "ms"},
	{"core.estimator_build.analyze_cnn", "ms"},
	{"core.analyze_cnn", "ms"},
	{"profiler.run", "ms"},
	{"mlearn.fit", "ms"},
}

// cachedLayers are the layers whose work goes through an analysis
// cache. The replay runs them twice, on caches that are fresh for the
// first pass, and reports the second, all-hit pass as <name>.hit_<unit>.
var cachedLayers = map[string]bool{
	"dca.analyze_program":              true,
	"ptxanalysis.analyze_module":       true,
	"core.analyze_ptx":                 true,
	"core.estimator_build":             true,
	"core.estimator_build.analyze_cnn": true,
	"core.analyze_cnn":                 true,
}

// hitName is the key the hit pass of a cached layer is recorded under.
func hitName(name string) string { return name + ".hit" }

// recorder collects the traced run's spans and the per-call durations
// the per-layer metrics are computed from.
type recorder struct {
	tr  *obs.Tracer
	on  atomic.Bool // the load part records only while on
	hit bool        // the replay is in its hit pass

	mu   sync.Mutex
	durs map[string][]time.Duration
	// handler spans of the load part, by request id
	backend map[string]time.Duration
	front   map[string]time.Duration
	// replies the client observed while recording
	replies []observed
}

// observed is one reply of the traced window.
type observed struct {
	rid      string
	req      request
	attempts int
}

func newRecorder() *recorder {
	return &recorder{
		tr:      obs.NewTracer(),
		durs:    make(map[string][]time.Duration),
		backend: make(map[string]time.Duration),
		front:   make(map[string]time.Duration),
	}
}

func (r *recorder) note(name string, d time.Duration) {
	r.mu.Lock()
	r.durs[name] = append(r.durs[name], d)
	r.mu.Unlock()
}

// span times f as one call of the named layer, recorded as a span under
// ctx. In the hit pass, cached layers are recorded under their hit name.
func (r *recorder) span(ctx context.Context, name string, f func(ctx context.Context) error) error {
	key := name
	if r.hit && cachedLayers[name] {
		key = hitName(name)
	}
	sctx, sp := obs.Start(ctx, key)
	t0 := time.Now()
	err := f(sctx)
	d := time.Since(t0)
	if err != nil {
		sp.SetAttr(obs.String("err", err.Error()))
	}
	sp.End()
	r.note(key, d)
	return err
}

// wrap puts a span around a replica (index >= 0) or gateway (index -1)
// handler while recording is on.
func (r *recorder) wrap(index int, h http.Handler) http.Handler {
	name := "server.handler"
	if index < 0 {
		name = "gateway.handler"
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Only client requests are timed, not the gateway's health probes.
		if !r.on.Load() || !strings.HasPrefix(req.URL.Path, "/v1/") {
			h.ServeHTTP(w, req)
			return
		}
		rid := req.Header.Get("X-Request-ID")
		ctx := obs.WithTracer(context.Background(), r.tr)
		_, sp := obs.Start(ctx, name, obs.String("request_id", rid),
			obs.String("path", req.URL.Path), obs.Int("replica", index))
		t0 := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t0)
		sp.End()
		r.mu.Lock()
		if index < 0 {
			r.front[rid] = d
		} else {
			r.backend[rid] += d
			r.durs[name] = append(r.durs[name], d)
		}
		r.mu.Unlock()
	})
}

func (r *recorder) observe(rid string, req request, resp response) {
	r.mu.Lock()
	r.replies = append(r.replies, observed{rid: rid, req: req, attempts: resp.attempts})
	r.mu.Unlock()
}

// counters are the replicas' serving counters at one instant.
type counters struct {
	batches             int64
	batchedJobs         float64
	hits, misses, waits uint64
	entries             int
}

func readCounters(st *stack) counters {
	var c counters
	for _, r := range st.replicas {
		s := r.MetricsSnapshot()
		c.batches += s.Batches
		c.batchedJobs += float64(s.BatchSizes.Count) * s.BatchSizes.Mean
		cs := r.CacheStats()
		c.hits += cs.Hits
		c.misses += cs.Misses
		c.waits += cs.Waits
		c.entries += cs.Entries
	}
	return c
}

// runTraced is the traced run: one set-up, an untraced and a traced
// window on the same topology, then the library replay. It reports the
// per-layer metrics and writes the Chrome trace to out.
func runTraced(ctx context.Context, p *plan, dur time.Duration, out string) (result, error) {
	rec := newRecorder()
	base := heapMB()
	t0 := time.Now()
	st, c, err := setUp(ctx, p, rec.wrap)
	if err != nil {
		return result{}, err
	}
	setup := time.Since(t0).Seconds()
	plain := measure(ctx, p, c, 0, dur)
	before := readCounters(st)
	c.observe = rec.observe
	rec.on.Store(true)
	traced := measure(ctx, p, c, 1, dur)
	rec.on.Store(false)
	after := readCounters(st)
	heap := heapMB() - base
	st.close()
	runtime.GC()

	rp := newReplay(rec, p)
	replayErr := rp.run(ctx)

	m := rec.perLayer(p, rp, before, after)
	addTallies(m, p, plain, traced)
	if err := writeTrace(rec.tr, out); err != nil {
		return result{}, err
	}
	untracedE2E := endToEnd(p.w, []*tally{plain}, setup, heap)
	tracedE2E := endToEnd(p.w, []*tally{traced}, setup, heap)
	fmt.Fprintf(os.Stderr, "perfbench: %s traced run: set-up %.2f s\n", p.w.name, setup)
	for _, n := range []string{"throughput_rps", "latency_p50_ms", "latency_tail_ms"} {
		fmt.Fprintf(os.Stderr, "  %-16s untraced %10.4f  traced %10.4f %s\n",
			n, untracedE2E[n].Value, tracedE2E[n].Value, untracedE2E[n].Unit)
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "perfbench: Chrome trace written to %s\n", out)
	if replayErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: replay: %v\n", replayErr)
	}
	for _, t := range []*tally{plain, traced} {
		if t.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", t.firstErr)
		}
	}
	return result{
		Correct:   plain.wrong == 0 && traced.wrong == 0 && replayErr == nil,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}, nil
}

// perLayer derives every per-layer metric.
func (r *recorder) perLayer(p *plan, rp *replay, before, after counters) map[string]metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Gateway hop and batch wait come from correlating the load part's
	// handler spans by request id.
	seen := make(map[string]bool)
	attempts := 0
	for _, o := range r.replies {
		attempts += o.attempts
		back, ok := r.backend[o.rid]
		if front, fok := r.front[o.rid]; fok && ok {
			r.durs["gateway.hop"] = append(r.durs["gateway.hop"], front-back)
		}
		if o.req.path == "/v1/predict" && ok {
			// A unit the replica never saw is a miss: its handler time
			// also holds the analysis.
			if lib, lok := rp.libWork(o.req.key, !seen[o.req.key] && !rp.warmed[o.req.key]); lok {
				r.durs["server.batch_wait"] = append(r.durs["server.batch_wait"], back-lib)
			}
		}
		seen[o.req.key] = true
	}
	m := make(map[string]metric)
	for _, l := range layers {
		ds := r.durs[l.name]
		m[l.metricName()] = metric{median(durationsIn(ds, l.scale())), l.unit}
		m[l.name+".calls"] = metric{float64(len(ds)), "count"}
		m[l.name+".busy_ms"] = metric{sum(durationsIn(ds, time.Millisecond)), "ms"}
		if cachedLayers[l.name] {
			m[l.name+".hit_"+l.unit] = metric{median(durationsIn(r.durs[hitName(l.name)], l.scale())), l.unit}
		}
	}
	batches := after.batches - before.batches
	mean := 0.0
	if batches > 0 {
		mean = (after.batchedJobs - before.batchedJobs) / float64(batches)
	}
	hits, misses := after.hits-before.hits, after.misses-before.misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	m["server.batches"] = metric{float64(batches), "count"}
	m["server.batch_size_mean"] = metric{mean, "count"}
	m["gateway.attempts"] = metric{float64(attempts), "count"}
	m["analysiscache.hit_ratio"] = metric{ratio, "frac"}
	m["analysiscache.misses"] = metric{float64(misses), "count"}
	m["analysiscache.waits"] = metric{float64(after.waits - before.waits), "count"}
	m["analysiscache.entries"] = metric{float64(after.entries - before.entries), "count"}
	m["dca.kernels"] = metric{float64(rp.kernels), "count"}
	m["dca.executed_instructions"] = metric{float64(rp.executed), "count"}
	m["ptxanalysis.diagnostics"] = metric{float64(rp.diags), "count"}
	return m
}

// addTallies adds the client-side per-layer metrics: the tracing
// overhead (traced minus untraced window) and, for the open loop, how
// late idle connections woke for their arrivals, how long arrivals
// queued for a connection, and the share of new kernels.
func addTallies(m map[string]metric, p *plan, plain, traced *tally) {
	rps := func(t *tally) float64 { return float64(len(t.lats)) / t.elapsed.Seconds() }
	m["trace.overhead_p50_ms"] = metric{quantile(traced.lats, 0.5) - quantile(plain.lats, 0.5), "ms"}
	m["trace.overhead_tail_ms"] = metric{quantile(traced.lats, p.w.tail) - quantile(plain.lats, p.w.tail), "ms"}
	m["trace.overhead_rps"] = metric{rps(traced) - rps(plain), "1/s"}
	m["client.wake_late_p99_ms"] = metric{quantile(plain.late, 0.99), "ms"}
	m["client.queue_wait_p99_ms"] = metric{quantile(plain.queue, 0.99), "ms"}
	m["client.new_kernel_frac"] = metric{p.newKernelShare(), "frac"}
}

func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// writeTrace writes the tracer as one Chrome trace and validates it.
func writeTrace(tr *obs.Tracer, out string) error {
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		return err
	}
	if _, err := obs.ValidateChromeTrace(b.Bytes()); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(out, b.Bytes(), 0o644)
}
