package server

import (
	"io"
	"time"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/artifactstore"
	"cnnperf/internal/dca"
	"cnnperf/internal/obs"
	"cnnperf/internal/parallel"
	"cnnperf/internal/ptxanalysis"
)

// The serving telemetry is a thin façade over an obs.Registry: every
// counter the daemon records lives in one instrument registry that can
// render itself both as the legacy /metrics JSON document (Snapshot)
// and as Prometheus text exposition. Recording stays lock-free; the
// cache and pool counters are bridged in as func metrics evaluated at
// scrape time.

// endpointNames are the pre-registered route labels, so /metrics shows
// every endpoint with zero counts before its first request.
var endpointNames = []string{"predict", "lint", "healthz", "metrics", "flightrecorder", "pprof", "other"}

// statusClasses are the response status classes recorded per endpoint.
var statusClasses = []string{"2xx", "4xx", "5xx"}

var latencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

var batchBounds = []float64{1, 2, 4, 8, 16, 32}

// metrics is the process-wide serving telemetry, exported as
// expvar-style JSON and Prometheus text on /metrics.
type metrics struct {
	start time.Time
	reg   *obs.Registry

	requests   *obs.CounterVec   // by endpoint and status class
	latency    *obs.HistogramVec // by endpoint, seconds
	inFlight   *obs.Gauge
	panics     *obs.Counter
	rejected   *obs.Counter // requests refused while draining
	slow       *obs.Counter // requests over the slow-request threshold
	batches    *obs.Counter
	batchSizes *obs.Histogram

	// tier is set by registerStore; nil for memory-only servers. The
	// JSON snapshot mirrors its counters so the two /metrics renderings
	// never drift apart.
	tier *artifactstore.Tier
}

func newMetrics(cache *analysiscache.Cache, pool *parallel.Pool) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		start: time.Now(),
		reg:   reg,
		requests: reg.CounterVec("cnnperfd_requests_total",
			"HTTP requests by endpoint and status class.", "endpoint", "code"),
		latency: reg.HistogramVec("cnnperfd_request_duration_seconds",
			"Request latency by endpoint.", latencyBounds, "endpoint"),
		inFlight: reg.Gauge("cnnperfd_in_flight_requests",
			"Requests currently being served."),
		panics: reg.Counter("cnnperfd_panics_total",
			"Handler panics contained by the recovery middleware."),
		rejected: reg.Counter("cnnperfd_rejected_total",
			"Requests refused while the server was draining."),
		slow: reg.Counter("cnnperfd_slow_requests_total",
			"Requests slower than the configured slow-request threshold."),
		batches: reg.Counter("cnnperfd_batches_total",
			"Coalesced analysis batches executed."),
		batchSizes: reg.Histogram("cnnperfd_batch_size",
			"Number of deduplicated analysis units per batch.", batchBounds),
	}
	// Pre-register every endpoint series so zero counts are visible.
	for _, ep := range endpointNames {
		for _, class := range statusClasses {
			m.requests.With(ep, class)
		}
		m.latency.With(ep)
	}
	reg.GaugeFunc("cnnperfd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(m.start).Seconds() })
	// The analysis cache and worker pool keep their own lock-free
	// counters; bridge them as func metrics read at scrape time.
	reg.CounterFunc("cnnperfd_cache_hits_total", "Analysis cache hits.",
		func() float64 { return float64(cache.Stats().Hits) })
	reg.CounterFunc("cnnperfd_cache_misses_total", "Analysis cache misses.",
		func() float64 { return float64(cache.Stats().Misses) })
	reg.CounterFunc("cnnperfd_cache_waits_total",
		"Cache hits that waited on an in-flight computation (singleflight).",
		func() float64 { return float64(cache.Stats().Waits) })
	reg.CounterFunc("cnnperfd_cache_evictions_total", "Analysis cache evictions.",
		func() float64 { return float64(cache.Stats().Evictions) })
	reg.CounterFunc("cnnperfd_cache_disk_hits_total",
		"Cache misses answered by the persistent artifact tier.",
		func() float64 { return float64(cache.Stats().DiskHits) })
	reg.GaugeFunc("cnnperfd_cache_entries", "Resident analysis cache entries.",
		func() float64 { return float64(cache.Stats().Entries) })
	reg.GaugeFunc("cnnperfd_pool_workers", "Analysis worker pool size.",
		func() float64 { return float64(pool.Size()) })
	reg.GaugeFunc("cnnperfd_pool_active_workers", "Workers currently running a task.",
		func() float64 { return float64(pool.Stats().Active) })
	reg.CounterFunc("cnnperfd_pool_tasks_completed_total", "Pool tasks completed.",
		func() float64 { return float64(pool.Stats().Completed) })
	// Analysis-side instruments (the absint fixpoint-iterations
	// histogram) publish through the same registry.
	ptxanalysis.RegisterMetrics(reg)
	// The dca execution arenas keep their own lock-free counters (they
	// run on analysis hot paths); bridge them in like the cache and pool.
	reg.CounterFunc("cnnperfd_dca_arena_grows_total",
		"Execution arena slab growths (zero once steady state is reached).",
		func() float64 { return float64(dca.ArenaStats().Grows) })
	reg.GaugeFunc("cnnperfd_dca_arena_bytes",
		"High-water retained footprint of the largest execution arena.",
		func() float64 { return float64(dca.ArenaStats().Bytes) })
	return m
}

// registerStore bridges the persistent artifact tier's counters once a
// tier is attached (NewWithStore). The store may be nil (snapshot-only
// tier); its counters then read as constant zero.
func (m *metrics) registerStore(tier *artifactstore.Tier) {
	m.tier = tier
	storeStats := func() artifactstore.Stats {
		if st := tier.Store(); st != nil {
			return st.Stats()
		}
		return artifactstore.Stats{}
	}
	m.reg.CounterFunc("cnnperfd_store_hits_total", "Artifact store disk hits.",
		func() float64 { return float64(storeStats().Hits) })
	m.reg.CounterFunc("cnnperfd_store_misses_total", "Artifact store disk misses.",
		func() float64 { return float64(storeStats().Misses) })
	m.reg.CounterFunc("cnnperfd_store_puts_total", "Artifact store records written.",
		func() float64 { return float64(storeStats().Puts) })
	m.reg.CounterFunc("cnnperfd_store_corrupt_total",
		"Corrupt artifact records quarantined by the store.",
		func() float64 { return float64(storeStats().Corrupt) })
	m.reg.CounterFunc("cnnperfd_store_decode_errors_total",
		"Stored artifacts that failed to decode and were recomputed.",
		func() float64 { return float64(tier.DecodeErrors()) })
}

// record counts one served request.
func (m *metrics) record(endpoint string, status int, d time.Duration) {
	class := "2xx"
	switch {
	case status >= 500:
		class = "5xx"
	case status >= 400:
		class = "4xx"
	}
	m.requests.With(endpoint, class).Inc()
	m.latency.With(endpoint).Observe(d.Seconds())
}

func (m *metrics) recordBatch(size int) {
	m.batches.Inc()
	m.batchSizes.Observe(float64(size))
}

// writePrometheus renders the registry in Prometheus text exposition
// format 0.0.4.
func (m *metrics) writePrometheus(w io.Writer) error {
	return m.reg.WritePrometheus(w)
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Mean    float64          `json:"mean"`
	Buckets []BucketSnapshot `json:"buckets"`
}

type BucketSnapshot struct {
	LE    float64 `json:"le"` // +Inf rendered as -1
	Count int64   `json:"count"`
}

// jsonHistogram converts an obs histogram snapshot (cumulative buckets,
// last = +Inf) to the legacy JSON shape.
func jsonHistogram(s obs.HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count}
	if s.Count > 0 {
		out.Mean = s.Sum / float64(s.Count)
	}
	for i, bound := range s.Bounds {
		out.Buckets = append(out.Buckets, BucketSnapshot{LE: bound, Count: s.Buckets[i]})
	}
	out.Buckets = append(out.Buckets, BucketSnapshot{LE: -1, Count: s.Count}) // -1 = +Inf
	return out
}

type EndpointSnapshot struct {
	Count    int64             `json:"count"`
	ByStatus map[string]int64  `json:"by_status"`
	Latency  HistogramSnapshot `json:"latency_seconds"`
}

// Snapshot is the /metrics JSON document.
type Snapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	InFlight      int64                       `json:"in_flight"`
	Panics        int64                       `json:"panics"`
	Rejected      int64                       `json:"rejected_draining"`
	Requests      map[string]EndpointSnapshot `json:"requests"`
	Batches       int64                       `json:"batches"`
	BatchSizes    HistogramSnapshot           `json:"batch_sizes"`
	Cache         CacheSnapshot               `json:"cache"`
	Store         *StoreSnapshot              `json:"store,omitempty"`
}

type CacheSnapshot struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Waits     uint64  `json:"waits"`
	Evictions uint64  `json:"evictions"`
	DiskHits  uint64  `json:"disk_hits"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hit_rate"`
}

// StoreSnapshot is the JSON form of the persistent artifact tier's
// counters; present only on store-backed servers. The field names
// match the cnnperfd_store_* Prometheus families one-for-one.
type StoreSnapshot struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Puts         uint64 `json:"puts"`
	Corrupt      uint64 `json:"corrupt"`
	DecodeErrors uint64 `json:"decode_errors"`
}

func (m *metrics) snapshot(cs analysiscache.Stats) Snapshot {
	reqs := make(map[string]EndpointSnapshot, len(endpointNames))
	for _, ep := range endpointNames {
		by := make(map[string]int64, len(statusClasses))
		total := int64(0)
		for _, class := range statusClasses {
			n := m.requests.With(ep, class).Value()
			by[class] = n
			total += n
		}
		reqs[ep] = EndpointSnapshot{
			Count:    total,
			ByStatus: by,
			Latency:  jsonHistogram(m.latency.With(ep).Snapshot()),
		}
	}
	out := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		InFlight:      int64(m.inFlight.Value()),
		Panics:        m.panics.Value(),
		Rejected:      m.rejected.Value(),
		Requests:      reqs,
		Batches:       m.batches.Value(),
		BatchSizes:    jsonHistogram(m.batchSizes.Snapshot()),
		Cache: CacheSnapshot{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Waits:     cs.Waits,
			Evictions: cs.Evictions,
			DiskHits:  cs.DiskHits,
			Entries:   cs.Entries,
			HitRate:   cs.HitRate(),
		},
	}
	if m.tier != nil {
		var st artifactstore.Stats
		if s := m.tier.Store(); s != nil {
			st = s.Stats()
		}
		out.Store = &StoreSnapshot{
			Hits: st.Hits, Misses: st.Misses, Puts: st.Puts, Corrupt: st.Corrupt,
			DecodeErrors: m.tier.DecodeErrors(),
		}
	}
	return out
}
