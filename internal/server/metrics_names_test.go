package server_test

// The metric-name audit (one test per surface): every counter, gauge
// and histogram the daemon exports must appear on /metrics under its
// frozen name with its frozen type, and the whole exposition must pass
// ValidatePrometheusText. A rename, a dropped bridge, or a type change
// breaks dashboards silently in production — here it breaks a test.

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"cnnperf/internal/gpu"
	"cnnperf/internal/obs"
	"cnnperf/internal/server"
)

// serverFamilies is the frozen name->type table of every metric family
// a store-backed replica exports. Adding a metric means adding a row;
// renaming or retyping one means consciously editing a frozen row.
var serverFamilies = map[string]string{
	"cnnperfd_requests_total":           "counter",
	"cnnperfd_request_duration_seconds": "histogram",
	"cnnperfd_in_flight_requests":       "gauge",
	"cnnperfd_panics_total":             "counter",
	"cnnperfd_rejected_total":           "counter",
	"cnnperfd_slow_requests_total":      "counter",
	"cnnperfd_batches_total":            "counter",
	"cnnperfd_batch_size":               "histogram",
	"cnnperfd_uptime_seconds":           "gauge",

	"cnnperfd_cache_hits_total":      "counter",
	"cnnperfd_cache_misses_total":    "counter",
	"cnnperfd_cache_waits_total":     "counter",
	"cnnperfd_cache_evictions_total": "counter",
	"cnnperfd_cache_disk_hits_total": "counter",
	"cnnperfd_cache_entries":         "gauge",

	"cnnperfd_pool_workers":               "gauge",
	"cnnperfd_pool_active_workers":        "gauge",
	"cnnperfd_pool_tasks_completed_total": "counter",

	"cnnperfd_absint_iterations": "histogram",

	"cnnperfd_dca_arena_grows_total": "counter",
	"cnnperfd_dca_arena_bytes":       "gauge",

	"cnnperfd_store_hits_total":          "counter",
	"cnnperfd_store_misses_total":        "counter",
	"cnnperfd_store_puts_total":          "counter",
	"cnnperfd_store_corrupt_total":       "counter",
	"cnnperfd_store_decode_errors_total": "counter",

	"cnnperfd_fr_requests_total":         "counter",
	"cnnperfd_fr_retained_slow_total":    "counter",
	"cnnperfd_fr_retained_error_total":   "counter",
	"cnnperfd_fr_sampled_total":          "counter",
	"cnnperfd_fr_evictions_total":        "counter",
	"cnnperfd_fr_recycled_tracers_total": "counter",
	"cnnperfd_fr_retained_traces":        "gauge",
	"cnnperfd_fr_retained_spans":         "gauge",
}

func TestMetricsNamesAndTypes(t *testing.T) {
	_, ts := newStoreTestServer(t, server.Config{StoreDir: t.TempDir()})
	// Touch the surfaces so bridged counters have live sources behind
	// them (names must be present regardless of traffic).
	gpus := gpu.TrainingGPUs
	code, body := postJSON(t, ts.URL+"/v1/predict",
		fmt.Sprintf(`{"model":"alexnet","gpus":[%q]}`, gpus[0]))
	if code != http.StatusOK {
		t.Fatalf("predict: status %d: %s", code, body)
	}

	text := scrapePrometheus(t, ts.URL)
	auditFamilies(t, text, serverFamilies)
}

// auditFamilies checks one exposition against a frozen family table:
// validity of the text as a whole, presence and exact TYPE of every
// family, and no unknown cnnperfd families sneaking in unaudited.
func auditFamilies(t *testing.T, text string, families map[string]string) {
	t.Helper()
	if n, err := obs.ValidatePrometheusText(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	} else if n == 0 {
		t.Fatal("exposition has no samples")
	}
	typeOf := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 4 {
			typeOf[fields[2]] = fields[3]
		}
	}
	for family, wantType := range families {
		gotType, ok := typeOf[family]
		if !ok {
			t.Errorf("family %s missing from /metrics", family)
			continue
		}
		if gotType != wantType {
			t.Errorf("family %s is a %s, frozen type is %s", family, gotType, wantType)
		}
	}
	for family, gotType := range typeOf {
		if _, audited := families[family]; !audited {
			t.Errorf("unaudited family %s (%s) on /metrics: add it to the frozen table", family, gotType)
		}
	}
}

func scrapePrometheus(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.PrometheusContentType {
		t.Errorf("scrape content type %q, want %q", got, obs.PrometheusContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMetricsJSONMirrorsPrometheus pins the drift fix: the JSON
// document exposes the same cache and store counters the Prometheus
// families do — in particular disk_hits and the store section, which
// used to exist only on the Prometheus side.
func TestMetricsJSONMirrorsPrometheus(t *testing.T) {
	_, ts := newStoreTestServer(t, server.Config{StoreDir: t.TempDir()})
	gpus := gpu.TrainingGPUs
	req := fmt.Sprintf(`{"model":"alexnet","gpus":[%q]}`, gpus[0])
	if code, body := postJSON(t, ts.URL+"/v1/predict", req); code != http.StatusOK {
		t.Fatalf("predict: status %d: %s", code, body)
	}

	var doc struct {
		Cache struct {
			Hits     *uint64 `json:"hits"`
			DiskHits *uint64 `json:"disk_hits"`
		} `json:"cache"`
		Store *struct {
			Hits         *uint64 `json:"hits"`
			Misses       *uint64 `json:"misses"`
			Puts         *uint64 `json:"puts"`
			Corrupt      *uint64 `json:"corrupt"`
			DecodeErrors *uint64 `json:"decode_errors"`
		} `json:"store"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &doc); code != http.StatusOK {
		t.Fatalf("metrics JSON: status %d", code)
	}
	if doc.Cache.DiskHits == nil {
		t.Error("JSON cache section is missing disk_hits")
	}
	if doc.Store == nil {
		t.Fatal("JSON document is missing the store section on a store-backed server")
	}
	for name, field := range map[string]*uint64{
		"hits": doc.Store.Hits, "misses": doc.Store.Misses, "puts": doc.Store.Puts,
		"corrupt": doc.Store.Corrupt, "decode_errors": doc.Store.DecodeErrors,
	} {
		if field == nil {
			t.Errorf("JSON store section is missing %s", name)
		}
	}
	if *doc.Store.Puts == 0 {
		t.Error("store puts is 0 after a store-backed predict; the JSON bridge reads the wrong source")
	}

	// A memory-only server must not grow a store section.
	_, tsMem := newTestServer(t, server.Config{})
	var memDoc map[string]any
	if code := getJSON(t, tsMem.URL+"/metrics", &memDoc); code != http.StatusOK {
		t.Fatalf("memory-only metrics JSON: status %d", code)
	}
	if _, has := memDoc["store"]; has {
		t.Error("memory-only server exports a store section")
	}
}
