package server_test

// In-process handler benchmarks: one /v1/predict through the full
// middleware and handler stack into an httptest.ResponseRecorder, with
// no network in the way. Warm repeats one resident unit; cold sends a
// never-seen raw-PTX unit each iteration, so every request misses the
// unit cache and goes through the batch window and the analysis.
//
//	go test -run '^$' -bench PredictHandler -benchmem ./internal/server/

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cnnperf/internal/server"
)

func benchServer(b *testing.B) http.Handler {
	b.Helper()
	s := server.New(server.Config{})
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		s.Close()
	})
	return s.Handler()
}

// servePredict runs one predict through h and fails on a non-200.
func servePredict(b *testing.B, h http.Handler, body string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("predict status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

func BenchmarkPredictHandlerWarm(b *testing.B) {
	h := benchServer(b)
	const body = `{"model":"alexnet","gpus":["gtx1080ti","v100s"]}`
	servePredict(b, h, body) // trains the estimator and caches the unit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servePredict(b, h, body)
	}
}

// coldPTXBody is a small looping kernel made unique by the immediate
// seed, so its unit key and its canonical kernel text are both new.
func coldPTXBody(b *testing.B, seed int) string {
	src := fmt.Sprintf(`.version 6.0
.target sm_61
.address_size 64
.visible .entry k(
.param .u64 k_param_0
)
{
mov.u32 %%r1, 0;
mov.u32 %%r2, %d;
LOOP:
add.s32 %%r1, %%r1, 1;
setp.lt.s32 %%p1, %%r1, 16;
@%%p1 bra LOOP;
add.s32 %%r3, %%r1, %%r2;
ret;
}
`, seed)
	raw, err := json.Marshal(server.PredictRequest{
		PTX: src, TrainableParams: 1000, GPUs: []string{"gtx1080ti", "v100s"},
	})
	if err != nil {
		b.Fatal(err)
	}
	return string(raw)
}

func BenchmarkPredictHandlerCold(b *testing.B) {
	h := benchServer(b)
	// The first raw-PTX unit trains the shared full-inventory
	// estimator; keep that one-off cost out of the timed loop.
	servePredict(b, h, coldPTXBody(b, -1))
	bodies := make([]string, b.N)
	for i := range bodies {
		bodies[i] = coldPTXBody(b, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servePredict(b, h, bodies[i])
	}
}
