package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cnnperf/internal/core"
	"cnnperf/internal/gateway"
	"cnnperf/internal/obs"
	"cnnperf/internal/ptx"
	"cnnperf/internal/server"
)

func testPool(t *testing.T) []*ptx.Kernel {
	t.Helper()
	pool, err := kernelPool()
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func bodies(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.body
	}
	return out
}

func arrivalBodies(p freshPlan) [][]byte {
	var out [][]byte
	for _, w := range append([][]arrival{p.warmup}, p.windows...) {
		for _, a := range w {
			out = append(out, a.lint.body, a.predict.body, []byte(p.orig[a.predict.key]))
		}
	}
	return out
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestSameSeedSameInputs(t *testing.T) {
	pool := testPool(t)
	warm := func(seed int64) [][]byte {
		return bodies(rounds(newRand(seed+1), warmTemplates(seed, pool), 3))
	}
	fresh := func(seed int64) [][]byte {
		return arrivalBodies(freshArrivals(seed, pool, 20, 2, 2))
	}
	if !equalBodies(warm(7), warm(7)) {
		t.Error("warm_predict_gw inputs differ for one seed")
	}
	if equalBodies(warm(7), warm(8)) {
		t.Error("warm_predict_gw inputs do not depend on the seed")
	}
	if !equalBodies(fresh(7), fresh(7)) {
		t.Error("fresh_ptx_open inputs differ for one seed")
	}
	if equalBodies(fresh(7), fresh(8)) {
		t.Error("fresh_ptx_open inputs do not depend on the seed")
	}
	_, round := lintTemplates(pool)
	if !equalBodies(bodies(rounds(newRand(3), round, 2)), bodies(rounds(newRand(3), round, 2))) {
		t.Error("zoo_lint_repeat inputs differ for one seed")
	}
}

func TestFreshModulesHaveUniqueNamesAndNewKernels(t *testing.T) {
	plan := freshArrivals(5, testPool(t), 50, 4, 1)
	var kernels, fresh int
	sizes := make(map[int]bool)
	for i, a := range plan.windows[0] {
		if i%freshMaxKernels == 0 {
			clear(sizes)
		}
		if sizes[a.kernels] {
			t.Fatalf("arrival %d repeats size %d within its block", i, a.kernels)
		}
		sizes[a.kernels] = true
		var p server.PredictRequest
		if err := json.Unmarshal(a.predict.body, &p); err != nil {
			t.Fatal(err)
		}
		m, err := ptx.Parse(p.PTX)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(m.Kernels) != a.kernels || a.kernels < 1 || a.kernels > freshMaxKernels {
			t.Fatalf("module has %d kernels, arrival says %d", len(m.Kernels), a.kernels)
		}
		kernels += a.kernels
		fresh += a.newKernels
	}
	if share := float64(fresh) / float64(kernels); share < freshNewShare-0.01 || share > freshNewShare+0.01 {
		t.Errorf("new-kernel share %.2f, want about %.2f", share, freshNewShare)
	}
}

// TestRewriteKeepsExecutedInstructions checks that renumbering
// registers preserves what the dynamic code analysis counts.
func TestRewriteKeepsExecutedInstructions(t *testing.T) {
	pool := testPool(t)
	rng := newRand(11)
	cfg := core.DefaultConfig()
	opts := core.PTXOptions{MaxSteps: serverPTXMaxSteps}
	for i := 0; i < len(pool); i += 5 {
		k := pool[i]
		orig := moduleText([]*ptx.Kernel{renameKernel(k, "k", nil)})
		rewritten := moduleText([]*ptx.Kernel{renameKernel(k, "k", randomPerm(rng, k))})
		if orig == rewritten {
			continue // the draw happened to be the identity
		}
		a, err := core.AnalyzePTXContext(context.Background(), orig, opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.AnalyzePTXContext(context.Background(), rewritten, opts, cfg)
		if err != nil {
			t.Fatalf("%s rewritten: %v", k.Name, err)
		}
		if a.Report.Executed != b.Report.Executed {
			t.Errorf("%s: %d executed instructions, %d after the rewrite", k.Name, a.Report.Executed, b.Report.Executed)
		}
	}
}

func TestOracleRejectsCorruptedBody(t *testing.T) {
	ctx := context.Background()
	pool := testPool(t)
	o := newOracle()
	lint := lintReq(server.LintRequest{Model: "alexnet"}, "lint-alexnet")
	if err := o.addExact(ctx, lint); err != nil {
		t.Fatal(err)
	}
	plan := freshArrivals(3, pool, 1, 1, 0)
	a := plan.warmup[0]
	if err := o.addRewritten(ctx, a, plan.orig[a.predict.key]); err != nil {
		t.Fatal(err)
	}
	o.release()

	good := o.bodies[lint.key]
	if err := o.check(lint, 200, good); err != nil {
		t.Fatalf("oracle rejects the correct body: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 1
	if o.check(lint, 200, bad) == nil {
		t.Error("oracle accepts a corrupted lint body")
	}
	if o.check(lint, 500, good) == nil {
		t.Error("oracle accepts a non-2xx status")
	}
	if o.check(request{path: "/v1/lint", key: "unknown"}, 200, good) == nil {
		t.Error("oracle accepts a request it has no entry for")
	}

	predict := o.bodies[a.predict.key]
	if err := o.check(a.predict, 200, predict); err != nil {
		t.Fatalf("oracle rejects the correct predict body: %v", err)
	}
	var resp server.PredictResponse
	if err := json.Unmarshal(predict, &resp); err != nil {
		t.Fatal(err)
	}
	resp.ExecutedInstructions++
	corrupt, err := encodeIndent(resp)
	if err != nil {
		t.Fatal(err)
	}
	if o.check(a.predict, 200, corrupt) == nil {
		t.Error("oracle accepts a predict body with a wrong instruction count")
	}

	var l server.LintRequest
	if err := json.Unmarshal(a.lint.body, &l); err != nil {
		t.Fatal(err)
	}
	lintOK, err := lintBody(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check(a.lint, 200, lintOK); err != nil {
		t.Fatalf("oracle rejects the rewritten module's lint: %v", err)
	}
	var lr server.LintResponse
	if err := json.Unmarshal(lintOK, &lr); err != nil {
		t.Fatal(err)
	}
	lr.Diagnostics = append(lr.Diagnostics, lr.Diagnostics...)
	doubled, err := encodeIndent(lr)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Diagnostics) > 0 && o.check(a.lint, 200, doubled) == nil {
		t.Error("oracle accepts a lint with other code counts")
	}
}

// TestOpenLoopTimesFromDueTime stalls the first arrival and checks that
// the arrivals queued behind it are charged the stall, and that one
// still queued when the window closes counts as failed.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	first := make(chan struct{}, 1)
	first <- struct{}{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/lint" {
			select {
			case <-first:
				time.Sleep(stall)
			default:
			}
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	st := &stack{front: srv, client: srv.Client()}
	c := &client{st: st, check: func(request, int, []byte) error { return nil }}
	lint := request{path: "/v1/lint"}
	predict := request{path: "/v1/predict"}
	arrivals := []arrival{
		{due: 0, lint: lint, predict: predict},
		{due: 0.010, lint: lint, predict: predict},
		{due: 0.020, lint: lint, predict: predict},
		{due: 0.150, lint: lint, predict: predict}, // due inside the window, sendable only after it
	}
	tl := openLoop(context.Background(), c, arrivals, 1, 200*time.Millisecond)
	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("attempted %d, failed %d; want 4 and 3 (arrivals queued past the window)", tl.attempted, tl.failed)
	}
	if tl.wrong != 0 {
		t.Errorf("%d unsent arrivals counted as wrong answers", tl.wrong)
	}
	if len(tl.lats) != 1 || tl.lats[0] < float64(stall/time.Millisecond) {
		t.Errorf("latencies %v, want one of at least %v", tl.lats, stall)
	}

	// With a long window every arrival is sent, and the queued ones are
	// charged from their due time.
	first <- struct{}{}
	tl = openLoop(context.Background(), c, arrivals[:3], 1, 5*time.Second)
	if tl.failed != 0 || len(tl.lats) != 3 {
		t.Fatalf("failed %d, %d latencies", tl.failed, len(tl.lats))
	}
	sort.Float64s(tl.lats)
	for i, lat := range tl.lats {
		if want := float64(stall/time.Millisecond) - 25; lat < want {
			t.Errorf("latency %d is %.1f ms; a stalled queue must charge at least %.0f ms", i, lat, want)
		}
	}
	if quantile(tl.queue, 1) < float64(stall/time.Millisecond)-25 {
		t.Errorf("queue waits %v do not show the stall", tl.queue)
	}
}

func TestErrUnsentIsNotWrong(t *testing.T) {
	var tl tally
	tl.add(0, errUnsent)
	tl.add(0, errors.New("body differs"))
	if tl.failed != 2 || tl.wrong != 1 {
		t.Fatalf("failed %d wrong %d", tl.failed, tl.wrong)
	}
}

// TestTakenPortFailsSetUp checks that a replica whose fixed port is
// taken fails the set-up instead of moving to another port, which would
// change the gateway's unit placement.
func TestTakenPortFailsSetUp(t *testing.T) {
	l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", replicaPortBase))
	if err != nil {
		t.Skipf("port %d is in use elsewhere: %v", replicaPortBase, err)
	}
	defer l.Close()
	st, err := newStack(1, false, 1, nil)
	if err == nil {
		st.close()
		t.Fatal("set-up succeeded with the replica port taken")
	}
	if want := fmt.Sprint(replicaPortBase); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name port %s", err, want)
	}
}

func TestWarmRoutingSplitsUnits(t *testing.T) {
	ring := gateway.NewRing(0)
	var urls []string
	for i := 0; i < workloads[0].replicas; i++ {
		urls = append(urls, fmt.Sprintf("http://127.0.0.1:%d", replicaPortBase+i))
		ring.Add(urls[i])
	}
	owned := make(map[string]map[string]bool)
	for _, r := range warmTemplates(1, testPool(t)) {
		var p server.PredictRequest
		if err := json.Unmarshal(r.body, &p); err != nil {
			t.Fatal(err)
		}
		b, ok := ring.Lookup(p.ContentKey())
		if !ok {
			t.Fatal("empty ring")
		}
		if owned[b] == nil {
			owned[b] = make(map[string]bool)
		}
		owned[b][p.ContentKey()] = true
	}
	for _, u := range urls {
		if len(owned[u]) != 3 {
			t.Errorf("replica %s owns %d of the 6 warm units, want 3", u, len(owned[u]))
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesWorkloadsAndEndToEnd(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	m := endToEnd(workloads[0], []*tally{{lats: []float64{1}, attempted: 1, elapsed: time.Second}}, 1, 1)
	if len(m) != len(bf.EndToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(bf.EndToEnd), len(m))
	}
	for _, e := range bf.EndToEnd {
		if got, ok := m[e.Name]; !ok || got.Unit != e.Unit {
			t.Errorf("end-to-end metric %s (%s): reported as %+v", e.Name, e.Unit, got)
		}
	}
}

// TestTracedRun runs the traced run of zoo_lint_repeat briefly: its
// Chrome trace must validate, and it must report exactly the per-layer
// metrics BENCHMARK.json lists.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced lint workload")
	}
	ctx := context.Background()
	p, err := makePlan(ctx, workloads[1], 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "trace.json")
	res, err := runTraced(ctx, p, time.Second, out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 {
		t.Fatalf("traced run: correct %v, attempted %d", res.Correct, res.Attempted)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	names, err := obs.ValidateChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, n := range names {
		seen[n] = true
	}
	for _, n := range []string{"server.handler", "replay.cold", "replay.hit", "ptxanalysis.lint", "absint.analyze"} {
		if !seen[n] {
			t.Errorf("Chrome trace has no %s span", n)
		}
	}
	bf := readBenchmarkFile(t)
	if len(res.Metrics) != len(bf.PerLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(bf.PerLayer), len(res.Metrics))
	}
	for _, l := range bf.PerLayer {
		if got, ok := res.Metrics[l.Name]; !ok || got.Unit != l.Unit {
			t.Errorf("per-layer metric %s (%s): reported as %+v", l.Name, l.Unit, got)
		}
	}
}
