// Command perfbench is the repository's benchmark: it runs one named
// workload against the serving daemon's public HTTP surfaces, checks
// every reply against a library-computed oracle, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// separate traced run) as the last line of standard output.
//
//	perfbench --workload warm_predict_gw --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one named traffic shape and the topology it runs on.
type workload struct {
	name     string
	replicas int
	gateway  bool
	open     bool // open loop on an arrival schedule; otherwise closed loop
	// tail is the percentile latency_tail_ms reports. It is p99 where
	// that is steady and leaves enough samples beyond it, p90 elsewhere.
	tail float64
}

var workloads = []workload{
	// p99 of warm_predict_gw is set by the rare multi-millisecond stalls
	// of a shared machine and swung 5-15 ms between runs; p90 follows
	// the batch window and the gateway hop.
	{name: "warm_predict_gw", replicas: 2, gateway: true, tail: 0.90},
	{name: "zoo_lint_repeat", replicas: 1, tail: 0.90},
	{name: "fresh_ptx_open", replicas: 1, open: true, tail: 0.99},
}

const (
	// setupReps is how often a run builds its topology; setup_s is the
	// median.
	setupReps = 3
	// freshRate is the fresh_ptx_open arrival rate per second: about
	// half of what one replica completes with two connections busy on
	// a 2-vCPU machine.
	freshRate = 75
	// openGrace is how long an open-loop window stays open after its
	// last arrival was due. An arrival still unsent then failed: it
	// waited behind a stall, not only behind the arrivals just before.
	openGrace = 250 * time.Millisecond
	// closedRounds is how many shuffled rounds of the distinct requests
	// a closed-loop sequence holds before it repeats.
	closedRounds = 64
)

// clients is the number of client connections: two, or fewer on a
// machine with fewer CPUs.
func clients() int { return min(2, runtime.NumCPU()) }

// plan is everything a run sends, generated from the seed, with the
// oracle for it.
type plan struct {
	w        workload
	distinct []request   // closed loop: the distinct requests, sent once in set-up
	seq      []request   // closed loop: the measured sequence
	warmArr  []arrival   // open loop: the set-up modules
	windows  [][]arrival // open loop: one schedule per measured window
	orc      *oracle
}

// makePlan generates the workload's inputs and computes their oracle.
// windows is the number of measured windows an open loop needs.
func makePlan(ctx context.Context, w workload, seed int64, seconds float64, windows int) (*plan, error) {
	pool, err := kernelPool()
	if err != nil {
		return nil, err
	}
	p := &plan{w: w, orc: newOracle()}
	switch w.name {
	case "warm_predict_gw", "zoo_lint_repeat":
		round := warmTemplates(seed, pool)
		p.distinct = round
		if w.name == "zoo_lint_repeat" {
			p.distinct, round = lintTemplates(pool)
		}
		p.seq = rounds(newRand(seed+1), round, closedRounds)
		for _, r := range p.distinct {
			if err := p.orc.addExact(ctx, r); err != nil {
				return nil, err
			}
		}
	case "fresh_ptx_open":
		fp := freshArrivals(seed, pool, freshRate, seconds, windows)
		p.warmArr, p.windows = fp.warmup, fp.windows
		all := append([]arrival(nil), fp.warmup...)
		for _, win := range fp.windows {
			all = append(all, win...)
		}
		for _, a := range all {
			if err := p.orc.addRewritten(ctx, a, fp.orig[a.predict.key]); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	p.orc.release()
	return p, nil
}

// setUp builds the topology and sends the set-up pass: every distinct
// closed-loop request, or every open-loop warm-up module, once.
func setUp(ctx context.Context, p *plan, wrap wrapper) (*stack, *client, error) {
	st, err := newStack(p.w.replicas, p.w.gateway, clients(), wrap)
	if err != nil {
		return nil, nil, err
	}
	c := &client{st: st, check: p.orc.check}
	if p.w.open {
		reqs := make([]request, 0, 2*len(p.warmArr))
		for _, a := range p.warmArr {
			reqs = append(reqs, a.lint, a.predict)
		}
		// Lint before predict per module, as in the window.
		err = warmPass(ctx, c, reqs, 1)
	} else {
		err = warmPass(ctx, c, p.distinct, clients())
	}
	if err != nil {
		st.close()
		return nil, nil, fmt.Errorf("set-up pass: %w", err)
	}
	return st, c, nil
}

// measure runs one measured window; window selects the open-loop
// schedule. A collection first puts every window at the same point of
// the garbage collector's cycle.
func measure(ctx context.Context, p *plan, c *client, window int, dur time.Duration) *tally {
	runtime.GC()
	if p.w.open {
		return openLoop(ctx, c, p.windows[window], clients(), dur+openGrace)
	}
	return closedLoop(ctx, c, p.seq, clients(), dur)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics from the parts of a window.
// Throughput, the median and the failures pool the parts' samples. The
// tail is the median of the parts' tail percentiles, so one part that
// hits a stall of the machine does not set it alone.
func endToEnd(w workload, parts []*tally, setup, heap float64) map[string]metric {
	t := pool(parts)
	okFrac := 1.0
	if t.attempted > 0 {
		okFrac = 1 - float64(t.failed)/float64(t.attempted)
	}
	tails := make([]float64, len(parts))
	for i, p := range parts {
		tails[i] = quantile(p.lats, w.tail)
	}
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"throughput_rps":  {float64(len(t.lats)) / t.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":  {quantile(t.lats, 0.50), "ms"},
		"latency_tail_ms": {median(tails), "ms"},
		"ok_frac":         {okFrac, "frac"},
		"heap_mb":         {heap, "MB"},
	}
}

// heapMB is the live heap after forced collections. A run measures it
// once before its first set-up, with only the plan and its oracle live,
// and reports heap_mb as the growth over that baseline: the heap the
// topology holds at the end of the window.
func heapMB() float64 {
	// The second collection also empties the sync.Pool victim caches,
	// which survive the first.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runMeasured is the untraced run. It builds the topology setupReps
// times and measures one part of the window on each, so the measured
// seconds spread over the whole run rather than sitting in one stretch
// of it.
func runMeasured(ctx context.Context, p *plan, dur time.Duration) (result, []*tally, error) {
	setups := make([]float64, setupReps)
	parts := make([]*tally, setupReps)
	base := heapMB()
	var heap float64
	for i := range setups {
		t0 := time.Now()
		st, c, err := setUp(ctx, p, nil)
		if err != nil {
			return result{}, nil, err
		}
		setups[i] = time.Since(t0).Seconds()
		parts[i] = measure(ctx, p, c, i, dur/setupReps)
		if i == setupReps-1 {
			heap = heapMB() - base
		}
		st.close()
		runtime.GC()
	}
	t := pool(parts)
	res := result{
		Correct:   t.wrong == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   endToEnd(p.w, parts, median(setups), heap),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s set-ups %v s\n", p.w.name, setups)
	return res, parts, nil
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: warm_predict_gw, zoo_lint_repeat or fresh_ptx_open")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>")
		return 2
	}
	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second
	// Open loops draw one schedule per measured part: setupReps parts of
	// the window, or an untraced and a traced window.
	windows, windowDur := setupReps, dur/setupReps
	if *trace == 1 {
		windows, windowDur = 2, dur
	}
	t0 := time.Now()
	p, err := makePlan(ctx, *w, *seed, windowDur.Seconds(), windows)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s inputs and oracle in %.2f s\n", w.name, time.Since(t0).Seconds())
	var res result
	if *trace == 1 {
		res, err = runTraced(ctx, p, dur, filepath.Join(".bench_build", "perfbench-"+w.name+".trace.json"))
	} else {
		var parts []*tally
		res, parts, err = runMeasured(ctx, p, dur)
		if err == nil {
			report(p, res, parts)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable summary of an untraced run to
// standard error.
func report(p *plan, res result, parts []*tally) {
	t := pool(parts)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d attempted, %d failed (error_frac %.4f), %d latency samples, tail = p%.0f with %d beyond\n",
		p.w.name, t.attempted, t.failed, 1-res.Metrics["ok_frac"].Value, len(t.lats),
		100*p.w.tail, len(t.lats)-int(math.Ceil(p.w.tail*float64(len(t.lats)))))
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", t.firstErr)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		byPart := make([]float64, len(parts))
		for i, pt := range parts {
			byPart[i] = quantile(pt.lats, q)
		}
		fmt.Fprintf(os.Stderr, "  p%g: pooled %.3f ms, by part %.3f ms\n", 100*q, quantile(t.lats, q), byPart)
	}
	if p.w.open {
		fmt.Fprintf(os.Stderr, "  wake-up late p99 %.3f ms, max %.3f ms; queue wait p50 %.3f ms, p99 %.3f ms\n",
			quantile(t.late, 0.99), quantile(t.late, 1), quantile(t.queue, 0.5), quantile(t.queue, 0.99))
		share := p.newKernelShare()
		fmt.Fprintf(os.Stderr, "  kernels: %.3f new, %.3f repeated\n", share, 1-share)
	}
}

// newKernelShare is the share of the open loop's kernels that no
// earlier request carried; 0 for a closed loop.
func (p *plan) newKernelShare() float64 {
	var k, fresh int
	for _, w := range p.windows {
		for _, a := range w {
			k += a.kernels
			fresh += a.newKernels
		}
	}
	if k == 0 {
		return 0
	}
	return float64(fresh) / float64(k)
}
