package dca

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestBatchedArenaReuse runs batches of threads of every divergence
// kernel through one arena, resetting it after each batch — the
// production AnalyzeProgram pattern — and requires the recycled buffers
// to never leak state from one execution into the next.
func TestBatchedArenaReuse(t *testing.T) {
	ar := newExecArena()
	for round := 0; round < 3; round++ {
		for _, tc := range divergenceKernels {
			k := parseOne(t, tc.body)
			opts := ExecOptions{Full: tc.full, MaxSteps: tc.maxSteps}
			slice := BuildControlSlice(k, BuildDepGraph(k))
			ck, err := Compile(k, slice, opts)
			if err != nil {
				t.Fatalf("%s: Compile: %v", tc.name, err)
			}
			for i, ctx := range ctxRange(0, 12, 32, 2) {
				got, gerr := ck.execute(k, tc.params, ctx, nil, ar)
				want, werr := ExecuteThread(k, slice, tc.params, ctx, opts)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s round %d lane %d: error disagreement: %v vs %v", tc.name, round, i, werr, gerr)
				}
				if werr == nil && got != want {
					t.Fatalf("%s round %d lane %d: diverged after arena reuse", tc.name, round, i)
				}
			}
			ar.reset()
		}
	}
}

// TestBatchedConcurrentArenas executes threads from many goroutines,
// each with a private arena, against one shared CompiledKernel — the
// server's concurrency shape — and checks both per-thread correctness
// (under -race, also memory safety) and that no goroutines leak.
func TestBatchedConcurrentArenas(t *testing.T) {
	k := parseOne(t, divergenceKernels[2].body) // tid-dependent trip counts
	opts := ExecOptions{}
	slice := BuildControlSlice(k, BuildDepGraph(k))
	ck, err := Compile(k, slice, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctxs := ctxRange(0, 32, 32, 2)
	want := make([]ExecResult, len(ctxs))
	for i, ctx := range ctxs {
		res, rerr := ExecuteThread(k, slice, nil, ctx, opts)
		if rerr != nil {
			t.Fatal(rerr)
		}
		want[i] = res
	}
	before := runtime.NumGoroutine()
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := newExecArena()
			for iter := 0; iter < 50; iter++ {
				for i, ctx := range ctxs {
					res, rerr := ck.execute(k, nil, ctx, nil, ar)
					if rerr != nil || res != want[i] {
						errs <- fmt.Errorf("lane %d diverged concurrently: %+v err=%v", i, res, rerr)
						return
					}
				}
				ar.reset()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across concurrent execution: %d before, %d after", before, after)
	}
}
