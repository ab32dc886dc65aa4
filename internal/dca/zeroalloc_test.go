package dca

import (
	"testing"

	"cnnperf/internal/ptx"
)

// TestZeroAlloc pins the arena's allocation guarantee: once the arena
// is warm, steady-state compiled execution of a thread performs exactly
// zero heap allocations per run.
// The gate runs in CI with -count=1; any regression (an escaping
// closure, a map materialization, a slice growing past its slab) fails
// the build rather than silently eroding throughput.
func TestZeroAlloc(t *testing.T) {
	type workload struct {
		name   string
		k      *ptx.Kernel
		ck     *CompiledKernel
		params map[string]int64
	}
	var loads []workload
	for _, tc := range []struct {
		name string
		body string
	}{
		{"uniform_loop", divergenceKernels[0].body},
		{"tid_branch_diverges", divergenceKernels[1].body},
		{"tid_trip_counts", divergenceKernels[2].body},
		{"ne_exit_iterated", divergenceKernels[11].body},
	} {
		k := parseOne(t, tc.body)
		ck, err := Compile(k, BuildControlSlice(k, BuildDepGraph(k)), ExecOptions{})
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		loads = append(loads, workload{tc.name, k, ck, nil})
	}
	// The heaviest real workload: the deepest loop nest in the
	// resnet50v2 schedule.
	prog := compileZoo(t, "resnet50v2")
	rk, rl := heaviestLaunch(t, prog)
	rck, err := Compile(rk, BuildControlSlice(rk, BuildDepGraph(rk)), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loads = append(loads, workload{"resnet50v2_heaviest", rk, rck, rl.Params})

	for _, w := range loads {
		t.Run(w.name+"/single", func(t *testing.T) {
			ctx := ThreadCtx{Tid: 3, CtaID: 1, NTid: 32, NCtaID: 8}
			ar := newExecArena()
			if _, err := w.ck.execute(w.k, w.params, ctx, nil, ar); err != nil {
				t.Fatal(err)
			}
			ar.reset()
			avg := testing.AllocsPerRun(50, func() {
				_, _ = w.ck.execute(w.k, w.params, ctx, nil, ar)
				ar.reset()
			})
			if avg != 0 {
				t.Errorf("%s: %v allocs per warm single-lane execution, want 0", w.name, avg)
			}
		})
	}
}
