package dca

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/obs"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
)

// KernelReport is the analysis result for one kernel launch.
type KernelReport struct {
	// Kernel is the kernel name.
	Kernel string
	// Node is the CNN graph node the kernel implements.
	Node string
	// Static is the static instruction count of the kernel body.
	Static int
	// SliceSize is the number of instructions in the control slice.
	SliceSize int
	// SliceFraction is SliceSize / Static.
	SliceFraction float64
	// DepEdges is |E| of the kernel's dependency graph.
	DepEdges int
	// PerThread is the dynamic instruction count of one in-bounds thread.
	PerThread int64
	// LoopIterations is the loop-trip total of one in-bounds thread
	// (taken backward branches) — what the dynamic code analysis
	// resolves that a static count cannot.
	LoopIterations int64
	// Executed is the dynamic instruction count over all launched threads.
	Executed int64
	// PerClass histograms Executed by instruction class.
	PerClass map[ptx.Class]int64
	// WorkingSetBytes is copied from the launch for the timing model.
	WorkingSetBytes int64
	// Threads is the number of in-bounds threads.
	Threads int64
	// BlockVisits is the launch-total execution count per CFG basic
	// block (cfg.Build block order, shared with ptxanalysis), scaled by
	// thread population like Executed. Populated only under
	// Options.BlockCounts, and nil when the kernel's control slice
	// cannot be compiled to bytecode — consumers must fall back to
	// unweighted static block features.
	BlockVisits []int64
}

// Report aggregates the dynamic code analysis over a whole program (one
// CNN): the total number of executed PTX instructions the paper uses as
// the p predictor, plus per-class totals consumed by the GPU simulator.
type Report struct {
	// Model is the analysed model's name.
	Model string
	// Kernels are the per-launch reports in execution order.
	Kernels []KernelReport
	// Executed is the total dynamic instruction count.
	Executed int64
	// PerClass histograms Executed by class.
	PerClass map[ptx.Class]int64
	// AnalysisTime is the wall-clock cost of the analysis (the paper's
	// t_dca).
	AnalysisTime time.Duration
	// MeanSliceFraction is the average control-slice share, showing how
	// little of the code the slicing interpreter had to evaluate.
	MeanSliceFraction float64
}

// Options configures the analysis.
type Options struct {
	// Exec tunes the abstract executor.
	Exec ExecOptions
	// SkipLint bypasses the static-analysis validation gate. Set by
	// AnalyzeProgram after it has linted each distinct kernel once, so
	// repeated launches of one kernel are not re-analysed.
	SkipLint bool
	// Cache memoizes per-kernel analysis results content-addressed by
	// the kernel's canonical text and launch configuration, so identical
	// kernels — within one model or across the whole zoo — are sliced
	// and abstractly executed exactly once. Nil disables memoization.
	Cache *analysiscache.Cache
	// BlockCounts additionally records per-basic-block execution counts
	// in KernelReport.BlockVisits (the dynamic weights of the per-block
	// static features). Off by default: the visit profile costs one
	// counter array per representative thread.
	BlockCounts bool
}

// lintGate rejects kernels whose static analysis reports error-severity
// diagnostics (use-before-def registers, unresolved branch targets):
// abstractly executing them would compute garbage or fail midway.
// LintErrors computes exactly the error-severity subset of the full
// lint, skipping the warning-only analyses the gate never looks at.
func lintGate(k *ptx.Kernel) error {
	return gateErr(k, ptxanalysis.LintErrors(k))
}

// cachedLintGate is lintGate memoizing the error-severity findings by
// kernel content.
func cachedLintGate(k *ptx.Kernel, c *analysiscache.Cache) error {
	if c == nil {
		return lintGate(k)
	}
	v, _, err := c.GetOrCompute(analysiscache.KernelKey("lint", k), func() (any, error) {
		return ptxanalysis.LintErrors(k), nil
	})
	if err != nil {
		return err
	}
	return gateErr(k, v.([]ptxanalysis.Diag))
}

// gateErr converts error-severity diagnostics into the gate rejection.
func gateErr(k *ptx.Kernel, errs []ptxanalysis.Diag) error {
	if len(errs) > 0 {
		return fmt.Errorf("dca: kernel %s rejected by static analysis: %s (%d error diagnostics)",
			k.Name, errs[0].Msg, len(errs))
	}
	return nil
}

// AnalyzeKernelLaunch slices and abstractly executes one kernel under its
// launch configuration. Threads of a launch differ only in whether the
// bounds check passes, so one in-bounds and (when the grid overcovers)
// one out-of-bounds representative suffice; the counts scale by thread
// population. With opts.Cache set, the result is memoized by kernel
// content and launch configuration.
func AnalyzeKernelLaunch(k *ptx.Kernel, l ptxgen.Launch, opts Options) (KernelReport, error) {
	return analyzeKernelLaunch(k, l, opts, nil, nil)
}

// kernelProgram bundles the per-kernel artifacts every launch of one
// kernel shares: the dependency graph, the control slice and the
// compiled bytecode. AnalyzeProgram prepares one per distinct kernel so
// repeated launches do not rebuild them.
type kernelProgram struct {
	cfg   *CFG // block structure for collapsing visit profiles
	g     *DepGraph
	slice *ControlSlice
	ck    *CompiledKernel // nil: run the reference interpreter
	// cfgErr is the structural CFG failure, reported per launch when
	// the lint gate is skipped.
	cfgErr error
}

// prepareKernel builds the launch-independent analysis artifacts.
func prepareKernel(k *ptx.Kernel, opts Options) *kernelProgram {
	kp := &kernelProgram{}
	var err error
	if kp.cfg, err = BuildCFG(k); err != nil {
		kp.cfgErr = err
		return kp
	}
	kp.g = BuildDepGraph(k)
	kp.slice = BuildControlSlice(k, kp.g)
	if !opts.Exec.Reference {
		kp.ck = compiledKernel(k, kp.slice, opts)
	}
	return kp
}

// analyzeKernelLaunch is AnalyzeKernelLaunch with an optional lazy
// provider of prepared per-kernel artifacts (nil: build them inline) and
// an optional reusable execution arena (nil: allocate one per call).
func analyzeKernelLaunch(k *ptx.Kernel, l ptxgen.Launch, opts Options, prep func() *kernelProgram, ar *execArena) (KernelReport, error) {
	kr, _, err := analyzeKernelLaunchHit(k, l, opts, prep, ar)
	return kr, err
}

// analyzeKernelLaunchHit additionally reports whether the result came
// out of the analysis cache, for span attribution.
func analyzeKernelLaunchHit(k *ptx.Kernel, l ptxgen.Launch, opts Options, prep func() *kernelProgram, ar *execArena) (KernelReport, bool, error) {
	if k == nil {
		return KernelReport{}, false, fmt.Errorf("dca: nil kernel")
	}
	if opts.Cache == nil {
		kr, err := analyzeKernelLaunchUncached(k, l, opts, prep, ar)
		return kr, false, err
	}
	key := launchKey(k, l, opts)
	// GetOrCompute runs the closure on the calling goroutine, so the
	// caller's arena never crosses goroutines; cached reports retain no
	// arena-backed memory (BlockVisits is freshly allocated).
	v, hit, err := opts.Cache.GetOrCompute(key, func() (any, error) {
		kr, err := analyzeKernelLaunchUncached(k, l, opts, prep, ar)
		if err != nil {
			return nil, err
		}
		return &kr, nil
	})
	if err != nil {
		return KernelReport{}, hit, err
	}
	// The cached report may come from a content-identical kernel under a
	// different name or launch identity; re-stamp the launch-specific
	// fields (none of which influence the counts) and detach the class
	// histogram so callers cannot mutate the shared entry.
	kr := *(v.(*KernelReport))
	kr.Kernel = k.Name
	kr.Node = l.Node
	kr.WorkingSetBytes = l.WorkingSetBytes
	perClass := make(map[ptx.Class]int64, len(kr.PerClass))
	for c, n := range kr.PerClass {
		perClass[c] = n
	}
	kr.PerClass = perClass
	if kr.BlockVisits != nil {
		kr.BlockVisits = append([]int64(nil), kr.BlockVisits...)
	}
	return kr, hit, nil
}

// launchKey derives the memoization key of one (kernel, launch) pair:
// the canonical kernel text plus every launch and executor knob that can
// influence the counted result. WorkingSetBytes and the node identity
// are deliberately excluded — they are carried through the report but do
// not affect the abstract execution.
func launchKey(k *ptx.Kernel, l ptxgen.Launch, opts Options) string {
	var params strings.Builder
	for i, p := range k.Params {
		fmt.Fprintf(&params, "%d=%d;", i, l.Params[p.Name])
	}
	return analysiscache.KernelKey("dca", k,
		fmt.Sprintf("grid=%d;block=%d;threads=%d;full=%t;maxsteps=%d;lint=%t;ref=%t;bb=%t",
			l.GridX, l.BlockX, l.Threads, opts.Exec.Full, opts.Exec.MaxSteps, opts.SkipLint, opts.Exec.Reference, opts.BlockCounts),
		params.String())
}

// compiledKernel returns the bytecode form of the kernel's control
// slice, memoized by kernel content and the executor knobs baked into
// the compiled program. A nil return means the kernel cannot be
// compiled; the caller falls back to the reference interpreter.
func compiledKernel(k *ptx.Kernel, slice *ControlSlice, opts Options) *CompiledKernel {
	if opts.Cache == nil {
		ck, err := Compile(k, slice, opts.Exec)
		if err != nil {
			return nil
		}
		return ck
	}
	key := analysiscache.KernelKey("dcac", k,
		fmt.Sprintf("full=%t;maxsteps=%d", opts.Exec.Full, opts.Exec.effectiveMaxSteps()))
	v, _, err := opts.Cache.GetOrCompute(key, func() (any, error) {
		return Compile(k, slice, opts.Exec)
	})
	if err != nil {
		return nil
	}
	return v.(*CompiledKernel)
}

// analyzeKernelLaunchUncached is the memoization-free analysis body.
func analyzeKernelLaunchUncached(k *ptx.Kernel, l ptxgen.Launch, opts Options, prep func() *kernelProgram, ar *execArena) (KernelReport, error) {
	if ar == nil {
		ar = newExecArena()
	}
	if !opts.SkipLint {
		if err := lintGate(k); err != nil {
			return KernelReport{}, err
		}
	}
	var kp *kernelProgram
	if prep != nil {
		kp = prep()
	} else {
		kp = prepareKernel(k, opts)
	}
	if kp.cfgErr != nil { // structural validation (lint subsumes it)
		return KernelReport{}, kp.cfgErr
	}
	slice := kp.slice

	// Block-count instrumentation: only the bytecode engine carries the
	// per-instruction visit counters. Under Reference mode (or after a
	// compiler bailout) the bytecode is compiled on the side purely for
	// the profile — the engines are differentially verified identical,
	// so the replay cannot change the report — and a kernel the
	// compiler rejects simply reports nil BlockVisits.
	vck := kp.ck
	if opts.BlockCounts && vck == nil {
		vck = compiledKernel(k, slice, opts)
	}
	visitsOK := true

	rep := KernelReport{
		Kernel:          k.Name,
		Node:            l.Node,
		Static:          len(k.Body),
		SliceSize:       slice.Size,
		SliceFraction:   slice.Fraction(),
		DepEdges:        kp.g.Edges(),
		PerClass:        make(map[ptx.Class]int64),
		WorkingSetBytes: l.WorkingSetBytes,
		Threads:         l.Threads,
	}

	total := int64(l.GridX) * int64(l.BlockX)
	active := l.Threads
	oob := total - active
	runOob := oob > 0 && active <= total
	wantVisits := opts.BlockCounts && vck != nil

	var inVisits, oobVisits []int64
	if wantVisits {
		inVisits = ar.i64.take(len(k.Body))
		if runOob {
			oobVisits = ar.i64.take(len(k.Body))
		}
	}
	inCtx := ThreadCtx{CtaID: 0, Tid: 0, NTid: int64(l.BlockX), NCtaID: int64(l.GridX)}
	oobCtx := ThreadCtx{CtaID: int64(l.GridX) - 1, Tid: int64(l.BlockX) - 1, NTid: int64(l.BlockX), NCtaID: int64(l.GridX)}

	// Engine selection: the compiled engine runs both representatives on
	// the caller's arena; opts.Exec.Reference (or a compiler bailout)
	// runs the reference tree-walking interpreter. Both produce identical
	// results — the differential fuzz target and the zoo-wide
	// equivalence tests enforce it.
	exec := func(tc ThreadCtx, visits []int64) (ExecResult, error) {
		if kp.ck != nil {
			return kp.ck.execute(k, l.Params, tc, visits, ar)
		}
		res, err := ExecuteThread(k, slice, l.Params, tc, opts.Exec)
		if err == nil && visits != nil {
			if _, verr := vck.execute(k, l.Params, tc, visits, ar); verr != nil {
				visitsOK = false
			}
		}
		return res, err
	}
	inRes, inErr := exec(inCtx, inVisits)
	var oobRes ExecResult
	var oobErr error
	if inErr == nil && runOob {
		oobRes, oobErr = exec(oobCtx, oobVisits)
	}
	if inErr != nil {
		return rep, fmt.Errorf("dca: kernel %s: %w", k.Name, inErr)
	}
	rep.PerThread = inRes.Steps
	rep.LoopIterations = inRes.BackBranches

	if active > total {
		return rep, fmt.Errorf("dca: kernel %s: %d threads exceed grid capacity %d", k.Name, active, total)
	}

	rep.Executed = active * inRes.Steps
	// The dense histogram converts to the sparse report map here, at the
	// serialization boundary: only classes the thread touched get an
	// entry (an entry may still be zero when active is zero, matching
	// the historical map encoding).
	for c, v := range &inRes.PerClass {
		if v != 0 {
			rep.PerClass[ptx.Class(c)] += active * v
		}
	}
	if oob > 0 {
		if oobErr != nil {
			return rep, fmt.Errorf("dca: kernel %s (oob thread): %w", k.Name, oobErr)
		}
		rep.Executed += oob * oobRes.Steps
		for c, v := range &oobRes.PerClass {
			if v != 0 {
				rep.PerClass[ptx.Class(c)] += oob * v
			}
		}
	}
	if inVisits != nil && visitsOK {
		// Collapse the per-instruction profile to per-block launch
		// totals: a block's visit count is its first instruction's (an
		// early thread exit can starve a block's tail, never its head).
		rep.BlockVisits = make([]int64, len(kp.cfg.Blocks))
		for bi, b := range kp.cfg.Blocks {
			v := active * inVisits[b.Start]
			if oobVisits != nil {
				v += oob * oobVisits[b.Start]
			}
			rep.BlockVisits[bi] = v
		}
	}
	return rep, nil
}

// AnalyzeProgram runs the dynamic code analysis over every launch of a
// compiled CNN and aggregates the executed-instruction totals.
func AnalyzeProgram(prog *ptxgen.Program, opts Options) (*Report, error) {
	return AnalyzeProgramContext(context.Background(), prog, opts)
}

// AnalyzeProgramContext is AnalyzeProgram with span tracing: when ctx
// carries an obs tracer (or span), the lint gate, each per-kernel
// compile and each per-launch abstract execution are recorded as nested
// spans. Tracing never changes the computed report.
func AnalyzeProgramContext(ctx context.Context, prog *ptxgen.Program, opts Options) (*Report, error) {
	if prog == nil {
		return nil, fmt.Errorf("dca: nil program")
	}
	start := time.Now()
	ctx, span := obs.Start(ctx, "dca.analyze",
		obs.String("model", prog.Model), obs.Int("launches", len(prog.Launches)))
	defer span.End()
	rep := &Report{Model: prog.Model, PerClass: make(map[ptx.Class]int64)}
	// Gate every distinct kernel once up front; the per-launch loop can
	// then skip re-linting (a kernel may be launched many times). With a
	// cache, the error-severity findings are memoized by content, so a
	// kernel shape shared across models is linted exactly once.
	if !opts.SkipLint {
		_, lintSpan := obs.Start(ctx, "dca.lint")
		linted := make(map[string]bool, len(prog.Launches))
		for _, l := range prog.Launches {
			if linted[l.Kernel] {
				continue
			}
			linted[l.Kernel] = true
			k := prog.Module.Kernel(l.Kernel)
			if k == nil {
				lintSpan.End()
				return nil, fmt.Errorf("dca: launch references unknown kernel %q", l.Kernel)
			}
			if err := cachedLintGate(k, opts.Cache); err != nil {
				lintSpan.End()
				return nil, err
			}
		}
		lintSpan.SetAttr(obs.Int("kernels", len(linted)))
		lintSpan.End()
		opts.SkipLint = true
	}
	// One kernel is launched many times with different parameters; its
	// launch-independent artifacts (dependency graph, control slice,
	// compiled bytecode) are prepared lazily once and shared.
	prepared := make(map[string]*kernelProgram, 8)
	// One arena serves every launch of the program: reset (never freed)
	// between launches, so after the first few launches warm the slabs
	// the per-launch executions allocate nothing.
	ar := newExecArena()
	var sliceSum float64
	for _, l := range prog.Launches {
		k := prog.Module.Kernel(l.Kernel)
		if k == nil {
			return nil, fmt.Errorf("dca: launch references unknown kernel %q", l.Kernel)
		}
		execCtx, execSpan := obs.Start(ctx, "dca.exec",
			obs.String("kernel", k.Name), obs.String("node", l.Node))
		kr, hit, err := analyzeKernelLaunchHit(k, l, opts, func() *kernelProgram {
			kp := prepared[k.Name]
			if kp == nil {
				_, compileSpan := obs.Start(execCtx, "dca.compile", obs.String("kernel", k.Name))
				kp = prepareKernel(k, opts)
				compileSpan.End()
				prepared[k.Name] = kp
			}
			return kp
		}, ar)
		ar.reset()
		if err != nil {
			execSpan.End()
			return nil, err
		}
		execSpan.SetAttr(obs.Bool("cache_hit", hit),
			obs.Int64("executed", kr.Executed), obs.Int64("loop_iterations", kr.LoopIterations))
		execSpan.End()
		rep.Kernels = append(rep.Kernels, kr)
		rep.Executed += kr.Executed
		// Accumulate in class order, not map order: insertion order into
		// rep.PerClass is then deterministic across runs and engines.
		for c := 0; c < ptx.NumClasses; c++ {
			if v, ok := kr.PerClass[ptx.Class(c)]; ok {
				rep.PerClass[ptx.Class(c)] += v
			}
		}
		sliceSum += kr.SliceFraction
	}
	if len(rep.Kernels) > 0 {
		rep.MeanSliceFraction = sliceSum / float64(len(rep.Kernels))
	}
	rep.AnalysisTime = time.Since(start)
	return rep, nil
}
