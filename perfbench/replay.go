package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/core"
	"cnnperf/internal/dca"
	"cnnperf/internal/gpu"
	"cnnperf/internal/mlearn"
	"cnnperf/internal/mlearn/dataset"
	"cnnperf/internal/obs"
	"cnnperf/internal/profiler"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxanalysis/absint"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/server"
	"cnnperf/internal/zoo"
)

// replayArrivals bounds how many arrivals of the traced fresh_ptx_open
// window the replay repeats.
const replayArrivals = 100

// replay sends a workload's inputs sequentially through the exported
// library functions each layer is made of, timing every call. A cold
// pass runs every layer; a hit pass then repeats the cached layers on
// the same caches. Every call of a cached layer in the cold pass starts
// from a fresh cache of its own, one per layer and unit (or excluded
// model, for an estimator build), so it is served neither by another
// layer's work nor by an earlier unit's.
type replay struct {
	rec    *recorder
	p      *plan
	inputs []request
	// warmed are the keys the replicas saw before the traced window.
	warmed map[string]bool

	caches map[string]*analysiscache.Cache // by layer and unit
	ests   map[string]*core.Estimator      // by excluded model, per pass
	units  map[string]*core.ModelAnalysis

	unitOf   map[string]string        // request key -> unit content key
	lib      map[string]time.Duration // request key -> predict + encode
	analysis map[string]time.Duration // unit content key -> cold analysis

	kernels, executed, diags int64
}

func newReplay(rec *recorder, p *plan) *replay {
	rp := &replay{
		rec:      rec,
		p:        p,
		warmed:   make(map[string]bool),
		caches:   make(map[string]*analysiscache.Cache),
		unitOf:   make(map[string]string),
		lib:      make(map[string]time.Duration),
		analysis: make(map[string]time.Duration),
	}
	if p.w.open {
		for _, a := range append(append([]arrival(nil), p.warmArr...), p.windows[0]...) {
			rp.warmed[a.lint.key], rp.warmed[a.predict.key] = true, true
		}
		traced := p.windows[1]
		for _, a := range traced[:min(replayArrivals, len(traced))] {
			rp.inputs = append(rp.inputs, a.lint, a.predict)
		}
	} else {
		for _, r := range p.distinct {
			rp.warmed[r.key] = true
		}
		rp.inputs = p.distinct
	}
	return rp
}

// libWork is the library time behind a traced predict: encode and
// predict, plus the analysis when the unit was a miss.
func (rp *replay) libWork(key string, miss bool) (time.Duration, bool) {
	d, ok := rp.lib[key]
	if !ok {
		return 0, false
	}
	if miss {
		d += rp.analysis[rp.unitOf[key]]
	}
	return d, true
}

// cfg is the pipeline configuration of a cached layer: the server's
// defaults, serial, over the cache of the layer and unit.
func (rp *replay) cfg(layer, unit string) core.Config {
	c := core.DefaultConfig()
	c.Workers = 1
	c.Cache = rp.cache(layer, unit)
	return c
}

// cache is the cache of one layer and unit: empty in the cold pass,
// filled by it in the hit pass.
func (rp *replay) cache(layer, unit string) *analysiscache.Cache {
	key := layer + "|" + unit
	c, ok := rp.caches[key]
	if !ok {
		c = analysiscache.New(0)
		rp.caches[key] = c
	}
	return c
}

// run makes the cold and the hit pass.
func (rp *replay) run(ctx context.Context) error {
	ctx = obs.WithTracer(ctx, rp.rec.tr)
	for _, hit := range []bool{false, true} {
		rp.rec.hit = hit
		rp.ests = make(map[string]*core.Estimator)
		rp.units = make(map[string]*core.ModelAnalysis)
		name := "replay.cold"
		if hit {
			name = "replay.hit"
		}
		err := rp.rec.span(ctx, name, func(ctx context.Context) error {
			for _, req := range rp.inputs {
				if err := rp.one(ctx, req, hit); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	rp.rec.hit = false
	return nil
}

// timed runs f as a call of the named layer; in the hit pass only
// cached layers are timed (the others are not cache-dependent).
func (rp *replay) timed(ctx context.Context, name string, f func(ctx context.Context) error) error {
	if rp.rec.hit && !cachedLayers[name] {
		return f(ctx)
	}
	return rp.rec.span(ctx, name, f)
}

func (rp *replay) one(ctx context.Context, req request, hit bool) error {
	switch req.path {
	case "/v1/lint":
		if hit {
			return nil // lint is uncached
		}
		var l server.LintRequest
		if err := json.Unmarshal(req.body, &l); err != nil {
			return err
		}
		return rp.lint(ctx, l)
	case "/v1/predict":
		var p server.PredictRequest
		if err := json.Unmarshal(req.body, &p); err != nil {
			return err
		}
		return rp.predict(ctx, req, p, hit)
	}
	return fmt.Errorf("replay: unknown path %s", req.path)
}

// module obtains the module of a zoo model (ptxgen) or raw PTX (parse),
// with the launches the analysis runs.
func (rp *replay) module(ctx context.Context, model, src string) (*ptxgen.Program, error) {
	var prog *ptxgen.Program
	if model != "" {
		m, err := zoo.Build(model)
		if err != nil {
			return nil, err
		}
		err = rp.timed(ctx, "ptxgen.compile", func(context.Context) error {
			prog, err = ptxgen.Compile(m, core.DefaultConfig().PTX)
			return err
		})
		return prog, err
	}
	var mod *ptx.Module
	err := rp.timed(ctx, "ptx.parse", func(context.Context) error {
		var err error
		mod, err = ptx.Parse(src)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &ptxgen.Program{Model: "ptx", Module: mod, Launches: syntheticLaunches(mod)}, nil
}

// syntheticLaunches mirrors the one launch per kernel that
// core.AnalyzePTXContext gives raw PTX under the default geometry (two
// blocks of 32 threads, parameter i set to 7+13i).
func syntheticLaunches(m *ptx.Module) []ptxgen.Launch {
	const gridX, blockX = 2, 32
	out := make([]ptxgen.Launch, 0, len(m.Kernels))
	for _, k := range m.Kernels {
		params := make(map[string]int64, len(k.Params))
		for i, p := range k.Params {
			params[p.Name] = int64(7 + 13*i)
		}
		out = append(out, ptxgen.Launch{
			Kernel: k.Name, GridX: gridX, BlockX: blockX, Threads: gridX * blockX,
			Params: params, WorkingSetBytes: gridX * blockX * 8, Node: k.Name,
		})
	}
	return out
}

// lint replays /v1/lint: the module, the full lint, and per kernel the
// liveness and abstract-interpretation passes the lint runs.
func (rp *replay) lint(ctx context.Context, l server.LintRequest) error {
	prog, err := rp.module(ctx, l.Model, l.PTX)
	if err != nil {
		return err
	}
	err = rp.timed(ctx, "ptxanalysis.lint", func(context.Context) error {
		rp.diags += int64(len(ptxanalysis.Lint(prog.Module)))
		return nil
	})
	if err != nil {
		return err
	}
	for _, k := range prog.Module.Kernels {
		g, err := dca.BuildCFG(k)
		if err != nil {
			return err
		}
		_ = rp.timed(ctx, "ptxanalysis.liveness", func(context.Context) error {
			ptxanalysis.ComputeLiveness(k, g)
			return nil
		})
		_ = rp.timed(ctx, "absint.analyze", func(context.Context) error {
			absint.Analyze(k, g)
			return nil
		})
	}
	return nil
}

// predict replays /v1/predict: the unit's estimator and analysis once
// per pass, then the per-request prediction and JSON encoding, whose
// bytes must equal the oracle's.
func (rp *replay) predict(ctx context.Context, req request, p server.PredictRequest, hit bool) error {
	unitKey := p.ContentKey()
	rp.unitOf[req.key] = unitKey
	est, ok := rp.ests[p.Model]
	if !ok {
		err := rp.timed(ctx, "core.estimator_build", func(ctx context.Context) error {
			var err error
			est, err = rp.buildEstimator(ctx, p.Model)
			return err
		})
		if err != nil {
			return err
		}
		rp.ests[p.Model] = est
	}
	a, ok := rp.units[unitKey]
	if !ok {
		var err error
		a, err = rp.unit(ctx, p, unitKey, hit)
		if err != nil {
			return err
		}
		rp.units[unitKey] = a
	}
	if hit {
		return nil // prediction and encoding are not cache-dependent
	}
	var (
		preds []core.Prediction
		body  []byte
	)
	t0 := time.Now()
	err := rp.timed(ctx, "core.predict", func(ctx context.Context) error {
		var err error
		preds, err = core.PredictAnalyzedContext(ctx, est, a, p.GPUs)
		return err
	})
	if err != nil {
		return err
	}
	err = rp.timed(ctx, "server.json_encode", func(context.Context) error {
		var err error
		body, err = encodeIndent(predictResponse(a, preds))
		return err
	})
	if err != nil {
		return err
	}
	rp.lib[req.key] = time.Since(t0)
	if !bytes.Equal(body, rp.p.orc.bodies[req.key]) {
		return fmt.Errorf("replay: predict body differs from the oracle")
	}
	return nil
}

// unit analyses one predict unit through core, and again stage by
// stage through dca and ptxanalysis; the stages must agree with core.
func (rp *replay) unit(ctx context.Context, p server.PredictRequest, unitKey string, hit bool) (*core.ModelAnalysis, error) {
	var a *core.ModelAnalysis
	var maxSteps int64
	t0 := time.Now()
	var err error
	if p.Model != "" {
		err = rp.timed(ctx, "core.analyze_cnn", func(ctx context.Context) error {
			a, err = core.AnalyzeCNNContext(ctx, p.Model, rp.cfg("core.analyze", unitKey))
			return err
		})
	} else {
		maxSteps = serverPTXMaxSteps
		err = rp.timed(ctx, "core.analyze_ptx", func(ctx context.Context) error {
			a, err = core.AnalyzePTXContext(ctx, p.PTX, core.PTXOptions{
				TrainableParams: p.TrainableParams, GridX: p.GridX, BlockX: p.BlockX, MaxSteps: maxSteps,
			}, rp.cfg("core.analyze", unitKey))
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	if !hit {
		rp.analysis[unitKey] = time.Since(t0)
	}
	prog, err := rp.module(ctx, p.Model, p.PTX)
	if err != nil {
		return nil, err
	}
	var rep *dca.Report
	err = rp.timed(ctx, "dca.analyze_program", func(ctx context.Context) error {
		rep, err = dca.AnalyzeProgramContext(ctx, prog, dca.Options{
			Cache: rp.cache("dca.analyze_program", unitKey),
			Exec:  dca.ExecOptions{MaxSteps: maxSteps},
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	if rep.Executed != a.Report.Executed {
		return nil, fmt.Errorf("replay: dca counts %d executed instructions, core %d", rep.Executed, a.Report.Executed)
	}
	err = rp.timed(ctx, "ptxanalysis.analyze_module", func(ctx context.Context) error {
		_, err := ptxanalysis.AnalyzeModuleCachedContext(ctx, prog.Module, rp.cache("ptxanalysis.analyze_module", unitKey))
		return err
	})
	if err != nil {
		return nil, err
	}
	if !hit {
		if err := rp.kernelChain(ctx, prog, maxSteps); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// kernelChain runs every distinct kernel of prog through the stages of
// the dynamic code analysis one by one: cache key, lint gate, CFG,
// dependency graph, control slice, bytecode compile, and the execution
// of one in-bounds representative thread of its first launch.
func (rp *replay) kernelChain(ctx context.Context, prog *ptxgen.Program, maxSteps int64) error {
	done := make(map[string]bool)
	opts := dca.ExecOptions{MaxSteps: maxSteps}
	for _, l := range prog.Launches {
		if done[l.Kernel] {
			continue
		}
		done[l.Kernel] = true
		k := prog.Module.Kernel(l.Kernel)
		if k == nil {
			return fmt.Errorf("replay: launch of unknown kernel %q", l.Kernel)
		}
		var (
			dg  *dca.DepGraph
			sl  *dca.ControlSlice
			ck  *dca.CompiledKernel
			res dca.ExecResult
		)
		steps := []struct {
			name string
			f    func() error
		}{
			{"analysiscache.key", func() error { analysiscache.KernelKey("dca", k); return nil }},
			{"ptxanalysis.lint_gate", func() error {
				if errs := ptxanalysis.LintErrors(k); len(errs) > 0 {
					return fmt.Errorf("replay: kernel %s fails the lint gate: %s", k.Name, errs[0].Msg)
				}
				return nil
			}},
			{"dca.build_cfg", func() error { _, err := dca.BuildCFG(k); return err }},
			{"dca.dep_graph", func() error { dg = dca.BuildDepGraph(k); return nil }},
			{"dca.control_slice", func() error { sl = dca.BuildControlSlice(k, dg); return nil }},
			{"dca.compile", func() error {
				// A kernel the compiler rejects runs on the reference
				// interpreter, as in the analysis itself.
				ck, _ = dca.Compile(k, sl, opts)
				return nil
			}},
			{"dca.exec", func() error {
				tc := dca.ThreadCtx{NTid: int64(l.BlockX), NCtaID: int64(l.GridX)}
				var err error
				if ck != nil {
					res, err = ck.Execute(k, l.Params, tc)
				} else {
					res, err = dca.ExecuteThread(k, sl, l.Params, tc, opts)
				}
				return err
			}},
		}
		for _, s := range steps {
			if err := rp.timed(ctx, s.name, func(context.Context) error { return s.f() }); err != nil {
				return err
			}
		}
		rp.kernels++
		rp.executed += res.Steps
	}
	return nil
}

// buildEstimator rebuilds core.LeaveOneOutEstimatorContext from its
// exported parts, so its layers are timed separately: the analysis of
// each training CNN (core.estimator_build.analyze_cnn, apart from the
// unit analyses of core.analyze_cnn), the profiler run on each training
// GPU, and the decision-tree fit. The predict bodies checked against
// the oracle confirm the rebuilt estimator is the served one.
func (rp *replay) buildEstimator(ctx context.Context, exclude string) (*core.Estimator, error) {
	cfg := rp.cfg("core.estimator_build", exclude)
	pc := cfg.Prof
	pc.Sim = cfg.Sim
	ds := dataset.New(core.FeatureNames)
	for _, name := range core.LeaveOneOutModels(exclude) {
		var a *core.ModelAnalysis
		err := rp.timed(ctx, "core.estimator_build.analyze_cnn", func(ctx context.Context) error {
			var err error
			a, err = core.AnalyzeCNNContext(ctx, name, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, id := range gpu.TrainingGPUs {
			spec, err := gpu.Lookup(id)
			if err != nil {
				return nil, err
			}
			var prof *profiler.Profile
			err = rp.timed(ctx, "profiler.run", func(context.Context) error {
				var err error
				prof, err = profiler.RunWithReport(a.Report, spec, pc)
				return err
			})
			if err != nil {
				return nil, err
			}
			if err := ds.Append(name+"@"+id, a.Features(spec), prof.IPC); err != nil {
				return nil, err
			}
		}
	}
	reg := mlearn.NewDecisionTree()
	err := rp.timed(ctx, "mlearn.fit", func(context.Context) error {
		X, y := ds.XY()
		return reg.Fit(X, y)
	})
	if err != nil {
		return nil, err
	}
	return &core.Estimator{Regressor: reg, Schema: ds.FeatureNames}, nil
}
