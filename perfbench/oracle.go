package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/core"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/server"
	"cnnperf/internal/zoo"
)

// serverPTXMaxSteps is the default server.Config.PTXMaxSteps the
// replicas run with; the oracle analyses raw PTX under the same cap.
const serverPTXMaxSteps = 5_000_000

// oracle holds the expected outcome of every request a run can send. It
// is computed once per invocation, before any timed interval, through
// the library with a cache of its own.
type oracle struct {
	// bodies are exact expected response bodies, by request key.
	bodies map[string][]byte
	// lints are the expected diagnostic code counts of rewritten
	// modules, whose messages name renumbered registers.
	lints map[string]string

	cfg  core.Config
	ests map[string]*core.Estimator
}

func newOracle() *oracle {
	cfg := core.DefaultConfig()
	cfg.Cache = analysiscache.New(0)
	return &oracle{
		bodies: make(map[string][]byte),
		lints:  make(map[string]string),
		cfg:    cfg,
		ests:   make(map[string]*core.Estimator),
	}
}

// encodeIndent renders v exactly as the server's JSON writer does.
func encodeIndent(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// estimator returns the estimator the server scores a unit with: the
// leave-one-out estimator excluding the model, or the full-inventory
// one for raw PTX (exclude "").
func (o *oracle) estimator(ctx context.Context, exclude string) (*core.Estimator, error) {
	if e, ok := o.ests[exclude]; ok {
		return e, nil
	}
	e, err := core.LeaveOneOutEstimatorContext(ctx, exclude, o.cfg)
	if err != nil {
		return nil, err
	}
	o.ests[exclude] = e
	return e, nil
}

// predictBody computes the response /v1/predict gives for p, analysing
// src in place of p.PTX for raw-PTX units (the unrewritten source of a
// rewritten module).
func (o *oracle) predictBody(ctx context.Context, p server.PredictRequest, src string) ([]byte, error) {
	est, err := o.estimator(ctx, p.Model)
	if err != nil {
		return nil, err
	}
	var a *core.ModelAnalysis
	if p.Model != "" {
		a, err = core.AnalyzeCNNContext(ctx, p.Model, o.cfg)
	} else {
		a, err = core.AnalyzePTXContext(ctx, src, core.PTXOptions{
			TrainableParams: p.TrainableParams, GridX: p.GridX, BlockX: p.BlockX, MaxSteps: serverPTXMaxSteps,
		}, o.cfg)
	}
	if err != nil {
		return nil, err
	}
	preds, err := core.PredictAnalyzedContext(ctx, est, a, p.GPUs)
	if err != nil {
		return nil, err
	}
	return encodeIndent(predictResponse(a, preds))
}

// predictResponse assembles the /v1/predict document.
func predictResponse(a *core.ModelAnalysis, preds []core.Prediction) server.PredictResponse {
	out := make([]server.GPUPrediction, len(preds))
	for i, p := range preds {
		out[i] = server.GPUPrediction{GPU: p.GPU, GPUName: p.GPUName, IPC: p.IPC}
	}
	return server.PredictResponse{
		Model:                a.Name,
		ExecutedInstructions: a.Report.Executed,
		TrainableParams:      a.Summary.TrainableParams,
		Kernels:              len(a.Report.Kernels),
		Predictions:          out,
	}
}

// lintModule returns the module /v1/lint analyses for l.
func lintModule(l server.LintRequest) (string, *ptx.Module, error) {
	if l.Model == "" {
		m, err := ptx.Parse(l.PTX)
		return "ptx", m, err
	}
	m, err := zoo.Build(l.Model)
	if err != nil {
		return "", nil, err
	}
	prog, err := ptxgen.Compile(m, core.DefaultConfig().PTX)
	if err != nil {
		return "", nil, err
	}
	return l.Model, prog.Module, nil
}

// lintBody computes the response /v1/lint gives for l.
func lintBody(l server.LintRequest) ([]byte, error) {
	target, m, err := lintModule(l)
	if err != nil {
		return nil, err
	}
	diags := ptxanalysis.Lint(m)
	if diags == nil {
		diags = []ptxanalysis.Diag{}
	}
	return encodeIndent(server.LintResponse{Target: target, Diagnostics: diags, ErrorCount: errorCount(diags)})
}

func errorCount(diags []ptxanalysis.Diag) int {
	n := 0
	for _, d := range diags {
		if d.Severity == ptxanalysis.SevError {
			n++
		}
	}
	return n
}

// codeSummary renders diagnostic code counts and the error count in a
// canonical form.
func codeSummary(counts map[string]int, errs int) string {
	codes := make([]string, 0, len(counts))
	for c := range counts {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	var b strings.Builder
	for _, c := range codes {
		fmt.Fprintf(&b, "%s=%d,", c, counts[c])
	}
	fmt.Fprintf(&b, "errors=%d", errs)
	return b.String()
}

// lintSummary computes the diagnostic code counts of the module in src.
func lintSummary(src string) (string, error) {
	m, err := ptx.Parse(src)
	if err != nil {
		return "", err
	}
	diags := ptxanalysis.Lint(m)
	counts := make(map[string]int)
	for _, d := range diags {
		counts[d.Code]++
	}
	return codeSummary(counts, errorCount(diags)), nil
}

// addExact records the exact expected body of req.
func (o *oracle) addExact(ctx context.Context, req request) error {
	if _, ok := o.bodies[req.key]; ok {
		return nil
	}
	var (
		body []byte
		err  error
	)
	switch req.path {
	case "/v1/predict":
		var p server.PredictRequest
		if err := json.Unmarshal(req.body, &p); err != nil {
			return err
		}
		body, err = o.predictBody(ctx, p, p.PTX)
	case "/v1/lint":
		var l server.LintRequest
		if err := json.Unmarshal(req.body, &l); err != nil {
			return err
		}
		body, err = lintBody(l)
	default:
		err = fmt.Errorf("unknown path %s", req.path)
	}
	if err != nil {
		return fmt.Errorf("oracle for %s: %w", req.path, err)
	}
	o.bodies[req.key] = body
	return nil
}

// addRewritten records the expectation of a rewritten module's arrival:
// its predict body equals its source's, byte for byte, and its lint has
// the source's codes and counts.
func (o *oracle) addRewritten(ctx context.Context, a arrival, orig string) error {
	var p server.PredictRequest
	if err := json.Unmarshal(a.predict.body, &p); err != nil {
		return err
	}
	body, err := o.predictBody(ctx, p, orig)
	if err != nil {
		return fmt.Errorf("oracle for rewritten predict: %w", err)
	}
	o.bodies[a.predict.key] = body
	sum, err := lintSummary(orig)
	if err != nil {
		return fmt.Errorf("oracle for rewritten lint: %w", err)
	}
	o.lints[a.lint.key] = sum
	return nil
}

// release drops the library state the expectations were computed with
// (analysis cache, estimators), so it does not count in heap_mb.
func (o *oracle) release() {
	o.cfg.Cache = nil
	o.ests = nil
}

// check verifies one response against the oracle.
func (o *oracle) check(req request, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("%s: status %d: %.200s", req.path, status, body)
	}
	if want, ok := o.bodies[req.key]; ok {
		if !bytes.Equal(body, want) {
			return fmt.Errorf("%s: body differs from the oracle (%d vs %d bytes)", req.path, len(body), len(want))
		}
		return nil
	}
	if want, ok := o.lints[req.key]; ok {
		var resp server.LintResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: undecodable body: %w", req.path, err)
		}
		counts := make(map[string]int)
		for _, d := range resp.Diagnostics {
			counts[d.Code]++
		}
		if got := codeSummary(counts, resp.ErrorCount); got != want {
			return fmt.Errorf("%s: diagnostics %s, oracle %s", req.path, got, want)
		}
		return nil
	}
	return fmt.Errorf("%s: no oracle entry for the request", req.path)
}
