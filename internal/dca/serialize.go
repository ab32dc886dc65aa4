package dca

import (
	"encoding/json"
	"fmt"

	"cnnperf/internal/ptx"
)

// Persistent serialization of the dynamic-code-analysis artifacts: the
// per-launch KernelReport and the compiled bytecode. The bytecode
// decoder validates every slot, target and enum against the invariants
// Execute relies on — the hot loop indexes frames and prefix tables
// without bounds checks, so a corrupt artifact must be rejected here,
// never executed. Bump the version constants when the shapes change.

const (
	kernelReportVersion   = 1
	compiledKernelVersion = 1
)

type kernelReportJSON struct {
	Version int          `json:"version"`
	Report  KernelReport `json:"report"`
}

// MarshalKernelReport serialises one per-launch report.
func MarshalKernelReport(r *KernelReport) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("dca: cannot marshal a nil report")
	}
	return json.Marshal(kernelReportJSON{Version: kernelReportVersion, Report: *r})
}

// UnmarshalKernelReport reconstructs a persisted report.
func UnmarshalKernelReport(b []byte) (*KernelReport, error) {
	var j kernelReportJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, fmt.Errorf("dca: decoding report: %w", err)
	}
	if j.Version != kernelReportVersion {
		return nil, fmt.Errorf("dca: unsupported report version %d (want %d)", j.Version, kernelReportVersion)
	}
	if j.Report.Static < 0 || j.Report.Executed < 0 || j.Report.Threads < 0 {
		return nil, fmt.Errorf("dca: corrupt report payload")
	}
	r := j.Report
	return &r, nil
}

type refJSON struct {
	Kind uint8 `json:"kind"`
	Val  int64 `json:"val,omitempty"`
}

type cinstJSON struct {
	Op      uint8   `json:"op"`
	Cmp     uint8   `json:"cmp,omitempty"`
	PredNeg bool    `json:"pred_neg,omitempty"`
	Pred    int32   `json:"pred"`
	Dst     int32   `json:"dst"`
	A       refJSON `json:"a"`
	B       refJSON `json:"b"`
	C       refJSON `json:"c"`
	Target  int32   `json:"target"`
	Back    bool    `json:"back,omitempty"`
	Name    string  `json:"name,omitempty"`
}

type affineLoopJSON struct {
	Start         int32   `json:"start"`
	End           int32   `json:"end"`
	Ind           int32   `json:"ind"`
	Pred          int32   `json:"pred"`
	Step          int64   `json:"step"`
	Bound         refJSON `json:"bound"`
	Cmp           uint8   `json:"cmp"`
	PredNeg       bool    `json:"pred_neg,omitempty"`
	PerIterSteps  int64   `json:"per_iter_steps"`
	PerIterInterp int64   `json:"per_iter_interp"`
	Hist          []int64 `json:"hist"`
}

type compiledKernelJSON struct {
	Version     int               `json:"version"`
	Code        []cinstJSON       `json:"code"`
	Interp      []bool            `json:"interp"`
	NextInterp  []int32           `json:"next_interp"`
	Class       []uint8           `json:"class"`
	ClassPrefix []int64           `json:"class_prefix"`
	Loops       []*affineLoopJSON `json:"loops"`
	Slots       int               `json:"slots"`
	Full        bool              `json:"full,omitempty"`
	MaxSteps    int64             `json:"max_steps"`
	RegNames    []string          `json:"reg_names,omitempty"`
	BadNames    []string          `json:"bad_names,omitempty"`
}

// MarshalCompiledKernel serialises compiled bytecode.
func MarshalCompiledKernel(c *CompiledKernel) ([]byte, error) {
	if c == nil {
		return nil, fmt.Errorf("dca: cannot marshal a nil compiled kernel")
	}
	j := compiledKernelJSON{
		Version:     compiledKernelVersion,
		Code:        make([]cinstJSON, len(c.code)),
		Interp:      c.interp,
		NextInterp:  c.nextInterp,
		Class:       make([]uint8, len(c.class)),
		ClassPrefix: c.classPrefix,
		Loops:       make([]*affineLoopJSON, len(c.loops)),
		Slots:       c.slots,
		Full:        c.full,
		MaxSteps:    c.maxSteps,
		RegNames:    c.regNames,
		BadNames:    c.badNames,
	}
	for i, ci := range c.code {
		j.Code[i] = cinstJSON{
			Op: uint8(ci.op), Cmp: uint8(ci.cmp), PredNeg: ci.predNeg,
			Pred: ci.pred, Dst: ci.dst,
			A:      refJSON{Kind: uint8(ci.a.kind), Val: ci.a.val},
			B:      refJSON{Kind: uint8(ci.b.kind), Val: ci.b.val},
			C:      refJSON{Kind: uint8(ci.c.kind), Val: ci.c.val},
			Target: ci.target, Back: ci.back, Name: ci.name,
		}
	}
	for i, cl := range c.class {
		j.Class[i] = uint8(cl)
	}
	for i, al := range c.loops {
		if al == nil {
			continue
		}
		j.Loops[i] = &affineLoopJSON{
			Start: al.start, End: al.end, Ind: al.ind, Pred: al.pred,
			Step: al.step, Bound: refJSON{Kind: uint8(al.bound.kind), Val: al.bound.val},
			Cmp: uint8(al.cmp), PredNeg: al.predNeg,
			PerIterSteps: al.perIterSteps, PerIterInterp: al.perIterInterp,
			Hist: al.hist[:],
		}
	}
	return json.Marshal(j)
}

// UnmarshalCompiledKernel reconstructs and validates compiled bytecode.
func UnmarshalCompiledKernel(b []byte) (*CompiledKernel, error) {
	var j compiledKernelJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, fmt.Errorf("dca: decoding compiled kernel: %w", err)
	}
	if j.Version != compiledKernelVersion {
		return nil, fmt.Errorf("dca: unsupported compiled-kernel version %d (want %d)", j.Version, compiledKernelVersion)
	}
	n := len(j.Code)
	if len(j.Interp) != n || len(j.Class) != n || len(j.Loops) != n {
		return nil, fmt.Errorf("dca: compiled kernel arrays disagree on length")
	}
	if len(j.NextInterp) != n+1 || len(j.ClassPrefix) != (n+1)*ptx.NumClasses {
		return nil, fmt.Errorf("dca: compiled kernel index tables have wrong length")
	}
	if j.Slots < 0 || j.Slots != len(j.RegNames) {
		return nil, fmt.Errorf("dca: compiled kernel has %d slots but %d register names", j.Slots, len(j.RegNames))
	}
	if j.MaxSteps <= 0 {
		return nil, fmt.Errorf("dca: compiled kernel has non-positive step limit %d", j.MaxSteps)
	}
	c := &CompiledKernel{
		code:        make([]cinst, n),
		interp:      j.Interp,
		nextInterp:  j.NextInterp,
		class:       make([]ptx.Class, n),
		classPrefix: j.ClassPrefix,
		loops:       make([]*affineLoop, n),
		slots:       j.Slots,
		full:        j.Full,
		maxSteps:    j.MaxSteps,
		regNames:    j.RegNames,
		badNames:    j.BadNames,
	}
	checkRef := func(r refJSON) (ref, error) {
		if r.Kind > uint8(refBad) {
			return ref{}, fmt.Errorf("dca: unknown operand kind %d", r.Kind)
		}
		k := refKind(r.Kind)
		if k == refSlot && (r.Val < 0 || r.Val >= int64(j.Slots)) {
			return ref{}, fmt.Errorf("dca: operand slot %d of %d", r.Val, j.Slots)
		}
		if k == refBad && (r.Val < 0 || r.Val >= int64(len(j.BadNames))) {
			return ref{}, fmt.Errorf("dca: bad-operand index %d of %d", r.Val, len(j.BadNames))
		}
		return ref{kind: k, val: r.Val}, nil
	}
	for pc := range j.Code {
		cj := &j.Code[pc]
		// Uninterpreted pcs keep the compiler's zero-valued cinst and are
		// never read by Execute (the skip loop jumps over them via
		// nextInterp, whose progress is validated below), so only
		// interpreted instructions face the full battery.
		if !j.Interp[pc] {
			c.code[pc] = cinst{
				op: copKind(cj.Op), cmp: cmpKind(cj.Cmp), predNeg: cj.PredNeg,
				pred: cj.Pred, dst: cj.Dst,
				a:      ref{kind: refKind(cj.A.Kind), val: cj.A.Val},
				b:      ref{kind: refKind(cj.B.Kind), val: cj.B.Val},
				c:      ref{kind: refKind(cj.C.Kind), val: cj.C.Val},
				target: cj.Target, back: cj.Back, name: cj.Name,
			}
			continue
		}
		if cj.Op > uint8(copExit) {
			return nil, fmt.Errorf("dca: pc %d: unknown opcode %d", pc, cj.Op)
		}
		if cj.Cmp > uint8(cmpNE) {
			return nil, fmt.Errorf("dca: pc %d: unknown comparison %d", pc, cj.Cmp)
		}
		if cj.Pred < -1 || int64(cj.Pred) >= int64(j.Slots) {
			return nil, fmt.Errorf("dca: pc %d: predicate slot %d of %d", pc, cj.Pred, j.Slots)
		}
		if cj.Dst < -1 || int64(cj.Dst) >= int64(j.Slots) {
			return nil, fmt.Errorf("dca: pc %d: destination slot %d of %d", pc, cj.Dst, j.Slots)
		}
		op := copKind(cj.Op)
		// Every opcode that writes the frame must carry a real slot;
		// Execute stores through dst unconditionally for these.
		switch op {
		case copBad, copNop, copBra, copExit:
		default:
			if cj.Dst < 0 {
				return nil, fmt.Errorf("dca: pc %d: writing opcode %d without a destination", pc, cj.Op)
			}
		}
		// Branch targets land inside [0, n] (n exits); param positions
		// are re-checked against the launched kernel at execution time.
		if op == copBra && int(cj.Target) > n {
			return nil, fmt.Errorf("dca: pc %d: branch target %d of %d", pc, cj.Target, n)
		}
		a, err := checkRef(cj.A)
		if err != nil {
			return nil, fmt.Errorf("dca: pc %d: %w", pc, err)
		}
		bb, err := checkRef(cj.B)
		if err != nil {
			return nil, fmt.Errorf("dca: pc %d: %w", pc, err)
		}
		cc, err := checkRef(cj.C)
		if err != nil {
			return nil, fmt.Errorf("dca: pc %d: %w", pc, err)
		}
		c.code[pc] = cinst{
			op: op, cmp: cmpKind(cj.Cmp), predNeg: cj.PredNeg,
			pred: cj.Pred, dst: cj.Dst, a: a, b: bb, c: cc,
			target: cj.Target, back: cj.Back, name: cj.Name,
		}
	}
	for pc, cl := range j.Class {
		if int(cl) >= ptx.NumClasses {
			return nil, fmt.Errorf("dca: pc %d: instruction class %d of %d", pc, cl, ptx.NumClasses)
		}
		c.class[pc] = ptx.Class(cl)
	}
	for pc := range j.NextInterp {
		q := j.NextInterp[pc]
		if int(q) < pc || int(q) > n {
			return nil, fmt.Errorf("dca: next-interp[%d]=%d out of [%d,%d]", pc, q, pc, n)
		}
		// A counted-only run must make progress or the skip loop never
		// terminates.
		if pc < n && !j.Interp[pc] && int(q) == pc {
			return nil, fmt.Errorf("dca: next-interp[%d] stalls on an uninterpreted pc", pc)
		}
	}
	for pc, lj := range j.Loops {
		if lj == nil {
			continue
		}
		if int(lj.Start) != pc || lj.Start >= lj.End || int(lj.End) > n {
			return nil, fmt.Errorf("dca: loop at pc %d has bounds [%d,%d) of %d", pc, lj.Start, lj.End, n)
		}
		if lj.Ind < 0 || int64(lj.Ind) >= int64(j.Slots) || lj.Pred < 0 || int64(lj.Pred) >= int64(j.Slots) {
			return nil, fmt.Errorf("dca: loop at pc %d references slots %d/%d of %d", pc, lj.Ind, lj.Pred, j.Slots)
		}
		bound, err := checkRef(lj.Bound)
		if err != nil {
			return nil, fmt.Errorf("dca: loop at pc %d: %w", pc, err)
		}
		cmp := cmpKind(lj.Cmp)
		// Only monotone conditions moving toward the bound are countable;
		// anything else (including step 0, which would divide by zero in
		// the trip-count solver) is corrupt.
		switch cmp {
		case cmpLT, cmpLE:
			if lj.Step <= 0 {
				return nil, fmt.Errorf("dca: loop at pc %d: step %d against %v", pc, lj.Step, cmp)
			}
		case cmpGT, cmpGE:
			if lj.Step >= 0 {
				return nil, fmt.Errorf("dca: loop at pc %d: step %d against %v", pc, lj.Step, cmp)
			}
		default:
			return nil, fmt.Errorf("dca: loop at pc %d: uncountable comparison %d", pc, lj.Cmp)
		}
		if lj.PerIterSteps <= 0 || lj.PerIterInterp < 0 || len(lj.Hist) != ptx.NumClasses {
			return nil, fmt.Errorf("dca: loop at pc %d: corrupt iteration accounting", pc)
		}
		al := &affineLoop{
			start: lj.Start, end: lj.End, ind: lj.Ind, pred: lj.Pred,
			step: lj.Step, bound: bound, cmp: cmp, predNeg: lj.PredNeg,
			perIterSteps: lj.PerIterSteps, perIterInterp: lj.PerIterInterp,
		}
		copy(al.hist[:], lj.Hist)
		c.loops[pc] = al
	}
	return c, nil
}
