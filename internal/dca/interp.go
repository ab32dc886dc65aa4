package dca

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"cnnperf/internal/ptx"
)

// Execute runs one thread over the compiled bytecode and returns exactly
// what ExecuteThread would: same counts, same success/error behavior.
// The kernel is needed only for parameter binding and error text — the
// compiled code may be shared by several content-identical kernels, so
// k supplies the identity of the one actually launched. The frame is a
// flat int64 array; the steady-state loop performs no allocations.
func (c *CompiledKernel) Execute(k *ptx.Kernel, params map[string]int64, ctx ThreadCtx) (ExecResult, error) {
	return c.execute(k, params, ctx, nil, nil)
}

// evalRef resolves one operand reference against the thread's frame;
// ok=false routes to evalErr for message construction off the hot path.
// A plain function (not a closure) so the steady-state loop captures
// nothing on the heap.
func evalRef(r ref, frame []int64, written []bool, sreg *[4]int64) (int64, bool) {
	switch r.kind {
	case refImm:
		return r.val, true
	case refSlot:
		if !written[r.val] {
			return 0, false
		}
		return frame[r.val], true
	case refTid:
		return sreg[0], true
	case refNTid:
		return sreg[1], true
	case refCtaID:
		return sreg[2], true
	case refNCtaID:
		return sreg[3], true
	}
	return 0, false
}

// execute is Execute with an optional per-instruction visit profile and
// an optional caller-owned arena. When visits is non-nil (length
// len(code)), visits[pc] accumulates how many times pc executed,
// including counted-but-not-interpreted stretches and closed-form loop
// iterations. When ar is non-nil the frame and parameter buffers are
// carved from it, making warm steady-state execution allocation-free;
// a nil ar falls back to the garbage-collected heap.
func (c *CompiledKernel) execute(k *ptx.Kernel, params map[string]int64, ctx ThreadCtx, visits []int64, ar *execArena) (res ExecResult, err error) {
	var frame []int64
	var written, pok []bool
	var pvals []int64
	if ar != nil {
		frame = ar.i64.takeRaw(c.slots) // reads gated by written
		written = ar.bit.take(c.slots)
		pvals = ar.i64.takeRaw(len(k.Params)) // fully bound below
		pok = ar.bit.takeRaw(len(k.Params))
	} else {
		frame = make([]int64, c.slots)
		written = make([]bool, c.slots)
		pvals = make([]int64, len(k.Params))
		pok = make([]bool, len(k.Params))
	}
	// Declared parameters bind by position so cached compiled kernels
	// work across renamed-but-identical kernels.
	for i, p := range k.Params {
		v, ok := params[p.Name]
		pvals[i], pok[i] = v, ok
	}
	sreg := [4]int64{ctx.Tid, ctx.NTid, ctx.CtaID, ctx.NCtaID}
	eval := func(r ref) (int64, bool) { return evalRef(r, frame, written, &sreg) }
	n := int32(len(c.code))
	maxSteps := c.maxSteps
	pc := int32(0)
	for pc < n {
		if res.Steps >= maxSteps {
			return res, stepLimitErr(k, maxSteps)
		}
		// Closed-form loop accounting: when the pc heads a countable
		// affine loop whose entry state is resolvable, charge all n
		// iterations at once and jump past the loop.
		if al := c.loops[pc]; al != nil {
			done, lerr := c.runLoop(al, k, frame, written, &sreg, &res, visits)
			if lerr != nil {
				return res, lerr
			}
			if done {
				pc = al.end
				continue
			}
			// Unresolvable entry state: interpret the loop normally.
		}
		// Skip-run: a contiguous counted-but-not-interpreted stretch is
		// accounted in O(classes) via the prefix sums.
		if !c.interp[pc] {
			q := c.nextInterp[pc]
			run := int64(q - pc)
			if res.Steps+run > maxSteps {
				return res, stepLimitErr(k, maxSteps)
			}
			res.Steps += run
			base, top := int(pc)*ptx.NumClasses, int(q)*ptx.NumClasses
			for cl := 0; cl < ptx.NumClasses; cl++ {
				res.PerClass[cl] += c.classPrefix[top+cl] - c.classPrefix[base+cl]
			}
			if visits != nil {
				for i := pc; i < q; i++ {
					visits[i]++
				}
			}
			pc = q
			continue
		}
		ci := &c.code[pc]
		res.Steps++
		res.PerClass[c.class[pc]]++
		res.Interpreted++
		if visits != nil {
			visits[pc]++
		}

		taken := true
		if ci.pred >= 0 {
			if !written[ci.pred] {
				return res, fmt.Errorf("dca: kernel %q pc %d: predicate %s undefined", k.Name, pc, c.regNames[ci.pred])
			}
			taken = frame[ci.pred] != 0
			if ci.predNeg {
				taken = !taken
			}
		}
		switch ci.op {
		case copBra:
			if taken {
				if ci.target < 0 {
					// Mirror the reference's unresolved-label error.
					_, terr := k.Target(ci.name)
					return res, fmt.Errorf("dca: %w", terr)
				}
				if ci.back {
					res.BackBranches++
				}
				pc = ci.target
			} else {
				pc++
			}
			continue
		case copExit:
			// Like the reference: a predicated ret terminates the
			// thread whether or not the guard holds.
			return res, nil
		}
		if !taken {
			pc++
			continue
		}
		var a, b, v int64
		var ok bool
		switch ci.op {
		case copMov, copNeg, copNot, copAbs:
			if v, ok = eval(ci.a); !ok {
				return res, c.evalErr(k, ci.a)
			}
			switch ci.op {
			case copNeg:
				v = -v
			case copNot:
				v = ^v
			case copAbs:
				if v < 0 {
					v = -v
				}
			}
			frame[ci.dst], written[ci.dst] = v, true
		case copLdParam:
			if ci.target >= 0 {
				// Bytecode may come off disk: the position was validated
				// structurally but only the launched kernel fixes the
				// parameter count, so bound it here.
				if int(ci.target) >= len(pok) {
					return res, fmt.Errorf("dca: kernel %q pc %d: parameter position %d of %d", k.Name, pc, ci.target, len(pok))
				}
				if !pok[ci.target] {
					return res, fmt.Errorf("dca: kernel %q pc %d: no value for parameter %q", k.Name, pc, k.Params[ci.target].Name)
				}
				v = pvals[ci.target]
			} else {
				if v, ok = params[ci.name]; !ok {
					return res, fmt.Errorf("dca: kernel %q pc %d: no value for parameter %q", k.Name, pc, ci.name)
				}
			}
			frame[ci.dst], written[ci.dst] = v, true
		case copLdData:
			if !c.full {
				return res, fmt.Errorf("dca: kernel %q pc %d: data load %q inside control slice", k.Name, pc, k.Body[pc].Opcode)
			}
			frame[ci.dst], written[ci.dst] = 0, true
		case copNop:
			// Stores and barriers: no register effects.
		case copAdd, copSub, copMul, copDiv, copRem, copMin, copMax, copAnd, copOr, copXor, copShl, copShr:
			if a, ok = eval(ci.a); !ok {
				return res, c.evalErr(k, ci.a)
			}
			if b, ok = eval(ci.b); !ok {
				return res, c.evalErr(k, ci.b)
			}
			switch ci.op {
			case copAdd:
				v = a + b
			case copSub:
				v = a - b
			case copMul:
				v = a * b
			case copDiv:
				if b == 0 {
					return res, fmt.Errorf("dca: kernel %q pc %d: division by zero", k.Name, pc)
				}
				v = a / b
			case copRem:
				if b == 0 {
					return res, fmt.Errorf("dca: kernel %q pc %d: remainder by zero", k.Name, pc)
				}
				v = a % b
			case copMin:
				v = b
				if a < b {
					v = a
				}
			case copMax:
				v = b
				if a > b {
					v = a
				}
			case copAnd:
				v = a & b
			case copOr:
				v = a | b
			case copXor:
				v = a ^ b
			case copShl:
				v = a << uint(b&63)
			case copShr:
				v = int64(uint64(a) >> uint(b&63))
			}
			frame[ci.dst], written[ci.dst] = v, true
		case copMad:
			if a, ok = eval(ci.a); !ok {
				return res, c.evalErr(k, ci.a)
			}
			if b, ok = eval(ci.b); !ok {
				return res, c.evalErr(k, ci.b)
			}
			if v, ok = eval(ci.c); !ok {
				return res, c.evalErr(k, ci.c)
			}
			frame[ci.dst], written[ci.dst] = a*b+v, true
		case copSetp:
			if a, ok = eval(ci.a); !ok {
				return res, c.evalErr(k, ci.a)
			}
			if b, ok = eval(ci.b); !ok {
				return res, c.evalErr(k, ci.b)
			}
			var r bool
			switch ci.cmp {
			case cmpLT:
				r = a < b
			case cmpLE:
				r = a <= b
			case cmpGT:
				r = a > b
			case cmpGE:
				r = a >= b
			case cmpEQ:
				r = a == b
			case cmpNE:
				r = a != b
			default:
				return res, fmt.Errorf("dca: kernel %q pc %d: unknown comparison %q", k.Name, pc, ci.name)
			}
			v = 0
			if r {
				v = 1
			}
			frame[ci.dst], written[ci.dst] = v, true
		case copSelp:
			if a, ok = eval(ci.a); !ok {
				return res, c.evalErr(k, ci.a)
			}
			if b, ok = eval(ci.b); !ok {
				return res, c.evalErr(k, ci.b)
			}
			if v, ok = eval(ci.c); !ok {
				return res, c.evalErr(k, ci.c)
			}
			if v != 0 {
				frame[ci.dst], written[ci.dst] = a, true
			} else {
				frame[ci.dst], written[ci.dst] = b, true
			}
		case copSfu:
			frame[ci.dst], written[ci.dst] = 0, true
		default: // copBad
			return res, errors.New(strings.Replace(ci.name, kernelPlaceholder, strconv.Quote(k.Name), 1))
		}
		pc++
	}
	return res, nil
}

// runLoop applies the closed-form trip count of an affine loop: n
// iterations are charged to every counter in O(1) and the machine state
// is advanced to the loop exit. done=false (with nil error) means the
// entry state cannot be resolved — the caller interprets the loop
// normally, which reproduces the reference behavior including its
// errors and MaxSteps abort.
func (c *CompiledKernel) runLoop(al *affineLoop, k *ptx.Kernel, frame []int64, written []bool, sreg *[4]int64, res *ExecResult, visits []int64) (done bool, err error) {
	if !written[al.ind] {
		return false, nil // slow path fails at the add, as the reference does
	}
	v0 := frame[al.ind]
	var bound int64
	switch al.bound.kind {
	case refImm:
		bound = al.bound.val
	case refSlot:
		if !written[al.bound.val] {
			return false, nil
		}
		bound = frame[al.bound.val]
	case refTid:
		bound = sreg[0]
	case refNTid:
		bound = sreg[1]
	case refCtaID:
		bound = sreg[2]
	case refNCtaID:
		bound = sreg[3]
	default:
		return false, nil
	}
	n, ok := al.trips(v0, bound)
	if !ok {
		return false, nil
	}
	// The reference aborts as soon as Steps reaches MaxSteps with an
	// instruction still pending; n iterations of perIterSteps crossing
	// the limit means it would abort inside this loop.
	remaining := c.maxSteps - res.Steps
	if n > remaining/al.perIterSteps {
		return false, stepLimitErr(k, c.maxSteps)
	}
	res.Steps += n * al.perIterSteps
	res.Interpreted += n * al.perIterInterp
	res.BackBranches += n - 1
	for cl := 0; cl < ptx.NumClasses; cl++ {
		res.PerClass[cl] += n * al.hist[cl]
	}
	if visits != nil {
		for i := al.start; i < al.end; i++ {
			visits[i] += n
		}
	}
	frame[al.ind] = v0 + n*al.step
	exitPred := int64(0)
	if al.predNeg {
		exitPred = 1
	}
	frame[al.pred], written[al.pred] = exitPred, true
	return true, nil
}

// evalErr reconstructs the reference interpreter's operand-resolution
// error for a failed ref.
func (c *CompiledKernel) evalErr(k *ptx.Kernel, r ref) error {
	switch r.kind {
	case refSlot:
		return fmt.Errorf("dca: register %s read before write", c.regNames[r.val])
	case refBad:
		op := c.badNames[r.val]
		if strings.HasPrefix(op, "0f") || strings.HasPrefix(op, "0F") {
			return fmt.Errorf("dca: bad float immediate %q", op)
		}
		return fmt.Errorf("dca: cannot evaluate operand %q", op)
	}
	return fmt.Errorf("dca: kernel %q: internal operand error", k.Name)
}

// stepLimitErr is the shared runaway-execution abort.
func stepLimitErr(k *ptx.Kernel, maxSteps int64) error {
	return fmt.Errorf("dca: kernel %q exceeded %d steps (infinite loop?)", k.Name, maxSteps)
}
