package dca

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"reflect"
	"testing"

	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
)

// serializeKernels are PTX bodies covering the bytecode shapes the
// compiled-kernel codec must round-trip: straight-line code, countable
// closed-form loops, uncountable loops, predicated control flow, and
// parameter-dependent bounds.
var serializeKernels = []struct {
	name string
	body string
}{
	{"straight_line", "mov.u32 %r1, 7;\nadd.s32 %r1, %r1, 1;\nret;\n"},
	{"closed_form_loop", "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 16;\n@%p1 bra L;\nret;\n"},
	{"param_bound_loop", "ld.param.u64 %rd1, [p0];\ncvt.u32.u64 %r2, %rd1;\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %r2;\n@%p1 bra L;\nret;\n"},
	{"predicated_skip", "mov.u32 %r1, 3;\nsetp.eq.s32 %p1, %r1, 3;\n@%p1 bra DONE;\nadd.s32 %r1, %r1, 9;\nDONE:\nret;\n"},
	{"tid_dependent", "mov.u32 %r1, %tid.x;\nL:\nadd.s32 %r1, %r1, 2;\nsetp.lt.s32 %p1, %r1, 200;\n@%p1 bra L;\nret;\n"},
}

// TestCompiledKernelRoundTrip: Unmarshal(Marshal(ck)) is deep-equal,
// re-marshals byte-identically, and executes bit-identically to the
// original compiled kernel for a spread of thread contexts.
func TestCompiledKernelRoundTrip(t *testing.T) {
	ctxs := []ThreadCtx{
		{CtaID: 0, Tid: 0, NTid: 32, NCtaID: 1},
		{CtaID: 3, Tid: 17, NTid: 64, NCtaID: 8},
		{CtaID: 7, Tid: 63, NTid: 64, NCtaID: 8},
	}
	params := map[string]int64{"p0": 24}
	for _, tc := range serializeKernels {
		t.Run(tc.name, func(t *testing.T) {
			k := parseOne(t, tc.body)
			ck := compileFor(t, k, ExecOptions{})
			b, err := MarshalCompiledKernel(ck)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			got, err := UnmarshalCompiledKernel(b)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !reflect.DeepEqual(got, ck) {
				t.Error("round-tripped compiled kernel is not deep-equal")
			}
			b2, err := MarshalCompiledKernel(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, b2) {
				t.Error("re-marshal is not byte-identical")
			}
			for _, tctx := range ctxs {
				want, werr := ck.Execute(k, params, tctx)
				have, herr := got.Execute(k, params, tctx)
				if (werr == nil) != (herr == nil) {
					t.Fatalf("ctx %+v: errors disagree: %v vs %v", tctx, werr, herr)
				}
				if werr != nil {
					continue
				}
				if !reflect.DeepEqual(want, have) {
					t.Fatalf("ctx %+v: original executes %+v, reconstruction %+v", tctx, want, have)
				}
			}
		})
	}
}

// TestBatchedSerializedKernel decodes every divergence kernel's
// compiled form from its wire bytes and executes a batch of threads on
// both: the decoded bytecode must agree with the original thread for
// thread, including the error decision and text.
func TestBatchedSerializedKernel(t *testing.T) {
	for _, tc := range divergenceKernels {
		k := parseOne(t, tc.body)
		ck := compileFor(t, k, ExecOptions{Full: tc.full, MaxSteps: tc.maxSteps})
		blob, err := MarshalCompiledKernel(ck)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		back, err := UnmarshalCompiledKernel(blob)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.name, err)
		}
		for i, ctx := range ctxRange(0, 8, 32, 2) {
			want, werr := ck.Execute(k, tc.params, ctx)
			got, gerr := back.Execute(k, tc.params, ctx)
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("%s lane %d: decoded kernel error diverged: %v vs %v", tc.name, i, werr, gerr)
			}
			if werr == nil && got != want {
				t.Fatalf("%s lane %d: decoded kernel diverged: %+v vs %+v", tc.name, i, want, got)
			}
		}
	}
}

func TestKernelReportRoundTrip(t *testing.T) {
	k := parseOne(t, serializeKernels[1].body)
	l := ptxgen.Launch{Kernel: "k", GridX: 4, BlockX: 64, Threads: 200,
		Params: map[string]int64{"p0": 1 << 20}, WorkingSetBytes: 1 << 16}
	r, err := AnalyzeKernelLaunch(k, l, Options{SkipLint: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalKernelReport(&r)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalKernelReport(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*got, r) {
		t.Errorf("round-tripped report differs:\n got %+v\nwant %+v", *got, r)
	}
	b2, err := MarshalKernelReport(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("re-marshal is not byte-identical")
	}
}

func TestSerializeRejections(t *testing.T) {
	if _, err := MarshalKernelReport(nil); err == nil {
		t.Error("nil report marshaled")
	}
	if _, err := MarshalCompiledKernel(nil); err == nil {
		t.Error("nil compiled kernel marshaled")
	}
	if _, err := UnmarshalKernelReport([]byte(`{"version":99,"report":{}}`)); err == nil {
		t.Error("future report version accepted")
	}
	if _, err := UnmarshalCompiledKernel([]byte(`{"version":99}`)); err == nil {
		t.Error("future compiled-kernel version accepted")
	}

	// Field-level corruption of a valid compiled kernel must be caught
	// by the validation battery, never crash Execute.
	k := parseOne(t, serializeKernels[1].body)
	ck := compileFor(t, k, ExecOptions{})
	valid, err := MarshalCompiledKernel(ck)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, edit func(j map[string]any)) {
		t.Helper()
		var j map[string]any
		if err := json.Unmarshal(valid, &j); err != nil {
			t.Fatal(err)
		}
		edit(j)
		b, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalCompiledKernel(b); err == nil {
			t.Errorf("%s: corrupt bytecode accepted", name)
		}
	}
	corrupt("slot count mismatch", func(j map[string]any) { j["slots"] = 99 })
	corrupt("negative max steps", func(j map[string]any) { j["max_steps"] = -1 })
	corrupt("array length skew", func(j map[string]any) { j["interp"] = []bool{true} })
	corrupt("oob class", func(j map[string]any) {
		// []uint8 encodes as base64 in JSON.
		raw, err := base64.StdEncoding.DecodeString(j["class"].(string))
		if err != nil {
			t.Fatal(err)
		}
		raw[0] = byte(ptx.NumClasses)
		j["class"] = base64.StdEncoding.EncodeToString(raw)
	})
	corrupt("oob opcode", func(j map[string]any) {
		code := j["code"].([]any)
		code[0].(map[string]any)["op"] = float64(200)
	})
	corrupt("oob branch target", func(j map[string]any) {
		code := j["code"].([]any)
		for _, ci := range code {
			m := ci.(map[string]any)
			if op, _ := m["op"].(float64); copKind(uint8(op)) == copBra {
				m["target"] = float64(10000)
			}
		}
	})
	corrupt("stalling next-interp", func(j map[string]any) {
		ni := j["next_interp"].([]any)
		interp := j["interp"].([]any)
		// Force pc 0 uninterpreted with next_interp stalled at 0.
		interp[0] = false
		ni[0] = float64(0)
	})
	corrupt("zero-step loop", func(j map[string]any) {
		loops := j["loops"].([]any)
		for i, lo := range loops {
			if lo != nil {
				lo.(map[string]any)["step"] = float64(0)
				loops[i] = lo
			}
		}
		// If the kernel had no loop this edit is a no-op; guard so the
		// subtest still exercises a rejection.
		j["max_steps"] = float64(0)
	})
}

// FuzzCompiledKernelDecode: arbitrary bytes into the bytecode decoder
// must never panic, and anything accepted must execute without
// panicking on a hostile-but-plausible launch.
func FuzzCompiledKernelDecode(f *testing.F) {
	for _, tc := range serializeKernels {
		src := ".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\n" + tc.body + "}\n"
		m, err := ptx.Parse(src)
		if err != nil {
			f.Fatal(err)
		}
		k := m.Kernels[0]
		ck, err := Compile(k, BuildControlSlice(k, BuildDepGraph(k)), ExecOptions{MaxSteps: 10_000})
		if err != nil {
			f.Fatal(err)
		}
		b, err := MarshalCompiledKernel(ck)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// The kernel the fuzzed bytecode executes against: params exist but
	// the bytecode may reference positions beyond them.
	m, err := ptx.Parse(".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nret;\n}\n")
	if err != nil {
		f.Fatal(err)
	}
	hostKernel := m.Kernels[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalCompiledKernel(data)
		if err != nil {
			return
		}
		// Accepted bytecode must be safe to run: bounded and panic-free.
		_, _ = ck.Execute(hostKernel, map[string]int64{"p0": 4}, ThreadCtx{Tid: 1, NTid: 32, NCtaID: 2})
	})
}
