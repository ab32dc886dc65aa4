package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/core"
	"cnnperf/internal/gpu"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/server"
	"cnnperf/internal/zoo"
)

// Every input of a workload is a pure function of the seed: the same
// seed yields byte-identical request bodies, and the program under test
// sees only those bodies.

// request is one HTTP call a client makes.
type request struct {
	path string // "/v1/predict" or "/v1/lint"
	body []byte
	// key names the oracle entry the response is checked against.
	key string
}

// arrival is one open-loop arrival: a fresh module that is linted and
// then predicted.
type arrival struct {
	due     float64 // seconds after the window opens
	lint    request
	predict request
	// kernels and newKernels count the module's kernels and those whose
	// content was never generated before in this run.
	kernels, newKernels int
}

// warmModels are the zoo models of warm_predict_gw. They are fixed (not
// seeded) so the gateway routes the same units to the same replicas on
// every seed and the set-up cost does not depend on the seed.
var warmModels = []string{"alexnet", "mobilenetv2", "resnet50v2"}

// lintMix is the zoo part of one zoo_lint_repeat round: models whose
// uncached /v1/lint spans the measured 5-250 ms range, each with the
// times it appears per round. nasnetmobile appears three times so the
// 90th percentile falls inside its group rather than on the edge
// between two models, where the seed's order would decide it.
var lintMix = []struct {
	model string
	per   int
}{
	{"alexnet", 1}, {"vgg16", 1}, {"mobilenet", 1}, {"xception", 1},
	{"resnet50v2", 1}, {"efficientnetb0", 1}, {"inceptionv3", 1}, {"nasnetmobile", 3},
}

// sourceModels supply the zoo kernels the raw-PTX payloads are made of.
var sourceModels = []string{"alexnet", "vgg16", "mobilenet"}

const (
	// fixedPTXPayloads is the number of fixed raw-PTX payloads.
	fixedPTXPayloads = 3
	// ptxTrainableParams is the c-predictor every raw-PTX predict
	// carries.
	ptxTrainableParams = 1_000_000
	// freshNewShare is the share of the kernel slots of fresh modules
	// that get a never-seen kernel; the rest repeat earlier kernels.
	freshNewShare = 0.5
	// freshMaxKernels bounds the kernels of one fresh module. Every block
	// of freshMaxKernels consecutive modules holds one of each size.
	freshMaxKernels = 8
	// fixedPTXSeed seeds the rewrite of the fixed payloads, which must
	// not change with the workload seed.
	fixedPTXSeed = 20230515
)

// warmGPUCounts are the GPU-list lengths every warm unit is asked
// about: one device, a handful, and the whole catalogue.
var warmGPUCounts = []int{1, 4, len(gpu.IDs())}

// kernelPool returns the distinct kernels of the source models in a
// fixed order; no two have the same content.
func kernelPool() ([]*ptx.Kernel, error) {
	var out []*ptx.Kernel
	seen := make(map[string]bool)
	cfg := core.DefaultConfig()
	for _, name := range sourceModels {
		m, err := zoo.Build(name)
		if err != nil {
			return nil, err
		}
		prog, err := ptxgen.Compile(m, cfg.PTX)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", name, err)
		}
		for _, k := range prog.Module.Kernels {
			fp := analysiscache.Fingerprint(k)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			out = append(out, k)
		}
	}
	return out, nil
}

var regToken = regexp.MustCompile(`%([A-Za-z]+)([0-9]+)`)

// renameKernel copies k under a new name and renumbers every virtual
// register through perm, a bijection of each declared bank onto itself
// (nil keeps the numbering). Neither changes what the kernel executes.
func renameKernel(k *ptx.Kernel, name string, perm map[string][]int) *ptx.Kernel {
	renumber := func(op string) string {
		if perm == nil {
			return op
		}
		return regToken.ReplaceAllStringFunc(op, func(tok string) string {
			m := regToken.FindStringSubmatch(tok)
			bank := perm["%"+m[1]]
			n, err := strconv.Atoi(m[2])
			if bank == nil || err != nil || n >= len(bank) {
				return tok // a special register such as %clock64
			}
			return "%" + m[1] + strconv.Itoa(bank[n])
		})
	}
	out := &ptx.Kernel{Name: name, Params: k.Params, Regs: k.Regs}
	labels := make([]string, 0, len(k.Labels))
	for l := range k.Labels {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	byIdx := make(map[int][]string)
	for _, l := range labels {
		byIdx[k.Labels[l]] = append(byIdx[k.Labels[l]], l)
	}
	for i, in := range k.Body {
		for _, l := range byIdx[i] {
			_ = out.AddLabel(l) // labels are unique in k, so never a duplicate
		}
		ops := make([]string, len(in.Operands))
		for j, op := range in.Operands {
			ops[j] = renumber(op)
		}
		out.Append(ptx.Instruction{Pred: renumber(in.Pred), PredNeg: in.PredNeg, Opcode: in.Opcode, Operands: ops})
	}
	for _, l := range byIdx[len(k.Body)] {
		_ = out.AddLabel(l)
	}
	return out
}

// randomPerm draws a register renumbering of every bank of k.
func randomPerm(rng *rand.Rand, k *ptx.Kernel) map[string][]int {
	perm := make(map[string][]int, len(k.Regs))
	for _, r := range k.Regs {
		perm[r.Prefix] = rng.Perm(r.Count)
	}
	return perm
}

// moduleText prints a module holding the given kernels.
func moduleText(kernels []*ptx.Kernel) string {
	return ptx.Print(&ptx.Module{Version: "6.0", Target: "sm_61", AddressSize: 64, Kernels: kernels})
}

// genKernel is a generated kernel: its source in the pool and the
// renumbering applied to it.
type genKernel struct {
	src  int
	perm map[string][]int
}

// ptxGen makes raw-PTX modules from pool kernels by seeded renumbering.
// It remembers every kernel it produced, so a later module can repeat
// one and the share of genuinely new kernels can be measured. New
// kernels take their sources from a shuffled deck of the pool, so every
// pool kernel is renumbered equally often whatever the seed.
type ptxGen struct {
	pool  []*ptx.Kernel
	rng   *rand.Rand
	made  []genKernel
	seen  map[string]bool
	deck  []int // pool indices not yet dealt in this round
	slots int   // kernel slots filled so far
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func newPTXGen(pool []*ptx.Kernel, seed int64) *ptxGen {
	return &ptxGen{pool: pool, rng: newRand(seed), seen: make(map[string]bool)}
}

// fresh draws a kernel whose content was never produced before, from
// the next source of the deck.
func (g *ptxGen) fresh() genKernel {
	if len(g.deck) == 0 {
		g.deck = g.rng.Perm(len(g.pool))
	}
	src := g.deck[0]
	g.deck = g.deck[1:]
	k := g.pool[src]
	for {
		perm := randomPerm(g.rng, k)
		fp := analysiscache.Fingerprint(renameKernel(k, "k", perm))
		if g.seen[fp] || fp == analysiscache.Fingerprint(k) {
			continue
		}
		g.seen[fp] = true
		gk := genKernel{src: src, perm: perm}
		g.made = append(g.made, gk)
		return gk
	}
}

// module draws a module of n kernels named prefix_k<i>. Spread evenly
// over all the slots the generator fills, newShare of them get a new
// kernel and the others repeat an earlier one. It returns the rewritten
// module, its unrewritten source (same names, pool numbering) and the
// count of new kernels.
func (g *ptxGen) module(prefix string, n int, newShare float64) (src, orig string, newCount int) {
	rewritten := make([]*ptx.Kernel, n)
	original := make([]*ptx.Kernel, n)
	for i := 0; i < n; i++ {
		var gk genKernel
		isNew := int(float64(g.slots+1)*newShare) > int(float64(g.slots)*newShare)
		g.slots++
		if len(g.made) == 0 || isNew {
			gk = g.fresh()
			newCount++
		} else {
			gk = g.made[g.rng.Intn(len(g.made))]
		}
		name := fmt.Sprintf("%s_k%d", prefix, i)
		k := g.pool[gk.src]
		rewritten[i] = renameKernel(k, name, gk.perm)
		original[i] = renameKernel(k, name, nil)
	}
	return moduleText(rewritten), moduleText(original), newCount
}

func predictReq(p server.PredictRequest, key string) request {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return request{path: "/v1/predict", body: b, key: key}
}

func lintReq(l server.LintRequest, key string) request {
	b, err := json.Marshal(l)
	if err != nil {
		panic(err)
	}
	return request{path: "/v1/lint", body: b, key: key}
}

// fixedPTX returns the fixed raw-PTX payloads shared by warm_predict_gw
// and zoo_lint_repeat: small modules of renumbered pool kernels, the
// same for every workload seed.
func fixedPTX(pool []*ptx.Kernel) []string {
	g := newPTXGen(pool, fixedPTXSeed)
	out := make([]string, fixedPTXPayloads)
	for i := range out {
		out[i], _, _ = g.module(fmt.Sprintf("fixed%d", i), 2+i, 1)
	}
	return out
}

// gpuSubset draws n distinct catalogue GPUs in a seeded order.
func gpuSubset(rng *rand.Rand, n int) []string {
	ids := gpu.IDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids[:n]
}

// rounds repeats the templates in seeded shuffled rounds, so every
// template is sent equally often and a window cut short by the clock
// shifts the mix by at most one round.
func rounds(rng *rand.Rand, templates []request, n int) []request {
	out := make([]request, 0, n*len(templates))
	idx := make([]int, len(templates))
	for i := range idx {
		idx[i] = i
	}
	for r := 0; r < n; r++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			out = append(out, templates[i])
		}
	}
	return out
}

// templateKey names a predict template: the unit's content key plus the
// GPU list, which together fix the response body.
func templateKey(p server.PredictRequest) string {
	return p.ContentKey() + "|" + strings.Join(p.GPUs, ",")
}

// warmTemplates are the distinct requests of warm_predict_gw: every
// unit (warm model or fixed payload) asked about each GPU-list length.
func warmTemplates(seed int64, pool []*ptx.Kernel) []request {
	rng := newRand(seed)
	var units []server.PredictRequest
	for _, m := range warmModels {
		units = append(units, server.PredictRequest{Model: m})
	}
	for _, src := range fixedPTX(pool) {
		units = append(units, server.PredictRequest{PTX: src, TrainableParams: ptxTrainableParams})
	}
	// Units interleave within each GPU-list length, so the set-up pass
	// has two different units in flight rather than one unit twice.
	var out []request
	for _, n := range warmGPUCounts {
		for _, u := range units {
			p := u
			p.GPUs = gpuSubset(rng, n)
			out = append(out, predictReq(p, templateKey(p)))
		}
	}
	return out
}

// lintTemplates returns the distinct requests of zoo_lint_repeat and
// one round of them with the mix's repetitions.
func lintTemplates(pool []*ptx.Kernel) (distinct, round []request) {
	for _, m := range lintMix {
		l := server.LintRequest{Model: m.model}
		r := lintReq(l, l.ContentKey())
		distinct = append(distinct, r)
		for i := 0; i < m.per; i++ {
			round = append(round, r)
		}
	}
	for _, src := range fixedPTX(pool) {
		l := server.LintRequest{PTX: src}
		r := lintReq(l, l.ContentKey())
		distinct = append(distinct, r)
		round = append(round, r)
	}
	return distinct, round
}

// freshPlan is the input of fresh_ptx_open: warm-up modules for the
// set-up pass (one block, freshMaxKernels modules of all new kernels)
// and one arrival schedule per measured window.
type freshPlan struct {
	warmup  []arrival
	windows [][]arrival
	orig    map[string]string // predict key -> unrewritten source module
}

// freshArrivals draws the warm-up modules and, per window, a jittered
// arrival schedule at the given rate: arrival i is due at a seeded
// uniform point of the interval [i/rate, (i+1)/rate). Module sizes go
// in shuffled blocks that hold each size from 1 to freshMaxKernels
// once, restarted with each window. With the deck of kernel sources
// and the evenly spread new kernels, every seed offers the same work at
// the same pace, without the bursts of a Poisson schedule.
func freshArrivals(seed int64, pool []*ptx.Kernel, rate, seconds float64, windows int) freshPlan {
	rng := newRand(seed)
	g := newPTXGen(pool, rng.Int63())
	plan := freshPlan{orig: make(map[string]string)}
	gpus := gpuSubset(rng, 3)
	var block []int
	mk := func(prefix string, due, newShare float64) arrival {
		if len(block) == 0 {
			block = rng.Perm(freshMaxKernels)
		}
		n := block[0] + 1
		block = block[1:]
		src, orig, fresh := g.module(prefix, n, newShare)
		p := server.PredictRequest{PTX: src, TrainableParams: ptxTrainableParams, GPUs: gpus}
		l := server.LintRequest{PTX: src}
		a := arrival{
			due:        due,
			predict:    predictReq(p, templateKey(p)),
			lint:       lintReq(l, l.ContentKey()),
			kernels:    n,
			newKernels: fresh,
		}
		plan.orig[a.predict.key] = orig
		return a
	}
	for i := 0; i < freshMaxKernels; i++ {
		plan.warmup = append(plan.warmup, mk(fmt.Sprintf("w%d", i), 0, 1))
	}
	// A window repeats only kernels its replica has seen: the warm-up
	// modules' and its own. New kernels stay new across all windows.
	warmKernels := len(g.made)
	n := int(math.Round(rate * seconds))
	for w := 0; w < windows; w++ {
		g.made = g.made[:warmKernels]
		g.slots, block = 0, nil
		arr := make([]arrival, n)
		for i := range arr {
			arr[i] = mk(fmt.Sprintf("a%d_%d", w, i), (float64(i)+rng.Float64())/rate, freshNewShare)
		}
		plan.windows = append(plan.windows, arr)
	}
	return plan
}
