package main

// The exec workload: one request is one Machine.Run of a paper
// CycleWorkload on a machine compiled at -O2 during set-up. The seed
// draws each request's program and size.

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cmm"
	"cmm/internal/paper"
)

// perProgram is how many requests of each CycleWorkload the deck holds.
// Sizes are drawn log-uniformly within perProgram equal strata of the
// program's range, so the deck's cost hardly moves from seed to seed.
const perProgram = 64

// request is one deck entry: a CycleWorkload run on arg.
type request struct {
	prog int
	arg  uint64
	want uint64
}

// drawDeck draws the exec and interp request mix; sizes are the exec
// ranges divided by scale.
func drawDeck(seed int64, scale uint64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	var deck []request
	for p, w := range paper.CycleWorkloads {
		lo, hi := sizeRange(w.Name)
		lo, hi = max(lo/scale, 2), max(hi/scale, 4)
		span := math.Log(float64(hi) / float64(lo))
		for k := 0; k < perProgram; k++ {
			u := (float64(k) + rng.Float64()) / perProgram
			arg := uint64(math.Round(float64(lo) * math.Exp(u*span)))
			want, err := reference(w.Name, arg)
			if err != nil {
				return nil, err
			}
			deck = append(deck, request{prog: p, arg: arg, want: want})
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck, nil
}

// compileCycleWorkload compiles a CycleWorkload the way the optimizer
// evaluation defines it, at -O2, with its run-time system.
func compileCycleWorkload(w paper.CycleWorkload, d cmm.Dispatcher) (*cmm.Machine, int64, error) {
	m, err := cmm.Load(w.Src)
	if err != nil {
		return nil, 0, err
	}
	if _, err := m.ApplyOpt(2); err != nil {
		return nil, 0, err
	}
	var opts []cmm.RunOption
	if d != nil {
		opts = append(opts, cmm.WithDispatcher(d))
	}
	mc, err := m.Native(cmm.CompileConfig{Opt: 2, TestAndBranch: w.TestAndBranch, NoCalleeSaves: w.NoCalleeSaves}, opts...)
	if err != nil {
		return nil, 0, err
	}
	var code int64
	for _, p := range m.Procedures() {
		code += int64(mc.CodeSize(p))
	}
	return mc, code, nil
}

func execLayers() []layerDef {
	ls := []layerDef{
		{"exec.vm.run_us", "us", "lower"},
		{"exec.machine.self_us", "us", "lower"},
		{"exec.dispatch.self_us", "us", "lower"},
		{"exec.dispatch.unwind_share", "ratio", "lower"},
		{"exec.op.self_us", "us", "lower"},
		{"exec.rts.calls_per_op", "count", "lower"},
		{"exec.rts.ns_per_activation", "ns", "lower"},
		{"exec.machine.kernel_instr_share", "ratio", "higher"},
		{"exec.machine.deopts_per_op", "count", "lower"},
		{"exec.trace.overhead_us", "us", "lower"},
	}
	for _, w := range paper.CycleWorkloads {
		ls = append(ls, layerDef{"exec.prog." + w.Name + "_us", "us", "lower"})
	}
	return ls
}

type execProgram struct {
	w    paper.CycleWorkload
	mc   *cmm.Machine
	code int64
	// Traced totals.
	runs, runNs, dispatchNs int64
}

type execWorkload struct {
	progs []execProgram
	deck  []request
	tr    *tracer
	rts   rtsCounts

	// Traced totals.
	dispatchNs                   int64
	instrs, kernelInstrs, deopts int64
}

func (w *execWorkload) setup(seed int64, tr *tracer) error {
	deck, err := drawDeck(seed, 1)
	if err != nil {
		return err
	}
	w.deck, w.tr = deck, tr
	for _, cw := range paper.CycleWorkloads {
		d, err := dispatcherFor(cw.Dispatcher)
		if err != nil {
			return err
		}
		if d != nil && tr != nil {
			d = &tracedDispatcher{inner: d, tr: tr, name: "exec.dispatch", counts: &w.rts, ns: &w.dispatchNs}
		}
		mc, code, err := compileCycleWorkload(cw, d)
		if err != nil {
			return fmt.Errorf("%s: %w", cw.Name, err)
		}
		w.progs = append(w.progs, execProgram{w: cw, mc: mc, code: code})
	}
	return nil
}

func (w *execWorkload) size() int { return len(w.deck) }

func (w *execWorkload) do(i int, op, root int32) outcome {
	r := w.deck[i]
	p := &w.progs[r.prog]
	before := p.mc.Stats()
	tr := w.tr
	if root < 0 {
		tr = nil
	}
	var res []uint64
	var err error
	if tr == nil {
		res, err = p.mc.Run(p.w.Proc, r.arg)
	} else {
		tel := p.mc.Telemetry()
		dns := w.dispatchNs
		id := tr.begin(op, root, "exec.vm.run")
		tr.enter(op, id)
		t0 := time.Now()
		res, err = p.mc.Run(p.w.Proc, r.arg)
		p.runNs += int64(time.Since(t0))
		tr.end(id)
		p.runs++
		p.dispatchNs += w.dispatchNs - dns
		after := p.mc.Telemetry()
		w.kernelInstrs += after.KernelInstrs - tel.KernelInstrs
		w.deopts += deopts(after) - deopts(tel)
	}
	st := p.mc.Stats()
	o := outcome{instrs: st.Instrs - before.Instrs, cycles: st.Cycles - before.Cycles, code: p.code}
	if tr != nil {
		w.instrs += o.instrs
	}
	switch {
	case err != nil:
		o.err = fmt.Errorf("%s(%d): %w", p.w.Name, r.arg, err)
	case res[0] != r.want:
		o.err = fmt.Errorf("%s(%d) = %d, want %d", p.w.Name, r.arg, res[0], r.want)
	}
	return o
}

func deopts(t cmm.Telemetry) int64 {
	return t.DeoptCycleExit + t.DeoptTrap + t.DeoptBudget + t.DeoptObserver + t.DeoptPolicy + t.DeoptSlice
}

func (w *execWorkload) layers(lt layerTimes, traced, plain *phase) map[string]float64 {
	n := int(lt.count["exec.op"])
	v := map[string]float64{
		"exec.vm.run_us":                  perOp(lt.total["exec.vm.run"], n),
		"exec.machine.self_us":            perOp(lt.self["exec.vm.run"], n),
		"exec.dispatch.self_us":           perOp(lt.self["exec.dispatch"], n),
		"exec.op.self_us":                 perOp(lt.self["exec.op"], n),
		"exec.rts.calls_per_op":           float64(w.rts.calls) / float64(n),
		"exec.rts.ns_per_activation":      safeDiv(float64(lt.self["exec.dispatch"]), float64(w.rts.activations)),
		"exec.machine.kernel_instr_share": safeDiv(float64(w.kernelInstrs), float64(w.instrs)),
		"exec.machine.deopts_per_op":      float64(w.deopts) / float64(n),
		"exec.trace.overhead_us":          overhead(traced, plain),
	}
	for _, p := range w.progs {
		v["exec.prog."+p.w.Name+"_us"] = perOp(p.runNs, int(p.runs))
		if p.w.Name == "fig2_set_unwind_cont" {
			v["exec.dispatch.unwind_share"] = safeDiv(float64(p.dispatchNs), float64(p.runNs))
		}
	}
	return v
}
