package main

// The interp workload: one request is one Interp.Run of the exec mix at
// an eighth of its sizes, on the §5 interpreter. The modules are loaded
// without optimization, so the interpreter runs the programs as written
// and neither the optimizer nor internal/machine is on the request path.

import (
	"fmt"
	"time"

	"cmm"
	"cmm/internal/paper"
)

// interpScale divides the exec sizes: the interpreter is far slower
// than the engines.
const interpScale = 8

var interpLayers = []layerDef{
	{"interp.sem.build_us", "us", "lower"},
	{"interp.sem.run_us", "us", "lower"},
	{"interp.sem.self_us", "us", "lower"},
	{"interp.dispatch.self_us", "us", "lower"},
	{"interp.op.self_us", "us", "lower"},
	{"interp.sem.steps_per_op", "count", "lower"},
	{"interp.sem.ns_per_step", "ns", "lower"},
	{"interp.trace.overhead_us", "us", "lower"},
}

type interpProgram struct {
	w    paper.CycleWorkload
	mod  *cmm.Module
	opts []cmm.RunOption
	it   *cmm.Interp
}

type interpWorkload struct {
	progs []interpProgram
	deck  []request
	// work is each request's simulated instructions and cycles on the
	// compiled machine, measured once at set-up. It puts the
	// interpreter's throughput in the same unit as exec's.
	work []outcome
	tr   *tracer

	steps int64 // summed over traced requests
}

func (w *interpWorkload) setup(seed int64, tr *tracer) error {
	deck, err := drawDeck(seed, interpScale)
	if err != nil {
		return err
	}
	w.deck, w.tr = deck, tr
	var machines []*cmm.Machine
	var code []int64
	for _, cw := range paper.CycleWorkloads {
		d, err := dispatcherFor(cw.Dispatcher)
		if err != nil {
			return err
		}
		mc, size, err := compileCycleWorkload(cw, d)
		if err != nil {
			return fmt.Errorf("%s: %w", cw.Name, err)
		}
		machines, code = append(machines, mc), append(code, size)
		mod, err := cmm.Load(cw.Src)
		if err != nil {
			return fmt.Errorf("%s: %w", cw.Name, err)
		}
		var opts []cmm.RunOption
		if d != nil {
			if tr != nil {
				d = &tracedDispatcher{inner: d, tr: tr, name: "interp.dispatch"}
			}
			opts = append(opts, cmm.WithDispatcher(d))
		}
		it, err := mod.Interp(opts...)
		if err != nil {
			return fmt.Errorf("%s: %w", cw.Name, err)
		}
		w.progs = append(w.progs, interpProgram{w: cw, mod: mod, opts: opts, it: it})
	}
	w.work = make([]outcome, len(deck))
	for i, r := range deck {
		mc := machines[r.prog]
		before := mc.Stats()
		if _, err := mc.Run(w.progs[r.prog].w.Proc, r.arg); err != nil {
			return fmt.Errorf("sizing %s(%d): %w", w.progs[r.prog].w.Name, r.arg, err)
		}
		after := mc.Stats()
		w.work[i] = outcome{instrs: after.Instrs - before.Instrs, cycles: after.Cycles - before.Cycles, code: code[r.prog]}
	}
	return nil
}

func (w *interpWorkload) size() int { return len(w.deck) }

func (w *interpWorkload) do(i int, op, root int32) outcome {
	r := w.deck[i]
	p := &w.progs[r.prog]
	tr := w.tr
	if root < 0 {
		tr = nil
	}
	before := p.it.Steps()
	var res []uint64
	var err error
	if tr == nil {
		res, err = p.it.Run(p.w.Proc, r.arg)
	} else {
		id := tr.begin(op, root, "interp.sem.run")
		tr.enter(op, id)
		res, err = p.it.Run(p.w.Proc, r.arg)
		tr.end(id)
	}
	steps := p.it.Steps() - before
	o := w.work[i]
	o.sig = uint64(steps)
	switch {
	case err != nil:
		o.err = fmt.Errorf("%s(%d): %w", p.w.Name, r.arg, err)
	case len(res) == 0 || res[0] != r.want:
		o.err = fmt.Errorf("%s(%d) = %v, want %d", p.w.Name, r.arg, res, r.want)
	}
	if tr != nil {
		w.steps += steps
	}
	return o
}

// buildUs times, after the traced phase, what is not on a request's
// path: building an interpreter, ten times per program. It returns the
// median in µs.
func (w *interpWorkload) buildUs() float64 {
	var builds []time.Duration
	for _, p := range w.progs {
		for k := 0; k < 10; k++ {
			start := time.Now()
			if _, err := p.mod.Interp(p.opts...); err != nil {
				return 0
			}
			builds = append(builds, time.Since(start))
		}
	}
	return us(median(builds))
}

func (w *interpWorkload) layers(lt layerTimes, traced, plain *phase) map[string]float64 {
	n := int(lt.count["interp.op"])
	return map[string]float64{
		"interp.sem.build_us":      w.buildUs(),
		"interp.sem.run_us":        perOp(lt.total["interp.sem.run"], n),
		"interp.sem.self_us":       perOp(lt.self["interp.sem.run"], n),
		"interp.dispatch.self_us":  perOp(lt.self["interp.dispatch"], n),
		"interp.op.self_us":        perOp(lt.self["interp.op"], n),
		"interp.sem.steps_per_op":  float64(w.steps) / float64(n),
		"interp.sem.ns_per_step":   safeDiv(float64(lt.self["interp.sem.run"]), float64(w.steps)),
		"interp.trace.overhead_us": overhead(traced, plain),
	}
}
