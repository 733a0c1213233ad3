package main

// The compile workload: one request is source → checked result. It
// loads a generated program, optimizes it at -O2, compiles it for the
// simulated machine, runs main once and checks the value the generator
// computed.

import (
	"fmt"
	"math"
	"math/rand"

	"cmm"
)

// compileDeck is the number of generated programs. Their procedure
// counts are log-uniform over 10..50, many small and a few large, drawn
// within compileDeck equal strata so that the deck's mean size hardly
// moves from seed to seed.
const compileDeck = 96

// compileMem is the simulated memory of each compiled program's machine.
// The short run needs little; the 4 MiB default would make zeroing
// memory, not the pipeline, a large share of every request.
const compileMem = 1 << 16

var compileLayers = []layerDef{
	{"compile.pipeline.frontend_us", "us", "lower"},
	{"compile.opt.apply_us", "us", "lower"},
	{"compile.codegen.native_us", "us", "lower"},
	{"compile.machine.first_run_us", "us", "lower"},
	{"compile.pass.parse_us", "us", "lower"},
	{"compile.pass.check_us", "us", "lower"},
	{"compile.pass.translate_us", "us", "lower"},
	{"compile.pass.liveness_us", "us", "lower"},
	{"compile.pass.interproc_us", "us", "lower"},
	{"compile.pass.opt_us", "us", "lower"},
	{"compile.pass.codegen_us", "us", "lower"},
	{"compile.pass.link_us", "us", "lower"},
	{"compile.stages.self_us", "us", "lower"},
	{"compile.op.self_us", "us", "lower"},
	{"compile.cfg.nodes", "count", "lower"},
	{"compile.opt.nodes_removed", "count", "higher"},
	{"compile.opt.sites_quieted", "count", "higher"},
	{"compile.codegen.instrs", "count", "lower"},
	{"compile.trace.overhead_us", "us", "lower"},
}

// The stage spans, in request order.
var compileStages = [...]string{
	"compile.pipeline.frontend",
	"compile.opt.apply",
	"compile.codegen.native",
	"compile.machine.first_run",
}

type compileWorkload struct {
	deck []genProgram
	disp cmm.Dispatcher
	tr   *tracer

	// Counts summed over traced requests.
	traced                          int
	nodes, removed, quieted, instrs int64
}

func (w *compileWorkload) setup(seed int64, tr *tracer) error {
	rng := rand.New(rand.NewSource(seed))
	w.deck = make([]genProgram, compileDeck)
	for i := range w.deck {
		u := (float64(i) + rng.Float64()) / compileDeck
		procs := int(math.Round(10 * math.Exp(u*math.Log(5))))
		w.deck[i] = generate(rng.Int63(), procs)
	}
	rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	w.tr = tr
	w.disp = newGenDispatcher()
	if tr != nil {
		w.disp = &tracedDispatcher{inner: w.disp, tr: tr, name: "compile.dispatch"}
	}
	return nil
}

func (w *compileWorkload) size() int { return len(w.deck) }

func (w *compileWorkload) do(i int, op, root int32) outcome {
	g := &w.deck[i]
	tr := w.tr
	if root < 0 {
		tr = nil
	}
	var stages [len(compileStages)]int32
	var k int
	begin := func() {
		if tr != nil {
			stages[k] = tr.begin(op, root, compileStages[k])
			tr.enter(op, stages[k])
		}
	}
	end := func() {
		if tr != nil {
			tr.end(stages[k])
		}
		k++
	}

	begin()
	m, err := cmm.Load(g.Src)
	end()
	if err != nil {
		return outcome{err: err}
	}
	begin()
	summary, err := m.ApplyOpt(2)
	end()
	if err != nil {
		return outcome{err: err}
	}
	begin()
	mc, err := m.Native(cmm.CompileConfig{Opt: 2}, cmm.WithDispatcher(w.disp), cmm.WithMemSize(compileMem))
	end()
	if err != nil {
		return outcome{err: err}
	}
	begin()
	res, err := mc.Run("main", g.Arg)
	end()

	var code int64
	for _, p := range m.Procedures() {
		code += int64(mc.CodeSize(p))
	}
	st := mc.Stats()
	o := outcome{instrs: st.Instrs, cycles: st.Cycles, code: code}
	switch {
	case err != nil:
		o.err = err
	case res[0] != g.Want:
		o.err = fmt.Errorf("main(%d) of a %d-procedure program = %d, want %d", g.Arg, g.Procs, res[0], g.Want)
	}
	if tr != nil {
		w.record(tr, op, stages[:k], m.PassStats(), summary)
	}
	return o
}

// record turns the module's pass timings into spans under the stage
// that ran them, and sums the IR counts.
func (w *compileWorkload) record(tr *tracer, op int32, stages []int32, stats []cmm.PassStat, summary string) {
	for _, st := range stats {
		start := int64(st.Start.Sub(tr.epoch))
		parent := int32(-1)
		for _, id := range stages {
			if lo, hi := tr.interval(id); start >= lo && start <= hi {
				parent = id
			}
		}
		tr.add(op, parent, "compile.pass."+st.Name, st.Start, st.Wall)
		switch st.Name {
		case "translate":
			w.nodes += int64(st.IRAfter)
		case "interproc", "opt":
			w.removed += int64(st.IRBefore - st.IRAfter)
		case "link":
			w.instrs += int64(st.IRAfter)
		}
	}
	var q int
	if _, err := fmt.Sscanf(summary, "interproc: quieted %d", &q); err == nil {
		w.quieted += int64(q)
	}
	w.traced++
}

func (w *compileWorkload) layers(lt layerTimes, traced, plain *phase) map[string]float64 {
	n := w.traced
	v := map[string]float64{
		"compile.pipeline.frontend_us": perOp(lt.total["compile.pipeline.frontend"], n),
		"compile.opt.apply_us":         perOp(lt.total["compile.opt.apply"], n),
		"compile.codegen.native_us":    perOp(lt.total["compile.codegen.native"], n),
		"compile.machine.first_run_us": perOp(lt.total["compile.machine.first_run"], n),
		"compile.op.self_us":           perOp(lt.self["compile.op"], n),
		"compile.cfg.nodes":            float64(w.nodes) / float64(n),
		"compile.opt.nodes_removed":    float64(w.removed) / float64(n),
		"compile.opt.sites_quieted":    float64(w.quieted) / float64(n),
		"compile.codegen.instrs":       float64(w.instrs) / float64(n),
		"compile.trace.overhead_us":    overhead(traced, plain),
	}
	var stageSelf int64
	for _, s := range compileStages {
		stageSelf += lt.self[s]
	}
	v["compile.stages.self_us"] = perOp(stageSelf, n)
	for _, p := range []string{"parse", "check", "translate", "liveness", "interproc", "opt", "codegen", "link"} {
		v["compile.pass."+p+"_us"] = perOp(lt.total["compile.pass."+p], n)
	}
	return v
}
