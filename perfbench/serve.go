package main

// The serve workload: one request is a burst of tasks served by
// sched.Run over nproc workers. Each task runs one of the four Figure 2
// mechanisms on a fresh clone of a prototype built at set-up; a fixed
// share of them are deep runtime-cut digs that the scheduler cancels by
// deadline, as in cmmbench -sched.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cmm"
	"cmm/internal/codegen"
	"cmm/internal/opt"
	"cmm/internal/paper"
	"cmm/internal/pipeline"
	"cmm/internal/rts"
	"cmm/internal/sched"
	"cmm/internal/vm"
)

const (
	serveDeck   = 32  // bursts in the deck
	burstTasks  = 192 // tasks per burst
	cancelEvery = 11  // every 11th task carries a cancellation deadline
	// cancelResult is what a cancelled task returns: the cancellation
	// cut delivers (tag, arg) = cancelParams to the handler, which
	// returns arg.
	cancelResult = 99
	// serveMem is each clone's simulated memory: enough for the deepest
	// request's stack, small enough that a clone stays cheap.
	serveMem = 1 << 16
)

var cancelParams = []uint64{7, cancelResult}

var serveLayers = []layerDef{
	{"serve.sched.burst_us", "us", "lower"},
	{"serve.sched.serial_us", "us", "lower"},
	{"serve.sched.efficiency", "ratio", "higher"},
	{"serve.vm.clone_us", "us", "lower"},
	{"serve.dispatch.self_us", "us", "lower"},
	{"serve.sched.remainder_us", "us", "lower"},
	{"serve.op.self_us", "us", "lower"},
	{"serve.sched.slices_per_task", "count", "lower"},
	{"serve.sched.steals_per_burst", "count", "lower"},
	{"serve.sched.cancelled_share", "ratio", "lower"},
	{"serve.sched.cut_depth_mean", "count", "lower"},
	{"serve.trace.overhead_us", "us", "lower"},
}

// The four mechanisms, in prototype order.
var serveSources = []struct {
	src, dispatcher string
}{
	{paper.Fig2Cut, ""},
	{paper.Fig2RuntimeCut, "register:handler"},
	{paper.Fig2RuntimeUnwind, "unwind"},
	{paper.Fig2NativeUnwind, ""},
}

const runtimeCutProto = 1 // the prototype whose "handler" global cancellation cuts to

type serveWorkload struct {
	protos  []*vm.Instance
	code    []int64
	deck    [][]sched.Task
	workers int
	tr      *tracer

	// Traced totals.
	bursts, tasks, slices, steals, cancelled, cut int64
}

// serveProto compiles a Figure 2 program at -O2 through the same
// pipeline stages Module.ApplyOpt(2) and Module.Native run, and loads it
// as a scheduler prototype on the default engine.
func serveProto(src string, d cmm.Dispatcher) (*vm.Instance, int64, error) {
	s := pipeline.New(src, pipeline.Config{})
	if err := s.Frontend(); err != nil {
		return nil, 0, err
	}
	if _, err := s.Interproc(); err != nil {
		return nil, 0, err
	}
	if _, err := s.OptimizeWith(opt.Options{}); err != nil {
		return nil, 0, err
	}
	cp, err := s.CodegenWith(codegen.Options{Opt: 2})
	if err != nil {
		return nil, 0, err
	}
	opts := []vm.Option{vm.WithMemSize(serveMem)}
	if d != nil {
		opts = append(opts, vm.WithRuntime(vm.RuntimeFunc(func(t *vm.Thread, args []uint64) error {
			return d.Dispatch(rts.VMThread{T: t}, args)
		})))
	}
	inst, err := vm.NewInstance(cp, opts...)
	if err != nil {
		return nil, 0, err
	}
	var code int64
	for _, name := range cp.Source.Order {
		code += int64(cp.CodeSize(name))
	}
	inst.Precompile()
	return inst, code, nil
}

func (w *serveWorkload) setup(seed int64, tr *tracer) error {
	w.tr = tr
	w.workers = runtime.NumCPU()
	for _, s := range serveSources {
		d, err := dispatcherFor(s.dispatcher)
		if err != nil {
			return err
		}
		if d != nil && tr != nil {
			// Dispatchers run on every worker here, so they are timed
			// but not counted.
			d = &tracedDispatcher{inner: d, tr: tr, name: "serve.dispatch"}
		}
		p, code, err := serveProto(s.src, d)
		if err != nil {
			return err
		}
		w.protos, w.code = append(w.protos, p), append(w.code, code)
	}
	rng := rand.New(rand.NewSource(seed))
	w.deck = make([][]sched.Task, serveDeck)
	for b := range w.deck {
		tasks := make([]sched.Task, burstTasks)
		for i := range tasks {
			// Raise depths are log-uniform over 16..1024 within
			// stratified slots, as in the exec deck.
			u := (float64(i) + rng.Float64()) / burstTasks
			t := sched.Task{ID: i, Proto: w.protos[i%len(w.protos)], Proc: "f",
				Args: []uint64{uint64(math.Round(16 * math.Exp(u*math.Log(64))))}}
			if i%cancelEvery == cancelEvery/2 {
				t.Proto = w.protos[runtimeCutProto]
				t.Args = []uint64{uint64(2000 + rng.Intn(1000))}
				t.CancelAfter = int64(5000 + rng.Intn(25000))
				t.CancelCont = "handler"
				t.CancelParams = cancelParams
			}
			tasks[i] = t
		}
		rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
		w.deck[b] = tasks
	}
	return nil
}

func (w *serveWorkload) size() int { return len(w.deck) }

func (w *serveWorkload) do(i int, op, root int32) outcome {
	tasks := w.deck[i]
	tr := w.tr
	if root < 0 {
		tr = nil
	}
	cfg := sched.Config{Workers: w.workers}
	var id int32
	var ob *cmm.Observer
	if tr != nil {
		ob = cmm.NewObserver()
		cfg.Obs = ob
		id = tr.begin(op, root, "serve.sched.run")
		tr.enter(op, id)
	}
	results, err := sched.Run(cfg, tasks)
	if tr != nil {
		tr.end(id)
		tr.enter(-1, -1)
		w.record(results, ob)
	}
	if err != nil {
		return outcome{err: err}
	}
	var o outcome
	h := fnv.New64a()
	for k, r := range results {
		t := &tasks[k]
		o.instrs += r.Stats.Instrs
		o.cycles += r.Stats.Cycles
		for p := range w.protos {
			if w.protos[p] == t.Proto {
				o.code += w.code[p]
			}
		}
		fmt.Fprintf(h, "%d %d %d %d %v %d;", r.Stats.Instrs, r.Stats.Cycles, r.Slices, r.CutDepth, r.Cancelled, r.Stats.Yields)
		want := uint64(42)
		if r.Cancelled {
			want = cancelResult
		}
		switch {
		case r.Err != nil && o.err == nil:
			o.err = fmt.Errorf("task %d (f(%d)): %w", t.ID, t.Args[0], r.Err)
		case r.Err == nil && r.Res[0] != want && o.err == nil:
			o.err = fmt.Errorf("task %d (f(%d)) = %d, want %d", t.ID, t.Args[0], r.Res[0], want)
		}
	}
	o.sig = h.Sum64()
	return o
}

// record gathers a traced burst's scheduler figures.
func (w *serveWorkload) record(results []sched.Result, ob *cmm.Observer) {
	w.bursts++
	w.steals += ob.Metrics().Sched["steals"]
	for _, r := range results {
		w.tasks++
		w.slices += r.Slices
		if r.Cancelled {
			w.cancelled++
			w.cut += int64(r.CutDepth)
		}
	}
}

// offPath times, after the traced phase, what is not on a burst's path:
// every burst of the deck on one worker, whose mean is the serial time
// the efficiency compares against, and Clone calls on the prototypes.
func (w *serveWorkload) offPath() (serialUs, cloneUs float64) {
	var serial time.Duration
	var clones []time.Duration
	for _, tasks := range w.deck {
		start := time.Now()
		if _, err := sched.Run(sched.Config{Workers: 1}, tasks); err != nil {
			return 0, 0
		}
		serial += time.Since(start)
		for _, p := range w.protos {
			start := time.Now()
			if _, err := p.Clone(); err != nil {
				return 0, 0
			}
			clones = append(clones, time.Since(start))
		}
	}
	return us(serial) / float64(len(w.deck)), us(median(clones))
}

func (w *serveWorkload) layers(lt layerTimes, traced, plain *phase) map[string]float64 {
	n := int(w.bursts)
	burst := perOp(lt.total["serve.sched.run"], n)
	serial, clone := w.offPath()
	dispatch := perOp(lt.self["serve.dispatch"], n)
	tasksPerBurst := safeDiv(float64(w.tasks), float64(n))
	return map[string]float64{
		"serve.sched.burst_us":   burst,
		"serve.sched.serial_us":  serial,
		"serve.sched.efficiency": safeDiv(serial, float64(w.workers)*burst),
		"serve.vm.clone_us":      clone,
		"serve.dispatch.self_us": dispatch,
		// Worker time in a burst not spent in dispatchers or (by the
		// timed clones) in Clone: machine execution, scheduling and idle
		// workers.
		"serve.sched.remainder_us":     float64(w.workers)*burst - dispatch - clone*tasksPerBurst,
		"serve.op.self_us":             perOp(lt.self["serve.op"], n),
		"serve.sched.slices_per_task":  safeDiv(float64(w.slices), float64(w.tasks)),
		"serve.sched.steals_per_burst": safeDiv(float64(w.steals), float64(n)),
		"serve.sched.cancelled_share":  safeDiv(float64(w.cancelled), float64(w.tasks)),
		"serve.sched.cut_depth_mean":   safeDiv(float64(w.cut), float64(w.cancelled)),
		"serve.trace.overhead_us":      overhead(traced, plain),
	}
}
