package sched

import (
	"fmt"
	"runtime"
	"testing"

	"cmm/internal/cfg"
	"cmm/internal/check"
	"cmm/internal/codegen"
	"cmm/internal/dispatch"
	"cmm/internal/machine"
	"cmm/internal/obs"
	"cmm/internal/paper"
	"cmm/internal/rts"
	"cmm/internal/syntax"
	"cmm/internal/vm"
)

// proto compiles src and loads it as a scheduler prototype.
func proto(t *testing.T, src string, opts ...vm.Option) *vm.Instance {
	t.Helper()
	prog, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := check.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	g, err := cfg.Build(prog, info)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	cp, err := codegen.Compile(g, codegen.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	inst, err := vm.NewInstance(cp, append([]vm.Option{vm.WithMemSize(1 << 20)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// dispatcherRuntime adapts a dispatch.* run-time system to the vm yield
// seam, exactly as the cmm facade does.
type yieldDispatcher interface {
	Dispatch(t rts.Thread, args []uint64) error
}

func withDispatcher(d yieldDispatcher) vm.Option {
	return vm.WithRuntime(vm.RuntimeFunc(func(th *vm.Thread, args []uint64) error {
		return d.Dispatch(rts.VMThread{T: th}, args)
	}))
}

// mechanismProtos builds one prototype per Figure 2 exception
// mechanism, all on the given engine.
func mechanismProtos(t *testing.T, e machine.Engine) []*vm.Instance {
	t.Helper()
	eng := vm.WithEngine(e)
	return []*vm.Instance{
		proto(t, paper.Fig2Cut, eng),
		proto(t, paper.Fig2RuntimeCut, eng, withDispatcher(&dispatch.RegisterDispatcher{HandlerGlobal: "handler"})),
		proto(t, paper.Fig2RuntimeUnwind, eng, withDispatcher(&dispatch.UnwindDispatcher{})),
		proto(t, paper.Fig2NativeUnwind, eng),
	}
}

// requestMix builds n handler-rich requests over the four mechanisms,
// with varying depths and a sprinkling of cancellations (tasks whose
// sim-instr deadline fires mid-request and cuts to the parked handler).
func requestMix(protos []*vm.Instance, n int) []Task {
	tasks := make([]Task, 0, n)
	for i := 0; i < n; i++ {
		tk := Task{
			ID:    i,
			Proto: protos[i%len(protos)],
			Proc:  "f",
			Args:  []uint64{uint64(4 + i%60)},
		}
		// Every 7th request riding the runtime-cut mechanism is a deep
		// dig with a timeout: the scheduler kills it via the handler
		// global long before its own raise would fire.
		if i%7 == 3 {
			tk.Proto = protos[1]
			tk.Args = []uint64{5000}
			tk.CancelAfter = 2000
			tk.CancelCont = "handler"
			tk.CancelParams = []uint64{7, 99}
		}
		tasks = append(tasks, tk)
	}
	return tasks
}

// TestServeAllMechanisms: a request mix over all four mechanisms served
// by a 4-worker pool — every request completes with the right answer
// (42, or the cancellation payload 99).
func TestServeAllMechanisms(t *testing.T) {
	protos := mechanismProtos(t, machine.EngineNative)
	tasks := requestMix(protos, 48)
	results, err := Run(Config{Workers: 4, Slice: 500}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(tasks) {
		t.Fatalf("%d results for %d tasks", len(results), len(tasks))
	}
	for i, r := range results {
		if r.ID != tasks[i].ID {
			t.Fatalf("result %d carries id %d", i, r.ID)
		}
		if r.Err != nil {
			t.Errorf("task %d: %v", i, r.Err)
			continue
		}
		want := uint64(42)
		if tasks[i].CancelAfter > 0 {
			want = 99
			if !r.Cancelled {
				t.Errorf("task %d: deadline never fired (stats %+v)", i, r.Stats)
			}
			if r.CutDepth < 2 {
				t.Errorf("task %d: cancelled at depth %d, want an in-flight stack", i, r.CutDepth)
			}
		} else if r.Cancelled {
			t.Errorf("task %d: cancelled without a deadline", i)
		}
		if r.Res[0] != want {
			t.Errorf("task %d: result %d, want %d", i, r.Res[0], want)
		}
		if r.Slices == 0 {
			t.Errorf("task %d: consumed no slices", i)
		}
	}
}

// sameResults asserts two runs produced identical per-task tuples:
// result registers, trap, counters, slice count, cancellation point.
func sameResults(t *testing.T, label string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Slices != y.Slices || x.Cancelled != y.Cancelled || x.CutDepth != y.CutDepth {
			t.Errorf("%s: task %d scheduling tuple diverged: %+v vs %+v", label, i, x, y)
		}
		if x.Stats != y.Stats {
			t.Errorf("%s: task %d counters diverged:\n%+v\n%+v", label, i, x.Stats, y.Stats)
		}
		if fmt.Sprint(x.Err) != fmt.Sprint(y.Err) {
			t.Errorf("%s: task %d trap diverged: %v vs %v", label, i, x.Err, y.Err)
		}
		if len(x.Res) != len(y.Res) {
			t.Errorf("%s: task %d result arity diverged", label, i)
			continue
		}
		for j := range x.Res {
			if x.Res[j] != y.Res[j] {
				t.Errorf("%s: task %d result[%d]: %d vs %d", label, i, j, x.Res[j], y.Res[j])
			}
		}
	}
}

// aggregate sums the deterministic half of a run's telemetry.
func aggregate(rs []Result) (slices, instrs, cycles, completed, cancelled, trapped int64) {
	for _, r := range rs {
		slices += r.Slices
		instrs += r.Stats.Instrs
		cycles += r.Stats.Cycles
		switch {
		case r.Err != nil:
			trapped++
		case r.Cancelled:
			cancelled++
		default:
			completed++
		}
	}
	return
}

// TestDeterminismAcrossWorkers is the scheduler's core contract: the
// same request mix over 1, 2, and NumCPU workers produces identical
// per-task (result, trap, Stats) tuples and identical aggregate
// telemetry, on both engines. Runs under -race in CI.
func TestDeterminismAcrossWorkers(t *testing.T) {
	for _, eng := range []struct {
		name string
		e    machine.Engine
	}{{"ref", machine.EngineRef}, {"native", machine.EngineNative}} {
		t.Run(eng.name, func(t *testing.T) {
			protos := mechanismProtos(t, eng.e)
			tasks := requestMix(protos, 64)
			counts := []int{1, 2}
			if n := runtime.NumCPU(); n > 2 {
				counts = append(counts, n)
			}
			var base []Result
			for _, w := range counts {
				rs, err := Run(Config{Workers: w, Slice: 500}, tasks)
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = rs
					continue
				}
				sameResults(t, fmt.Sprintf("%d workers vs 1", w), base, rs)
				s1, i1, c1, co1, ca1, tr1 := aggregate(base)
				s2, i2, c2, co2, ca2, tr2 := aggregate(rs)
				if s1 != s2 || i1 != i2 || c1 != c2 || co1 != co2 || ca1 != ca2 || tr1 != tr2 {
					t.Errorf("%d workers: aggregate telemetry diverged", w)
				}
			}
		})
	}
}

// TestSliceSizeIndependentResults: the slice size changes how often
// threads are preempted, never what they compute — results and retired
// counters match across slice sizes (slice counts of course differ).
func TestSliceSizeIndependentResults(t *testing.T) {
	protos := mechanismProtos(t, machine.EngineNative)
	tasks := requestMix(protos, 16)
	small, err := Run(Config{Workers: 2, Slice: 100}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(Config{Workers: 2, Slice: 50_000}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range small {
		if small[i].Err != nil || large[i].Err != nil {
			t.Fatalf("task %d trapped: %v / %v", i, small[i].Err, large[i].Err)
		}
		if small[i].Res[0] != large[i].Res[0] {
			t.Errorf("task %d: %d vs %d across slice sizes", i, small[i].Res[0], large[i].Res[0])
		}
		// Cancellation deadlines are quantized to slice boundaries, so
		// cancelled tasks legitimately retire different counts; the
		// uncancelled ones must match exactly.
		if !small[i].Cancelled && small[i].Stats != large[i].Stats {
			t.Errorf("task %d: counters diverged across slice sizes", i)
		}
	}
}

// TestTrapsAreIsolated: a request that traps (or can't even start)
// reports its error without disturbing its neighbours.
func TestTrapsAreIsolated(t *testing.T) {
	protos := mechanismProtos(t, machine.EngineNative)
	tasks := []Task{
		{ID: 0, Proto: protos[0], Proc: "f", Args: []uint64{8}},
		{ID: 1, Proto: protos[0], Proc: "no-such-proc"},
		{ID: 2, Proto: protos[0], Proc: "f", Args: []uint64{1 << 30}}, // stack exhaustion
		{ID: 3, Proto: protos[0], Proc: "f", Args: []uint64{8}},
	}
	rs, err := Run(Config{Workers: 2, Slice: 200}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Err == nil {
		t.Error("unknown procedure did not report an error")
	}
	if rs[2].Err == nil {
		t.Error("stack exhaustion did not report a trap")
	}
	for _, i := range []int{0, 3} {
		if rs[i].Err != nil || rs[i].Res[0] != 42 {
			t.Errorf("healthy task %d disturbed: %+v", i, rs[i])
		}
	}
}

// TestObserverSchedSection: attaching an observer to a run adds the
// sched section and histograms to the metrics export.
func TestObserverSchedSection(t *testing.T) {
	protos := mechanismProtos(t, machine.EngineNative)
	tasks := requestMix(protos, 24)
	o := obs.New()
	if _, err := Run(Config{Workers: 3, Slice: 500, Obs: o}, tasks); err != nil {
		t.Fatal(err)
	}
	m := o.Metrics()
	if m.Sched == nil {
		t.Fatal("no sched section in metrics")
	}
	if m.Sched["tasks"] != 24 || m.Sched["workers"] != 3 || m.Sched["slice"] != 500 {
		t.Errorf("sched section wrong: %+v", m.Sched)
	}
	if m.Sched["completed"]+m.Sched["cancelled"]+m.Sched["trapped"] != 24 {
		t.Errorf("task outcomes don't add up: %+v", m.Sched)
	}
	if m.Sched["cancelled"] == 0 {
		t.Error("request mix produced no cancellations")
	}
	if m.Sched["sim_instrs"] == 0 || m.Sched["slices"] == 0 {
		t.Errorf("no simulated work recorded: %+v", m.Sched)
	}
	if len(m.SchedWorkers) != 3 {
		t.Errorf("%d per-worker rows, want 3", len(m.SchedWorkers))
	}
	if _, ok := m.Histograms["sched_queue_depth"]; !ok {
		t.Error("no queue-depth histogram")
	}
	if _, ok := m.Histograms["sched_cut_depth"]; !ok {
		t.Error("no cut-depth histogram")
	}
}

// TestManyThreads exercises the M:N claim at test scale: a thousand
// simulated threads over a handful of workers, every one isolated and
// correct. (perfbench's serve workload measures throughput at scale.)
func TestManyThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	protos := mechanismProtos(t, machine.EngineNative)
	tasks := make([]Task, 1000)
	for i := range tasks {
		tasks[i] = Task{ID: i, Proto: protos[i%len(protos)], Proc: "f", Args: []uint64{uint64(4 + i%32)}}
	}
	rs, err := Run(Config{Workers: 4, Slice: 1000}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("thread %d: %v", i, r.Err)
		}
		if r.Res[0] != 42 {
			t.Fatalf("thread %d: %d", i, r.Res[0])
		}
	}
}
