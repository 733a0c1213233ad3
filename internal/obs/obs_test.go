package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Synthetic event stream used across the tests: main calls f at sp 1000
// (f's frame base is 900), f calls g (base 800), g cuts back to main's
// continuation at sp 1000.
//
// Stack-pointer convention: the simulated stack grows down, and a call
// event records the sp at the call site (the caller's frame base from
// the callee's point of view).
func cutScenario() *Observer {
	o := New()
	o.ProcName = func(pc int) string {
		switch pc {
		case 10:
			return "main"
		case 20:
			return "f"
		case 30:
			return "g"
		}
		return ""
	}
	o.Emit(Event{Kind: KCall, Ts: 0, PC: 1, SP: 1100, A: 10})   // -> main
	o.Emit(Event{Kind: KCall, Ts: 10, PC: 11, SP: 1000, A: 20}) // -> f
	o.Emit(Event{Kind: KCall, Ts: 30, PC: 21, SP: 900, A: 30})  // -> g
	o.Emit(Event{Kind: KCutTo, Ts: 60, PC: 31, SP: 1000, A: 12})
	o.Emit(Event{Kind: KReturn, Ts: 80, PC: 13, SP: 1100, A: 2})
	return o
}

func TestStackSimPopRule(t *testing.T) {
	var sim stackSim
	push := func(sp uint64) {
		if _, pushed := sim.apply(Event{Kind: KCall, SP: sp, A: 1}); !pushed {
			t.Fatal("call did not push")
		}
	}
	pop := func(kind Kind, sp uint64) int {
		n, _ := sim.apply(Event{Kind: kind, SP: sp})
		return n
	}
	push(1000)
	push(900)
	push(800)
	// A normal return to the caller's frame pops exactly one frame.
	if n := pop(KReturn, 800); n != 1 {
		t.Errorf("return popped %d frames, want 1", n)
	}
	// A cut landing at the outermost sp pops the rest in one event; the
	// popped count is the measured cut depth.
	if n := pop(KCutTo, 1000); n != 2 {
		t.Errorf("cut popped %d frames, want 2", n)
	}
	if sim.depth() != 0 {
		t.Errorf("depth %d after cut, want 0", sim.depth())
	}
	// Unknown-to-the-stack kinds are no-ops.
	if n, pushed := sim.apply(Event{Kind: KYield, SP: 0}); n != 0 || pushed {
		t.Errorf("yield touched the stack: popped=%d pushed=%v", n, pushed)
	}
}

func TestObserverCountsAndBounds(t *testing.T) {
	o := New()
	o.MaxEvents = 3
	for i := 0; i < 5; i++ {
		o.Emit(Event{Kind: KCall, Ts: int64(i)})
	}
	if len(o.Trace) != 3 {
		t.Errorf("trace length %d, want 3 (bounded)", len(o.Trace))
	}
	if o.Dropped != 2 {
		t.Errorf("dropped %d, want 2", o.Dropped)
	}
	if o.Count(KCall) != 5 {
		t.Errorf("count %d, want 5 (counters keep counting past the bound)", o.Count(KCall))
	}

	o.Emit(Event{Kind: KDispatch, A: MechUnwind})
	o.Emit(Event{Kind: KDispatch, A: MechRegister})
	if o.DispatchCount(MechUnwind) != 1 || o.DispatchCount(MechRegister) != 1 || o.DispatchCount(MechExnStack) != 0 {
		t.Errorf("dispatch counts wrong: unwind=%d exnstack=%d register=%d",
			o.DispatchCount(MechUnwind), o.DispatchCount(MechExnStack), o.DispatchCount(MechRegister))
	}
}

func TestEmitNowUsesClock(t *testing.T) {
	o := New()
	o.Clock = func() (int64, int64) { return 123, 45 }
	o.EmitNow(KDispatch, -1, MechUnwind, 7)
	ev := o.Trace[0]
	if ev.Ts != 123 || ev.Instr != 45 || ev.PC != -1 {
		t.Errorf("EmitNow stamped %+v, want Ts=123 Instr=45 PC=-1", ev)
	}
}

func TestMetricsCountersAndHistograms(t *testing.T) {
	o := cutScenario()
	o.Emit(Event{Kind: KDispatchEnd, Ts: 90, A: MechUnwind, B: 5})
	o.Emit(Event{Kind: KSetjmpCopy, Ts: 95, B: 24})
	o.RecordMachineCounters(MachineCounters{Cycles: 100, Instrs: 50, Loads: 5, Stores: 3, Branches: 10, Calls: 3, Yields: 1})
	m := o.Metrics()

	want := map[string]int64{
		"calls":               3,
		"returns":             1,
		"cuts":                1,
		"setjmp_copies":       1,
		"setjmp_bytes_copied": 24,
		"sim_cycles":          100,
		"instr_alu_other":     50 - 5 - 3 - 10 - 3 - 1,
	}
	for k, v := range want {
		if m.Counters[k] != v {
			t.Errorf("counter %s = %d, want %d", k, m.Counters[k], v)
		}
	}
	h, ok := m.Histograms["cut_depth"]
	if !ok {
		t.Fatal("no cut_depth histogram")
	}
	// The cut discarded f and g: depth 2.
	if h.Count != 1 || h.Min != 2 || h.Max != 2 {
		t.Errorf("cut_depth = %+v, want one observation of 2", h)
	}
	h, ok = m.Histograms["unwind_chain_len"]
	if !ok {
		t.Fatal("no unwind_chain_len histogram")
	}
	if h.Count != 1 || h.Sum != 5 {
		t.Errorf("unwind_chain_len = %+v, want one observation of 5", h)
	}
}

func TestMetricsJSONDeterministic(t *testing.T) {
	a, err := cutScenario().Metrics().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cutScenario().Metrics().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("metrics JSON is not deterministic")
	}
	// And it round-trips as JSON.
	var m Metrics
	if err := json.Unmarshal(a, &m); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := snapshotHistogram([]int64{1, 2, 3, 8, 9})
	if h.Count != 5 || h.Min != 1 || h.Max != 9 || h.Sum != 23 {
		t.Errorf("summary wrong: %+v", h)
	}
	// Power-of-two upper bounds: 1→le1, 2→le2, 3→le4, 8→le8, 9→le16.
	want := []Bucket{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {16, 1}}
	if len(h.Buckets) != len(want) {
		t.Fatalf("buckets %+v, want %+v", h.Buckets, want)
	}
	for i := range want {
		if h.Buckets[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, h.Buckets[i], want[i])
		}
	}
}

// TestChromeTraceValidates checks the export against the Trace Event
// JSON schema: it must parse, every event needs a phase and a pid,
// complete events need durations, instants need a scope, and duration
// events must balance (every B eventually closed by an E) — Perfetto
// and chrome://tracing silently mis-render traces that violate this.
func TestChromeTraceValidates(t *testing.T) {
	o := cutScenario()
	o.AddSpan(Span{Name: "parse", Start: 0, Dur: 10})
	o.AddSpan(Span{Name: "codegen", Start: 10, Dur: 5})

	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(top.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	depth := 0
	var sawX, sawI bool
	var lastTs float64
	for i, ev := range top.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok || ph == "" {
			t.Fatalf("event %d has no phase: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d has no pid: %v", i, ev)
		}
		switch ph {
		case "M":
			// metadata: name + args.name required
			if ev["name"] != "process_name" {
				t.Errorf("event %d: metadata name %v", i, ev["name"])
			}
		case "X":
			sawX = true
			if d, ok := ev["dur"].(float64); !ok || d < 1 {
				t.Errorf("event %d: complete event without a duration: %v", i, ev)
			}
		case "B":
			depth++
		case "E":
			depth--
			if depth < 0 {
				t.Fatalf("event %d: E without a matching B", i)
			}
		case "i":
			sawI = true
			if s, ok := ev["s"].(string); !ok || s == "" {
				t.Errorf("event %d: instant without a scope: %v", i, ev)
			}
		default:
			t.Errorf("event %d: unexpected phase %q", i, ph)
		}
		if pid, _ := ev["pid"].(float64); pid == chromePidRun && ph != "M" {
			ts, ok := ev["ts"].(float64)
			if !ok {
				t.Fatalf("event %d has no ts: %v", i, ev)
			}
			if ts < lastTs {
				t.Errorf("event %d: runtime timestamps go backwards (%v < %v)", i, ts, lastTs)
			}
			lastTs = ts
		}
	}
	if depth != 0 {
		t.Errorf("unbalanced duration events: %d B left open", depth)
	}
	if !sawX {
		t.Error("no compile-pass X events")
	}
	if !sawI {
		t.Error("no instant events for the cut")
	}
}

// TestChromeTraceRunShift: with compile spans present, runtime events
// must start after the last span ends, so both sections read left to
// right on one timeline.
func TestChromeTraceRunShift(t *testing.T) {
	o := cutScenario()
	o.AddSpan(Span{Name: "parse", Start: 0, Dur: 40})
	tr := o.BuildChromeTrace()
	for _, ev := range tr.TraceEvents {
		if ev.Pid == chromePidRun && ev.Phase != "M" && ev.Ts < 40 {
			t.Fatalf("runtime event at ts=%d before compile end 40: %+v", ev.Ts, ev)
		}
	}
}

func TestTextTrace(t *testing.T) {
	o := cutScenario()
	o.AddSpan(Span{Name: "parse", Start: 0, Dur: 10})
	var buf bytes.Buffer
	if err := o.WriteTextTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"pass parse", "call", "cut", "proc=f"} {
		if !strings.Contains(out, want) {
			t.Errorf("text trace missing %q:\n%s", want, out)
		}
	}
}

func TestProfileAttribution(t *testing.T) {
	o := cutScenario()
	p, err := o.Profile()
	if err != nil {
		t.Fatal(err)
	}
	// Timeline: 0..10 main's caller ([top] covers the stub), 10..30 f's
	// caller is main... careful: KCall at Ts pushes the callee, so
	// 0..10 main on top, 10..30 f on top, 30..60 g on top, 60..80 main
	// (the cut popped f and g), total 80.
	if p.Total != 80 {
		t.Errorf("total %d, want 80", p.Total)
	}
	self := map[string]int64{}
	cum := map[string]int64{}
	for _, pr := range p.Procs {
		self[pr.Name] = pr.Self
		cum[pr.Name] = pr.Cum
	}
	if self["main"] != 10+20 || self["f"] != 20 || self["g"] != 30 {
		t.Errorf("self wrong: %+v", self)
	}
	// f entered at 10, discarded by the cut at 60.
	if cum["f"] != 50 || cum["g"] != 30 {
		t.Errorf("cum wrong: %+v", cum)
	}
	if cum["main"] != 80 {
		t.Errorf("main cum %d, want 80 (entered at 0, open until the end)", cum["main"])
	}

	folded := p.Folded()
	if !strings.Contains(folded, "[top];main;f;g 30") {
		t.Errorf("folded stacks missing g's line:\n%s", folded)
	}
	if !strings.HasSuffix(folded, "\n") {
		t.Error("folded output must end with a newline")
	}
	// The table renders without panicking and includes every procedure.
	table := p.String()
	for _, name := range []string{"main", "f", "g"} {
		if !strings.Contains(table, name) {
			t.Errorf("profile table missing %s:\n%s", name, table)
		}
	}
}

// TestProfileRecursion: a recursive procedure's cumulative time is
// credited once per outermost activation, not once per frame.
func TestProfileRecursion(t *testing.T) {
	o := New()
	o.ProcName = func(pc int) string {
		if pc == 10 {
			return "rec"
		}
		return ""
	}
	o.Emit(Event{Kind: KCall, Ts: 0, SP: 1000, A: 10})
	o.Emit(Event{Kind: KCall, Ts: 10, SP: 900, A: 10})
	o.Emit(Event{Kind: KCall, Ts: 20, SP: 800, A: 10})
	o.Emit(Event{Kind: KReturn, Ts: 30, SP: 800})
	o.Emit(Event{Kind: KReturn, Ts: 40, SP: 900})
	o.Emit(Event{Kind: KReturn, Ts: 50, SP: 1000})
	p, err := o.Profile()
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range p.Procs {
		if pr.Name == "rec" {
			if pr.Cum != 50 {
				t.Errorf("recursive cum %d, want 50 (not triple-counted)", pr.Cum)
			}
			if pr.Self != 50 {
				t.Errorf("recursive self %d, want 50", pr.Self)
			}
			if pr.Calls != 3 {
				t.Errorf("calls %d, want 3", pr.Calls)
			}
			return
		}
	}
	t.Fatal("no profile row for rec")
}

func TestKindAndMechNames(t *testing.T) {
	if KCutTo.String() != "cut" || KDispatchEnd.String() != "dispatch-end" {
		t.Errorf("kind names wrong: %s %s", KCutTo, KDispatchEnd)
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("out-of-range kind: %s", Kind(200))
	}
	if MechName(MechExnStack) != "exnstack" || MechName(99) != "mech(99)" {
		t.Errorf("mech names wrong")
	}
}

func TestDeoptNamesAndKind(t *testing.T) {
	if KDeopt.String() != "deopt" {
		t.Errorf("KDeopt name = %s, want deopt", KDeopt)
	}
	names := map[uint64]string{
		DeoptCycleExit: "cycle-exit",
		DeoptTrap:      "trap-edge",
		DeoptBudget:    "budget-edge",
		DeoptObserver:  "observer",
	}
	for r, want := range names {
		if got := DeoptName(r); got != want {
			t.Errorf("DeoptName(%d) = %s, want %s", r, got, want)
		}
	}
	if got := DeoptName(99); got != "deopt(99)" {
		t.Errorf("out-of-range deopt reason: %s", got)
	}
}

// TestEngineTelemetryMetrics: the metrics "engine" section appears only
// after RecordEngineTelemetry — the rest of the export is engine-
// independent and must not change shape when no telemetry is recorded.
func TestEngineTelemetryMetrics(t *testing.T) {
	o := cutScenario()
	plain, err := o.Metrics().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte(`"engine"`)) {
		t.Error("metrics JSON has an engine section without RecordEngineTelemetry")
	}

	o.RecordEngineTelemetry(EngineTelemetry{
		Engine: "native", KernelEntries: 2, KernelIters: 40, KernelInstrs: 600,
		DeoptCycleExit: 2, ChainDispatches: 9,
	})
	m := o.Metrics()
	if m.EngineName != "native" {
		t.Errorf("engine name = %q, want native", m.EngineName)
	}
	want := map[string]int64{
		"kernel_entries": 2, "kernel_iters": 40, "kernel_instrs": 600,
		"deopt_cycle_exit": 2, "deopt_trap_edge": 0, "deopt_budget": 0,
		"deopt_observer": 0, "chain_dispatches": 9,
	}
	for k, v := range want {
		if m.Engine[k] != v {
			t.Errorf("engine[%s] = %d, want %d", k, m.Engine[k], v)
		}
	}
	a, err := o.Metrics().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Metrics().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("engine-telemetry metrics JSON is not deterministic")
	}
}

// TestDeoptChromeInstant: KDeopt renders as a named instant event in
// the Chrome trace, carrying the bucket name and iteration count.
func TestDeoptChromeInstant(t *testing.T) {
	o := New()
	o.Emit(Event{Kind: KDeopt, Ts: 10, PC: 7, A: DeoptBudget, B: 128})
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("deopt budget-edge k=128")) {
		t.Errorf("chrome trace lacks the deopt instant:\n%s", buf.String())
	}
}

// A replayed stack ledger surfaces as the metrics export's stack
// section and histograms only once recorded.
func TestStackMetrics(t *testing.T) {
	o := cutScenario()
	if m := o.Metrics(); m.StackName != "" || m.Stack != nil {
		t.Errorf("metrics have a stack section without RecordStackStats: %q %v", m.StackName, m.Stack)
	}
	o.RecordStackStats(StackStats{Kind: StackHybrid, Cuts: 1, Captures: 1, CaptureWords: 11,
		CaptureSizes: []int64{11}, SegmentCounts: []int64{1}})
	m := o.Metrics()
	if m.StackName != "hybrid" || m.Stack["cuts"] != 1 || m.Stack["capture_words"] != 11 {
		t.Errorf("stack section = %q %v", m.StackName, m.Stack)
	}
	if m.Histograms["capture_words"].Count != 1 || m.Histograms["segments"].Count != 1 {
		t.Errorf("stack histograms missing: %v", m.Histograms)
	}
}
