package machine

import (
	"testing"

	"cmm/internal/obs"
)

// Telemetry tests: the engine-introspection counters must be exact and
// deterministic per (program, engine, budget) — they are the evidence
// cmmrun -explain and the metrics "engine" section print, so each deopt
// bucket is pinned to a hand-built program that exercises exactly it.

// runNativeTelem runs code on the native engine and returns the machine
// (whose Telem holds the counters) plus the run error, if any.
func runNativeTelem(code []Instr, setup func(m *Machine)) (*Machine, error) {
	m := New(1 << 12)
	m.Engine = EngineNative
	m.Code = code
	if setup != nil {
		setup(m)
	}
	err := m.Run()
	return m, err
}

// TestTelemetryCountedCycleExit pins the counted kernel's happy path:
// one kernel entry that charges all but the final guard evaluation in
// closed form, then one cycle-exit deopt when the countdown reaches its
// stop value. No trap, budget, or observer deopts.
func TestTelemetryCountedCycleExit(t *testing.T) {
	m, err := runNativeTelem(countedProgram(), func(m *Machine) { m.Regs[RT0] = 10 })
	if err != nil {
		t.Fatal(err)
	}
	want := Telemetry{
		KernelEntries:   1,
		KernelIters:     9,
		KernelInstrs:    54,
		DeoptCycleExit:  1,
		ChainDispatches: 4,
	}
	if got := m.Telem; got != want {
		t.Errorf("counted n=10 telemetry:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestTelemetryRecursionCycleExit pins the push and pop kernels: one
// entry each, both exiting their cycles normally (base case met on the
// way down, outer frame's return address met on the way up).
func TestTelemetryRecursionCycleExit(t *testing.T) {
	m, err := runNativeTelem(recurseProgram(), func(m *Machine) {
		m.Regs[RSP] = uint64(len(m.Mem))
		m.Regs[RRA] = CodeAddr(17)
		m.Regs[RA0] = 10
	})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Telem
	if got.KernelEntries != 2 {
		t.Errorf("kernel entries = %d, want 2 (push + pop)", got.KernelEntries)
	}
	if got.DeoptCycleExit != 2 || got.DeoptTrap != 0 || got.DeoptBudget != 0 || got.DeoptObserver != 0 {
		t.Errorf("deopts = %+v, want exactly 2 cycle exits", got)
	}
	if got.KernelIters == 0 || got.KernelInstrs == 0 {
		t.Errorf("kernels charged no work: %+v", got)
	}
}

// TestTelemetryDeoptBudget exhausts MaxInstrs mid-kernel: the room cap
// forces a budget-edge handback, and the trailing iterations run on the
// chains until the budget trap fires.
func TestTelemetryDeoptBudget(t *testing.T) {
	m, err := runNativeTelem(countedProgram(), func(m *Machine) {
		m.Regs[RT0] = 1 << 40
		m.MaxInstrs = 499
	})
	if err == nil {
		t.Fatal("want a budget trap")
	}
	got := m.Telem
	if got.DeoptBudget == 0 {
		t.Errorf("budget exhaustion recorded no budget deopt: %+v", got)
	}
	if got.DeoptCycleExit != 0 || got.DeoptTrap != 0 || got.DeoptObserver != 0 {
		t.Errorf("budget exhaustion leaked into other buckets: %+v", got)
	}
}

// TestTelemetryDeoptTrap recurses forever: the push kernel's memory
// bound stops it short of the out-of-bounds frame store, a trap-edge
// deopt, and the chains then produce the exact trap.
func TestTelemetryDeoptTrap(t *testing.T) {
	m, err := runNativeTelem(recurseProgram(), func(m *Machine) {
		m.Regs[RSP] = uint64(len(m.Mem))
		m.Regs[RRA] = CodeAddr(17)
		m.Regs[RA0] = 0
	})
	if err == nil {
		t.Fatal("want a stack-overflow trap")
	}
	got := m.Telem
	if got.DeoptTrap == 0 {
		t.Errorf("stack overflow recorded no trap-edge deopt: %+v", got)
	}
	if got.DeoptObserver != 0 || got.DeoptBudget != 0 {
		t.Errorf("stack overflow leaked into observer/budget buckets: %+v", got)
	}
}

// TestTelemetryDeoptObserver attaches an observer: the push/pop kernels
// stand down (their cycles contain call/return events), so every
// activation is an observer deopt charging zero kernel work, while the
// counted kernel stays engaged under observation.
func TestTelemetryDeoptObserver(t *testing.T) {
	m := New(1 << 12)
	m.Engine = EngineNative
	m.Code = recurseProgram()
	m.Obs = obs.New()
	m.Regs[RSP] = uint64(len(m.Mem))
	m.Regs[RRA] = CodeAddr(17)
	m.Regs[RA0] = 10
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	got := m.Telem
	if got.DeoptObserver == 0 {
		t.Errorf("observed recursion recorded no observer deopts: %+v", got)
	}
	if got.KernelEntries != 0 || got.KernelIters != 0 {
		t.Errorf("observed push/pop kernels charged work: %+v", got)
	}

	m2 := New(1 << 12)
	m2.Engine = EngineNative
	m2.Code = countedProgram()
	m2.Obs = obs.New()
	m2.Regs[RT0] = 10
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if m2.Telem.DeoptObserver != 0 || m2.Telem.KernelEntries != 1 {
		t.Errorf("observed counted kernel should stay engaged: %+v", m2.Telem)
	}
}

// TestTelemetryRefEngineZero: the reference stepper has no kernels or
// chain dispatch, so its telemetry is identically zero.
func TestTelemetryRefEngineZero(t *testing.T) {
	for _, code := range [][]Instr{countedProgram(), recurseProgram()} {
		m := New(1 << 12)
		m.Engine = EngineRef
		m.Code = code
		m.Regs[RSP] = uint64(len(m.Mem))
		m.Regs[RRA] = CodeAddr(17)
		m.Regs[RT0] = 10
		m.Regs[RA0] = 10
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.Telem != (Telemetry{}) {
			t.Errorf("ref engine telemetry not zero: %+v", m.Telem)
		}
	}
}

// TestTelemetryDeterministic runs the same program twice on each
// machine engine and requires bit-identical telemetry.
func TestTelemetryDeterministic(t *testing.T) {
	for name, e := range allEngines {
		run := func() Telemetry {
			m := New(1 << 12)
			m.Engine = e
			m.Code = recurseProgram()
			m.Regs[RSP] = uint64(len(m.Mem))
			m.Regs[RRA] = CodeAddr(17)
			m.Regs[RA0] = 50
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			return m.Telem
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s: telemetry not deterministic:\n1st %+v\n2nd %+v", name, a, b)
		}
	}
}

// TestExplainReportShapes: the distiller's report names a shape and a
// human-readable description for every matched cycle, and a precise
// reason for every rejection.
func TestExplainReportShapes(t *testing.T) {
	p := compileNative(countedProgram(), DefaultCosts)
	if len(p.report) == 0 {
		t.Fatal("no candidates reported for the counted loop")
	}
	found := false
	for _, c := range p.report {
		if c.Matched && c.Shape == ShapeCounted {
			found = true
			if c.Reason == "" {
				t.Errorf("matched candidate has no description: %+v", c)
			}
		}
	}
	if !found {
		t.Errorf("counted loop not in report: %+v", p.report)
	}

	p = compileNative(recurseProgram(), DefaultCosts)
	shapes := map[string]bool{}
	for _, c := range p.report {
		if c.Matched {
			shapes[c.Shape] = true
		}
	}
	if !shapes[ShapePush] || !shapes[ShapePop] {
		t.Errorf("recursion report lacks push/pop matches: %+v", p.report)
	}

	// A cycle with a trapping divide can't distill; the report must say
	// exactly why rather than silently keeping the chains.
	div := []Instr{
		{Op: OpALUI, Sub: AEq, Rd: RT0 + 3, Rs: RT0, Imm: 0}, // h=0
		{Op: OpBNZ, Rs: RT0 + 3, Target: 4},
		{Op: OpALU, Sub: ADivU, Rd: RT0 + 1, Rs: RT0 + 1, Rt: RT0, Width: 64},
		{Op: OpJmp, Target: 0},
		{Op: OpHalt},
	}
	p = compileNative(div, DefaultCosts)
	if len(p.report) == 0 {
		t.Fatal("no candidates reported for the divide loop")
	}
	for _, c := range p.report {
		if c.Matched {
			t.Errorf("trapping divide loop should not distill: %+v", c)
		}
		if c.Reason == "" {
			t.Errorf("rejection with no reason: %+v", c)
		}
	}
}
