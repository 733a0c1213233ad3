package machine

import (
	"bytes"
	"testing"

	"cmm/internal/obs"
)

// loopProgram sums 1..n with a compare-and-branch loop.
func loopProgram(n int64) []Instr {
	return []Instr{
		{Op: OpLI, Rd: RT0, Imm: n},
		{Op: OpLI, Rd: RT0 + 1, Imm: 0},
		{Op: OpALU, Sub: AAdd, Rd: RT0 + 1, Rs: RT0 + 1, Rt: RT0, Width: 64}, // loop: acc += i
		{Op: OpALUI, Sub: ASub, Rd: RT0, Rs: RT0, Imm: 1, Width: 64},         // i--
		{Op: OpBNZ, Rs: RT0, Target: 2},
		{Op: OpMov, Rd: RA0, Rs: RT0 + 1},
		{Op: OpHalt},
	}
}

// allEngines is every execution engine: the reference stepper (the
// specification) and the native tier.
var allEngines = map[string]Engine{"ref": EngineRef, "native": EngineNative}

// runBoth executes the same code on both engines from a fresh machine
// and compares the complete visible state of the native run against the
// reference run: error, registers, memory, PC, and every counter. It
// returns the reference machine.
func runBoth(t *testing.T, code []Instr, setup func(m *Machine)) *Machine {
	t.Helper()
	mk := func(e Engine) (*Machine, error) {
		m := New(1 << 12)
		m.Engine = e
		m.Code = code
		if setup != nil {
			setup(m)
		}
		return m, m.Run()
	}
	ref, errRef := mk(EngineRef)
	m, err := mk(EngineNative)
	if (errRef == nil) != (err == nil) {
		t.Fatalf("engines disagree on failure: ref=%v native=%v", errRef, err)
	}
	if errRef != nil && errRef.Error() != err.Error() {
		t.Errorf("trap mismatch:\nref: %v\nnative: %v", errRef, err)
	}
	if ref.Regs != m.Regs {
		t.Errorf("native register mismatch:\nref: %v\nnative: %v", ref.Regs, m.Regs)
	}
	if ref.Stats != m.Stats {
		t.Errorf("native counter mismatch:\nref: %+v\nnative: %+v", ref.Stats, m.Stats)
	}
	if ref.PC != m.PC {
		t.Errorf("pc mismatch: ref %d native %d", ref.PC, m.PC)
	}
	if !bytes.Equal(ref.Mem, m.Mem) {
		t.Errorf("native memory mismatch")
	}
	return ref
}

func TestEngineParityLoop(t *testing.T) {
	ref := runBoth(t, loopProgram(100), nil)
	if ref.Regs[RA0] != 5050 {
		t.Errorf("sum = %d, want 5050", ref.Regs[RA0])
	}
}

// TestEngineParityFusedPairs drives dense instruction pairs (store/store,
// load/load, load/ALU, compare/branch), including a branch that lands in
// the middle of a pair: the closure chains must enter mid-run exactly.
func TestEngineParityFusedPairs(t *testing.T) {
	code := []Instr{
		{Op: OpLI, Rd: RT0, Imm: 0x200},
		{Op: OpLI, Rd: RT0 + 1, Imm: 0x1122334455667788},
		{Op: OpLI, Rd: RT0 + 2, Imm: 7},
		// store/store pair.
		{Op: OpStore, Rs: RT0, Rt: RT0 + 1, Imm: 0, Size: 8},
		{Op: OpStore, Rs: RT0, Rt: RT0 + 2, Imm: 8, Size: 4},
		// load/load pair, second depends on the first.
		{Op: OpLoad, Rd: RT0 + 3, Rs: RT0, Imm: 8, Size: 4},
		{Op: OpLoad, Rd: RT0 + 4, Rs: RT0, Imm: 0, Size: 8},
		// load-then-ALU pair.
		{Op: OpLoad, Rd: RT0 + 5, Rs: RT0, Imm: 0, Size: 2},
		{Op: OpALUI, Sub: AAdd, Rd: RT0 + 5, Rs: RT0 + 5, Imm: 1, Width: 32},
		// compare-and-branch pair: jump INTO the middle of the next
		// pair.
		{Op: OpALUI, Sub: AEq, Rd: RX0, Rs: RT0 + 2, Imm: 7, Width: 64},
		{Op: OpBNZ, Rs: RX0, Target: 12},
		// Pair whose head is skipped by the branch above: slot 12 must
		// still run standalone.
		{Op: OpALUI, Sub: AAdd, Rd: RT0 + 6, Rs: RT0 + 6, Imm: 1000, Width: 64},
		{Op: OpALUI, Sub: AAdd, Rd: RT0 + 6, Rs: RT0 + 6, Imm: 1, Width: 64},
		{Op: OpBZ, Rs: RZero, Target: 15},
		{Op: OpTrap, Sym: "unreachable"},
		// ALU(reg)-and-branch not taken, falls through the pair.
		{Op: OpALU, Sub: ALtU, Rd: RX0 + 1, Rs: RT0 + 2, Rt: RT0, Width: 64},
		{Op: OpBZ, Rs: RX0 + 1, Target: 14},
		{Op: OpHalt},
	}
	ref := runBoth(t, code, nil)
	if ref.Regs[RT0+6] != 1 {
		t.Errorf("branch into pair: t6 = %d, want 1", ref.Regs[RT0+6])
	}
	if ref.Regs[RT0+3] != 7 || ref.Regs[RT0+4] != 0x1122334455667788 || ref.Regs[RT0+5] != 0x7789 {
		t.Errorf("pair mem state: t3=%#x t4=%#x t5=%#x", ref.Regs[RT0+3], ref.Regs[RT0+4], ref.Regs[RT0+5])
	}
}

// TestEngineParityFusedTraps checks that a trap in either half of such a
// pair leaves identical machine state (counters, PC, message): on the
// native tier these are mid-run traps, whose partial counters the
// trampoline reconstructs by unwinding the run's suffix aggregate.
func TestEngineParityFusedTraps(t *testing.T) {
	cases := map[string][]Instr{
		"first-store": {
			{Op: OpLI, Rd: RT0, Imm: 1 << 30},
			{Op: OpStore, Rs: RT0, Rt: RT0 + 1, Imm: 0, Size: 8},
			{Op: OpStore, Rs: RZero, Rt: RT0 + 1, Imm: 0x100, Size: 8},
			{Op: OpHalt},
		},
		"second-store": {
			{Op: OpLI, Rd: RT0, Imm: 1 << 30},
			{Op: OpStore, Rs: RZero, Rt: RT0 + 1, Imm: 0x100, Size: 8},
			{Op: OpStore, Rs: RT0, Rt: RT0 + 1, Imm: 0, Size: 8},
			{Op: OpHalt},
		},
		"second-load": {
			{Op: OpLI, Rd: RT0, Imm: 1 << 30},
			{Op: OpLoad, Rd: RT0 + 1, Rs: RZero, Imm: 0x100, Size: 8},
			{Op: OpLoad, Rd: RT0 + 2, Rs: RT0, Imm: 0, Size: 8},
			{Op: OpHalt},
		},
		"div-not-fused": {
			{Op: OpLI, Rd: RT0, Imm: 5},
			{Op: OpALU, Sub: ADivU, Rd: RT0 + 1, Rs: RT0, Rt: RZero, Width: 64},
			{Op: OpBZ, Rs: RT0 + 1, Target: 3},
			{Op: OpHalt},
		},
	}
	for name, code := range cases {
		t.Run(name, func(t *testing.T) { runBoth(t, code, nil) })
	}
}

func TestEngineParityBudgetTrap(t *testing.T) {
	code := []Instr{{Op: OpJmp, Target: 0}}
	runBoth(t, code, func(m *Machine) { m.MaxInstrs = 1000 })

	// A two-instruction loop, swept over budgets so the trap lands on
	// every phase of the loop: the native tier hands the run to the
	// reference stepper at the budget edge, and the backstop must fire
	// at the identical instruction (and PC).
	loop := []Instr{
		{Op: OpALUI, Sub: AAdd, Rd: RT0, Rs: RT0, Imm: 1, Width: 64},
		{Op: OpBZ, Rs: RZero, Target: 0},
	}
	for budget := int64(999); budget <= 1002; budget++ {
		runBoth(t, loop, func(m *Machine) { m.MaxInstrs = budget })
	}
}

// TestBudgetHandoffObservedSliced crosses MaxInstrs with an observer
// attached and a slice limit armed: the native tier's hand-off to the
// reference stepper must leave the same trap, PC, counters and event
// stream as the reference engine, and count as one budget deopt.
func TestBudgetHandoffObservedSliced(t *testing.T) {
	// An endless loop calling a leaf procedure: every iteration emits a
	// call and a return event.
	code := []Instr{
		{Op: OpLI, Rd: RT0, Imm: 0},
		{Op: OpCall, Target: 4},
		{Op: OpALUI, Sub: AAdd, Rd: RT0, Rs: RT0, Imm: 1, Width: 64},
		{Op: OpJmp, Target: 1},
		{Op: OpRetOff, Imm: 0},
	}
	run := func(e Engine) (*Machine, int, error) {
		return runSliced(t, e, code, 300, func(m *Machine) {
			m.MaxInstrs = 1000
			m.Obs = obs.New()
		})
	}
	ref, _, errRef := run(EngineRef)
	m, pauses, err := run(EngineNative)
	if errRef == nil || err == nil || errRef.Error() != err.Error() {
		t.Fatalf("budget trap: ref=%v native=%v", errRef, err)
	}
	if pauses == 0 {
		t.Error("native run never paused before the budget trap")
	}
	if ref.PC != m.PC || ref.Stats != m.Stats || ref.Regs != m.Regs {
		t.Errorf("state at trap:\nref:    pc=%d %+v\nnative: pc=%d %+v", ref.PC, ref.Stats, m.PC, m.Stats)
	}
	if len(ref.Obs.Trace) == 0 || len(ref.Obs.Trace) != len(m.Obs.Trace) {
		t.Fatalf("event counts: ref %d, native %d", len(ref.Obs.Trace), len(m.Obs.Trace))
	}
	for i := range ref.Obs.Trace {
		if ref.Obs.Trace[i] != m.Obs.Trace[i] {
			t.Fatalf("event %d differs\nref:    %+v\nnative: %+v", i, ref.Obs.Trace[i], m.Obs.Trace[i])
		}
	}
	if m.Telem.DeoptBudget != 1 {
		t.Errorf("DeoptBudget = %d, want 1 (one hand-off): %+v", m.Telem.DeoptBudget, m.Telem)
	}
}

// TestEnginesAllocFree asserts the hot loop of both engines allocates
// nothing: the reference engine after the reg/set closure fix, the
// native engine after its one-time compile (the trampoline state is
// reused across runs).
func TestEnginesAllocFree(t *testing.T) {
	for name, e := range allEngines {
		t.Run(name, func(t *testing.T) {
			m := New(1 << 12)
			m.Engine = e
			m.Code = loopProgram(50)
			if err := m.Run(); err != nil { // warm-up: compile once
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				m.PC = 0
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s engine: %v allocs per run, want 0", name, allocs)
			}
		})
	}
}

// TestCodeSwapRecompiles: replacing m.Code with a new slice invalidates
// the cached closure chains, so the next run executes the new program.
func TestCodeSwapRecompiles(t *testing.T) {
	m := New(1 << 12)
	m.Code = loopProgram(3)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.Code = loopProgram(10)
	m.PC = 0
	m.Regs = [NumRegs]uint64{}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[RA0] != 55 {
		t.Errorf("after code swap: sum = %d, want 55", m.Regs[RA0])
	}
}

// benchEngine measures raw interpreter throughput on the sum loop.
func benchEngine(b *testing.B, e Engine) {
	m := New(1 << 12)
	m.Engine = e
	m.Code = loopProgram(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PC = 0
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Stats.Instrs)/b.Elapsed().Seconds(), "simInstrs/sec")
}

func BenchmarkStepLoopRef(b *testing.B)    { benchEngine(b, EngineRef) }
func BenchmarkStepLoopNative(b *testing.B) { benchEngine(b, EngineNative) }
