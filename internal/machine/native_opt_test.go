package machine

import (
	"testing"

	"cmm/internal/obs"
)

// The distiller test suite: native_opt.go rewrites cycle headers into
// closed-form kernels, and every rewrite must be invisible — same
// registers, memory, counters, traps, and event streams as the
// reference stepper. These tests build the three archetype shapes by
// hand (so they don't depend on what the compiler happens to emit),
// assert the distiller actually engages via natProg.kernels, and then
// push each kernel through its deopt edges: tiny trip counts, budget
// exhaustion mid-cycle, stack overflow, and an attached observer.

// countedProgram is the K1 shape: a guarded register loop with an add
// and a (32-bit) multiply accumulator, counting s down to zero.
//
//	t1 += t0; t2 = (t2*t0) & 0xffffffff; t0--  — while t0 != 0
func countedProgram() []Instr {
	return []Instr{
		{Op: OpLI, Rd: RT0 + 1, Imm: 0},
		{Op: OpLI, Rd: RT0 + 2, Imm: 1},
		{Op: OpALUI, Sub: AEq, Rd: RT0 + 3, Rs: RT0, Imm: 0},                 // h=2: t3 = t0 == 0
		{Op: OpBNZ, Rs: RT0 + 3, Target: 8},                                  // guard: exit the cycle
		{Op: OpALU, Sub: AAdd, Rd: RT0 + 1, Rs: RT0 + 1, Rt: RT0, Width: 64}, // X accumulator
		{Op: OpALU, Sub: AMul, Rd: RT0 + 2, Rs: RT0 + 2, Rt: RT0, Width: 32}, // P accumulator
		{Op: OpALUI, Sub: ASub, Rd: RT0, Rs: RT0, Imm: 1, Width: 64},
		{Op: OpJmp, Target: 2}, // j=7: backward jump closes the cycle
		{Op: OpHalt},
	}
}

// countedStoreProgram is K1 with an invariant store plus a load the
// tracer must forward (so its destination classifies as a reg copy):
// the kernel performs the store once after the loop.
func countedStoreProgram() []Instr {
	return []Instr{
		{Op: OpLI, Rd: RT0 + 1, Imm: 0},
		{Op: OpALUI, Sub: AEq, Rd: RT0 + 3, Rs: RT0, Imm: 0}, // h=1
		{Op: OpBNZ, Rs: RT0 + 3, Target: 8},                  // guard
		{Op: OpStore, Rs: RS0, Rt: RS0 + 1, Imm: 8, Size: 8}, // invariant: mem[s0+8] = s1
		{Op: OpLoad, Rd: RT0 + 5, Rs: RS0, Imm: 8, Size: 8},  // forwarded: t5 = s1
		{Op: OpALU, Sub: AAdd, Rd: RT0 + 1, Rs: RT0 + 1, Rt: RT0, Width: 64},
		{Op: OpALUI, Sub: ASub, Rd: RT0, Rs: RT0, Imm: 1, Width: 64},
		{Op: OpJmp, Target: 1}, // j=7
		{Op: OpHalt},
	}
}

// recurseProgram is the K2+K3 shape, modeled on the sp1 calling
// convention from the paper's Figure 1: a self-call that pushes a
// 16-byte frame (saved ra, saved s0) on the way down, and a return
// cycle that pops frames, accumulating a0 += s0 and a1 *= s0 (32-bit).
//
// As in the paper's code, the return path accumulates with THIS frame's
// s0 before restoring the caller's — the accumulate-then-restore order
// is what lets the pop kernel chain iterations. The entry stub at 17
// halts; callers point RRA at it.
func recurseProgram() []Instr {
	return []Instr{
		{Op: OpALUI, Sub: ASub, Rd: RSP, Rs: RSP, Imm: 16, Width: 64}, // h=0: push frame
		{Op: OpStore, Rs: RSP, Rt: RRA, Imm: 8, Size: 8},
		{Op: OpStore, Rs: RSP, Rt: RS0, Imm: 0, Size: 8},
		{Op: OpALUI, Sub: AEq, Rd: RT0, Rs: RA0, Imm: 1},
		{Op: OpBNZ, Rs: RT0, Target: 14}, // guard: base case leaves the cycle
		{Op: OpMov, Rd: RS0, Rs: RA0},
		{Op: OpALUI, Sub: ASub, Rd: RA0, Rs: RA0, Imm: 1, Width: 64},
		{Op: OpCall, Target: 0},                                      // j=7: recursive call
		{Op: OpALU, Sub: AAdd, Rd: RA0, Rs: RA0, Rt: RS0, Width: 32}, // h=8: pop cycle
		{Op: OpALU, Sub: AMul, Rd: RA0 + 1, Rs: RA0 + 1, Rt: RS0, Width: 32},
		{Op: OpLoad, Rd: RS0, Rs: RSP, Imm: 0, Size: 8},
		{Op: OpLoad, Rd: RRA, Rs: RSP, Imm: 8, Size: 8},
		{Op: OpALUI, Sub: AAdd, Rd: RSP, Rs: RSP, Imm: 16, Width: 64},
		{Op: OpRetOff, Imm: 0}, // j=13
		{Op: OpLI, Rd: RA0, Imm: 1},
		{Op: OpLI, Rd: RA0 + 1, Imm: 1},
		{Op: OpJmp, Target: 8}, // base case unwinds through the pop path
		{Op: OpHalt},           // return stub for the outermost call
	}
}

// expectRecurse mirrors recurseProgram's data flow directly in Go.
func expectRecurse(n uint64) (a0, a1 uint64) {
	var slots []uint64
	s0, a := uint64(0), n
	for a != 1 {
		slots = append(slots, s0)
		s0 = a
		a--
	}
	slots = append(slots, s0) // base frame's push
	a0, a1 = 1, 1
	for i := len(slots) - 1; i >= 0; i-- {
		a0 = (a0 + s0) & 0xffffffff
		a1 = (a1 * s0) & 0xffffffff
		s0 = slots[i]
	}
	return a0, a1
}

func kernelCount(t *testing.T, code []Instr) int {
	t.Helper()
	return compileNative(code, DefaultCosts).kernels
}

func TestDistillerMatchesCounted(t *testing.T) {
	if got := kernelCount(t, countedProgram()); got != 1 {
		t.Fatalf("counted loop: distilled %d kernels, want 1", got)
	}
	if got := kernelCount(t, countedStoreProgram()); got != 1 {
		t.Fatalf("counted loop with invariant store: distilled %d kernels, want 1", got)
	}
	if got := kernelCount(t, recurseProgram()); got != 2 {
		t.Fatalf("recursion: distilled %d kernels (push+pop), want 2", got)
	}
}

// TestDistillerCountedParity runs the K1 shapes across trip counts that
// exercise zero iterations, the guard exit, and long kernel runs.
func TestDistillerCountedParity(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 10, 10_000} {
		ref := runBoth(t, countedProgram(), func(m *Machine) {
			m.Regs[RT0] = n
		})
		var wantX, wantP uint64 = 0, 1
		for s := n; s != 0; s-- {
			wantX += s
			wantP = (wantP * s) & 0xffffffff
		}
		if ref.Regs[RT0+1] != wantX || ref.Regs[RT0+2] != wantP {
			t.Errorf("n=%d: x=%d p=%d, want x=%d p=%d", n, ref.Regs[RT0+1], ref.Regs[RT0+2], wantX, wantP)
		}

		ref = runBoth(t, countedStoreProgram(), func(m *Machine) {
			m.Regs[RT0] = n
			m.Regs[RS0] = 0x100
			m.Regs[RS0+1] = 77
		})
		if n > 0 {
			if got, _ := ref.LoadWord(0x108, 8); got != 77 {
				t.Errorf("n=%d: invariant store wrote %d, want 77", n, got)
			}
			if ref.Regs[RT0+5] != 77 {
				t.Errorf("n=%d: forwarded load got %d, want 77", n, ref.Regs[RT0+5])
			}
		}
	}
}

// TestDistillerRecursionParity drives the push and pop kernels through
// deep and shallow recursions, including n=1 (the pop cycle runs once
// on a frame whose saved ra is the outer stub, so the kernel's peek
// must refuse it) and n=2 (exactly one kernelizable frame).
func TestDistillerRecursionParity(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 10, 100} {
		ref := runBoth(t, recurseProgram(), func(m *Machine) {
			m.Regs[RSP] = uint64(len(m.Mem))
			m.Regs[RRA] = CodeAddr(17)
			m.Regs[RA0] = n
		})
		wantA0, wantA1 := expectRecurse(n)
		if ref.Regs[RA0] != wantA0 || ref.Regs[RA0+1] != wantA1 {
			t.Errorf("n=%d: a0=%d a1=%d, want a0=%d a1=%d", n, ref.Regs[RA0], ref.Regs[RA0+1], wantA0, wantA1)
		}
		if ref.Regs[RSP] != uint64(len(ref.Mem)) {
			t.Errorf("n=%d: sp=%#x not restored to %#x", n, ref.Regs[RSP], len(ref.Mem))
		}
	}
}

// TestDistillerBudgetTrap exhausts MaxInstrs mid-cycle: the kernel's
// room cap must hand the final iterations back to the chains so the
// trap fires at the same pc with the same partial counters everywhere.
func TestDistillerBudgetTrap(t *testing.T) {
	for _, budget := range []int64{5, 50, 51, 52, 53, 499} {
		runBoth(t, countedProgram(), func(m *Machine) {
			m.Regs[RT0] = 1 << 40 // never terminates on its own
			m.MaxInstrs = budget
		})
	}
}

// TestDistillerStackOverflowTrap recurses forever (n=0 never meets the
// n==1 base case), so the stack grows down past address zero and the
// frame store traps. The push kernel's iteration cap must stop before
// any out-of-bounds access and let the chains produce the exact trap.
func TestDistillerStackOverflowTrap(t *testing.T) {
	ref := runBoth(t, recurseProgram(), func(m *Machine) {
		m.Regs[RSP] = uint64(len(m.Mem))
		m.Regs[RRA] = CodeAddr(17)
		m.Regs[RA0] = 0
	})
	if _, ok := runErrOf(ref).(*TrapError); !ok {
		t.Fatalf("want a trap from the runaway recursion, got %v", runErrOf(ref))
	}
}

// runErrOf re-runs ref's program on a fresh reference machine to
// recover the error runBoth already compared across engines.
func runErrOf(ref *Machine) error {
	m := New(len(ref.Mem))
	m.Engine = EngineRef
	m.Code = ref.Code
	m.Regs[RSP] = uint64(len(m.Mem))
	m.Regs[RRA] = CodeAddr(17)
	return m.Run()
}

// TestDistillerObserverParity attaches an observer: the push/pop
// kernels must deoptimize (their cycles contain call and return events)
// while the counted kernel stays engaged (no events inside), and all
// engines must emit identical event streams either way.
func TestDistillerObserverParity(t *testing.T) {
	programs := []struct {
		name  string
		code  []Instr
		setup func(m *Machine)
	}{
		{"counted", countedProgram(), func(m *Machine) { m.Regs[RT0] = 64 }},
		{"recurse", recurseProgram(), func(m *Machine) {
			m.Regs[RSP] = uint64(len(m.Mem))
			m.Regs[RRA] = CodeAddr(17)
			m.Regs[RA0] = 20
		}},
	}
	for _, pr := range programs {
		run := func(e Engine) (*Machine, *obs.Observer) {
			m := New(1 << 12)
			m.Engine = e
			m.Code = pr.code
			m.Obs = obs.New()
			pr.setup(m)
			if err := m.Run(); err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			return m, m.Obs
		}
		ref, refObs := run(EngineRef)
		for name, e := range allEngines {
			if e == EngineRef {
				continue
			}
			m, o := run(e)
			if ref.Regs != m.Regs || ref.Stats != m.Stats {
				t.Errorf("%s/%s: state diverged under observation", pr.name, name)
			}
			if len(refObs.Trace) != len(o.Trace) {
				t.Errorf("%s/%s: %d events, ref has %d", pr.name, name, len(o.Trace), len(refObs.Trace))
				continue
			}
			for i := range refObs.Trace {
				if refObs.Trace[i] != o.Trace[i] {
					t.Errorf("%s/%s: event %d differs\nref: %+v\ngot: %+v", pr.name, name, i, refObs.Trace[i], o.Trace[i])
					break
				}
			}
		}
	}
}
