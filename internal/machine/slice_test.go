package machine

import (
	"bytes"
	"errors"
	"testing"
)

// runSliced executes code to completion in budget slices of the given
// size, returning the machine and how many times it paused.
func runSliced(t *testing.T, e Engine, code []Instr, slice int64, setup func(m *Machine)) (*Machine, int, error) {
	t.Helper()
	m := New(1 << 12)
	m.Engine = e
	m.Code = code
	m.SliceLimit = slice
	if setup != nil {
		setup(m)
	}
	pauses := 0
	for {
		err := m.Run()
		if errors.Is(err, ErrSlicePaused) {
			if !m.Paused() {
				t.Fatalf("ErrSlicePaused without Paused()")
			}
			pauses++
			if pauses > 1_000_000 {
				t.Fatalf("slice loop did not terminate")
			}
			continue
		}
		return m, pauses, err
	}
}

// TestSliceResumeParity: a run executed in budget slices — across a
// sweep of slice sizes, including pathological ones — finishes with
// machine state bit-identical to the same run executed in one piece,
// under every engine.
func TestSliceResumeParity(t *testing.T) {
	code := loopProgram(500)
	for name, e := range allEngines {
		t.Run(name, func(t *testing.T) {
			whole := New(1 << 12)
			whole.Engine = e
			whole.Code = code
			if err := whole.Run(); err != nil {
				t.Fatal(err)
			}
			for _, slice := range []int64{1, 3, 64, 1000, 1 << 40} {
				m, pauses, err := runSliced(t, e, code, slice, nil)
				if err != nil {
					t.Fatalf("slice=%d: %v", slice, err)
				}
				if slice <= 64 && pauses == 0 {
					t.Errorf("slice=%d: never paused", slice)
				}
				if m.Regs != whole.Regs {
					t.Errorf("slice=%d: register mismatch\nwhole: %v\nsliced: %v", slice, whole.Regs, m.Regs)
				}
				if m.Stats != whole.Stats {
					t.Errorf("slice=%d: counter mismatch\nwhole: %+v\nsliced: %+v", slice, whole.Stats, m.Stats)
				}
				if m.PC != whole.PC {
					t.Errorf("slice=%d: pc %d, want %d", slice, m.PC, whole.PC)
				}
				if !bytes.Equal(m.Mem, whole.Mem) {
					t.Errorf("slice=%d: memory mismatch", slice)
				}
			}
		})
	}
}

// TestSlicePausePointsDeterministic: the pause points themselves (the
// counter state at every ErrSlicePaused) are deterministic per engine —
// this is what makes a preemptive scheduler's per-task stats independent
// of worker count.
func TestSlicePausePointsDeterministic(t *testing.T) {
	code := loopProgram(300)
	for name, e := range allEngines {
		t.Run(name, func(t *testing.T) {
			trace := func() []int64 {
				m := New(1 << 12)
				m.Engine = e
				m.Code = code
				m.SliceLimit = 17
				var points []int64
				for {
					err := m.Run()
					if errors.Is(err, ErrSlicePaused) {
						points = append(points, m.Stats.Instrs, m.Stats.Cycles, int64(m.PC))
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					return points
				}
			}
			a, b := trace(), trace()
			if len(a) == 0 {
				t.Fatal("no pause points recorded")
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("pause trace diverged at %d: %d vs %d", i, a[i], b[i])
				}
			}
		})
	}
}

// TestSliceBudgetTrapExact: the divergence backstop spans the whole
// logical run — slicing must not reset it, and the trap must land on the
// identical instruction as an unsliced run.
func TestSliceBudgetTrapExact(t *testing.T) {
	code := []Instr{{Op: OpJmp, Target: 0}}
	for name, e := range allEngines {
		t.Run(name, func(t *testing.T) {
			whole := New(1 << 12)
			whole.Engine = e
			whole.Code = code
			whole.MaxInstrs = 1000
			errWhole := whole.Run()
			if errWhole == nil {
				t.Fatal("expected budget trap")
			}
			m, pauses, err := runSliced(t, e, code, 64, func(m *Machine) { m.MaxInstrs = 1000 })
			if err == nil || err.Error() != errWhole.Error() {
				t.Fatalf("sliced trap = %v, want %v", err, errWhole)
			}
			if pauses == 0 {
				t.Error("never paused before the budget trap")
			}
			if m.Stats != whole.Stats {
				t.Errorf("counter mismatch at trap:\nwhole: %+v\nsliced: %+v", whole.Stats, m.Stats)
			}
		})
	}
}

// TestSliceKernelDeopt: under the native tier, a distilled kernel must
// stop at the slice edge (not run its closed form past it) and bucket
// the hand-back as DeoptSlice.
func TestSliceKernelDeopt(t *testing.T) {
	setup := func(m *Machine) { m.Regs[RT0] = 10_000 }
	m, pauses, err := runSliced(t, EngineNative, countedProgram(), 1000, setup)
	if err != nil {
		t.Fatal(err)
	}
	if pauses == 0 {
		t.Fatal("never paused: the kernel ran through the slice edges")
	}
	if m.Telem.KernelEntries == 0 {
		t.Fatal("counted loop was not kernel-matched")
	}
	if m.Telem.DeoptSlice == 0 {
		t.Errorf("kernel ran under slices but recorded no DeoptSlice hand-backs: %+v", m.Telem)
	}
	// The work retired must still be exact.
	whole := New(1 << 12)
	whole.Engine = EngineNative
	whole.Code = countedProgram()
	setup(whole)
	if err := whole.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats != whole.Stats {
		t.Errorf("sliced kernel counters diverge:\nwhole: %+v\nsliced: %+v", whole.Stats, m.Stats)
	}
	if m.Regs != whole.Regs {
		t.Errorf("sliced kernel registers diverge")
	}
}

// TestShareArtifacts: machines sharing one code slice can adopt the
// prototype's compiled artifacts and run without recompiling; a
// mismatched source is ignored.
func TestShareArtifacts(t *testing.T) {
	code := loopProgram(100)
	proto := New(1 << 12)
	proto.Engine = EngineNative
	proto.Code = code
	proto.Precompile()
	if proto.native == nil {
		t.Fatal("Precompile(native) left the cache empty")
	}

	clone := New(1 << 12)
	clone.Engine = EngineNative
	clone.Code = code // same backing array
	clone.ShareArtifacts(proto)
	if clone.native != proto.native {
		t.Fatal("clone did not adopt the native artifacts")
	}
	if err := clone.Run(); err != nil {
		t.Fatal(err)
	}
	if clone.Regs[RA0] != 5050 {
		t.Errorf("shared-artifact run: sum = %d, want 5050", clone.Regs[RA0])
	}

	// A different code slice must not adopt anything.
	other := New(1 << 12)
	other.Code = loopProgram(100) // equal content, different array
	other.ShareArtifacts(proto)
	if other.native != nil {
		t.Error("ShareArtifacts adopted the cache across different code slices")
	}
}
