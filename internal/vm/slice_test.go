package vm

import (
	"reflect"
	"sync"
	"testing"

	"cmm/internal/codegen"
	"cmm/internal/machine"
	"cmm/internal/obs"
	"cmm/internal/paper"
)

// vmEngines is every machine engine the vm layer can drive.
var vmEngines = []struct {
	name string
	e    machine.Engine
}{
	{"ref", machine.EngineRef},
	{"native", machine.EngineNative},
}

// TestRunWithSliceEquivalence: Run with a budget slice configured
// resumes across pauses transparently — results and simulated counters
// are bit-identical to an unsliced run, under every engine.
func TestRunWithSliceEquivalence(t *testing.T) {
	cp := compile(t, paper.Fig2Cut, codegen.Options{})
	for _, eng := range vmEngines {
		t.Run(eng.name, func(t *testing.T) {
			whole, err := NewInstance(cp, WithEngine(eng.e))
			if err != nil {
				t.Fatal(err)
			}
			wr, err := whole.Run("f", 64)
			if err != nil {
				t.Fatal(err)
			}
			sliced, err := NewInstance(cp, WithEngine(eng.e), WithSlice(50))
			if err != nil {
				t.Fatal(err)
			}
			sr, err := sliced.Run("f", 64)
			if err != nil {
				t.Fatal(err)
			}
			if wr[0] != sr[0] || wr[0] != 42 {
				t.Errorf("results diverge: whole %d, sliced %d", wr[0], sr[0])
			}
			if whole.Stats() != sliced.Stats() {
				t.Errorf("counters diverge:\nwhole:  %+v\nsliced: %+v", whole.Stats(), sliced.Stats())
			}
		})
	}
}

// TestStackReplaySlicedRunIsOneRun: a sliced run is one logical run, so
// the observer marks only its Start, and every stack representation
// prices it exactly like the unsliced run. (Marking each slice resume
// would reset seg's chunk position mid-descent and re-bill the links.)
func TestStackReplaySlicedRunIsOneRun(t *testing.T) {
	cp := compile(t, paper.Fig2Cut, codegen.Options{})
	for _, eng := range vmEngines {
		t.Run(eng.name, func(t *testing.T) {
			replays := func(opts ...Option) []obs.StackStats {
				o := obs.New()
				inst, err := NewInstance(cp, append(opts, WithEngine(eng.e), WithObserver(o))...)
				if err != nil {
					t.Fatal(err)
				}
				if got := run1(t, inst, "f", 256); got != 42 {
					t.Fatalf("f(256) = %d, want 42", got)
				}
				var out []obs.StackStats
				for _, k := range obs.StackKinds {
					s, err := o.StackStats(k)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, s)
				}
				return out
			}
			whole, sliced := replays(), replays(WithSlice(50))
			if !reflect.DeepEqual(whole, sliced) {
				t.Errorf("sliced run priced differently:\nwhole:  %+v\nsliced: %+v", whole, sliced)
			}
			if seg := whole[obs.StackSeg]; seg.Overflows == 0 {
				t.Errorf("f(256) never crossed a chunk edge under seg, so slicing is untested: %+v", seg)
			}
		})
	}
}

// TestStartStepSlice drives the scheduler's unit of work by hand: Start
// arranges the call without running, each StepSlice retires about one
// slice, and Results reads the answer after done.
func TestStartStepSlice(t *testing.T) {
	inst := instance(t, paper.Fig2Cut, WithSlice(50))
	if err := inst.Start("f", 64); err != nil {
		t.Fatal(err)
	}
	pauses := 0
	for {
		done, err := inst.StepSlice()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if !inst.Paused() {
			t.Fatal("StepSlice returned not-done on an unpaused machine")
		}
		pauses++
		if pauses > 1_000_000 {
			t.Fatal("slice loop did not terminate")
		}
	}
	if pauses == 0 {
		t.Error("depth-64 dig never crossed a 50-instruction slice edge")
	}
	if got := inst.Results()[0]; got != 42 {
		t.Errorf("f(64) = %d, want 42", got)
	}
}

// TestCloneIsolation: a clone is an independent instance — fresh
// globals re-initialised from the image, fresh counters, the same
// declared stack representation — while sharing the immutable program.
func TestCloneIsolation(t *testing.T) {
	src := `
bits32 counter = 10;
f(bits32 x) {
    counter = counter + x;
    return (counter);
}
`
	proto := instance(t, src, WithStackPolicy(obs.StackSeg), WithContMode(machine.ContOneShot))
	if got := run1(t, proto, "f", 1); got != 11 {
		t.Fatalf("proto first run: %d", got)
	}
	clone, err := proto.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// The clone starts from the initial image, not the proto's mutated
	// globals; running it must not disturb the proto either.
	if got := run1(t, clone, "f", 1); got != 11 {
		t.Errorf("clone saw the proto's mutated global: %d", got)
	}
	if got := run1(t, proto, "f", 1); got != 12 {
		t.Errorf("proto state disturbed by clone: %d", got)
	}
	if clone.M.Stack != proto.M.Stack || clone.M.ContMode != proto.M.ContMode {
		t.Errorf("clone stack %v/%v, proto %v/%v", clone.M.Stack, clone.M.ContMode, proto.M.Stack, proto.M.ContMode)
	}
	if clone.EngineName() != proto.EngineName() {
		t.Errorf("clone engine %q, proto %q", clone.EngineName(), proto.EngineName())
	}
}

// TestCloneForeignAndYield: the clone's foreign wrappers and yield
// handler are rebuilt around the clone, not inherited closures still
// bound to the prototype.
func TestCloneForeignAndYield(t *testing.T) {
	src := `
import probe;
f(bits32 x) {
    bits32 r;
    r = probe(x);
    return (r);
}
`
	var sawInst *Instance
	proto := instance(t, src, WithForeign("probe", func(inst *Instance, args []uint64) ([]uint64, error) {
		sawInst = inst
		return []uint64{args[0] * 2}, nil
	}))
	clone, err := proto.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if got := run1(t, clone, "f", 21); got != 42 {
		t.Fatalf("clone foreign call: %d", got)
	}
	if sawInst != clone {
		t.Error("clone's foreign wrapper delivered the prototype instance")
	}
}

// TestCancelCutMidKernel is the scheduler's cancellation path end to
// end: a handler-rich request parks its continuation in a global
// (Fig2RuntimeCut), runs under budget slices on the native tier until a
// distilled kernel has been preempted at a slice edge (DeoptSlice), and
// is then killed by cutting to the parked continuation — constant work
// regardless of how deep the in-flight dig recursion is.
func TestCancelCutMidKernel(t *testing.T) {
	cp := compile(t, paper.Fig2RuntimeCut, codegen.Options{})
	inst, err := NewInstance(cp, WithEngine(machine.EngineNative), WithMemSize(1<<20), WithSlice(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("f", 2000); err != nil {
		t.Fatal(err)
	}
	// Drive slices until the program has parked its handler and the
	// native tier has recorded a slice-edge kernel deopt.
	th := &Thread{inst: inst}
	for i := 0; ; i++ {
		done, err := inst.StepSlice()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatal("request completed before it could be cancelled")
		}
		k, _ := th.GlobalWord("handler")
		if k != 0 && inst.Telemetry().DeoptSlice > 0 {
			break
		}
		if i > 10_000 {
			t.Fatalf("never reached a mid-kernel pause with a parked handler: telemetry %+v", inst.Telemetry())
		}
	}
	depth := inst.StackDepth()
	if depth < 2 {
		t.Errorf("cancelling at depth %d, want an in-flight dig stack", depth)
	}
	if err := inst.CancelCut("handler", 7, 99); err != nil {
		t.Fatal(err)
	}
	// The cut rewrote PC/SP; driving the machine on runs the parked
	// continuation, which returns the cancellation payload.
	for {
		done, err := inst.StepSlice()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if got := inst.Results()[0]; got != 99 {
		t.Errorf("cancelled request returned %d, want the payload 99", got)
	}
}

// TestCancelCutUnset: cancelling a request that has not parked its
// continuation yet fails cleanly instead of cutting to garbage.
func TestCancelCutUnset(t *testing.T) {
	inst := instance(t, paper.Fig2RuntimeCut, WithSlice(1))
	if err := inst.Start("f", 100); err != nil {
		t.Fatal(err)
	}
	if err := inst.CancelCut("handler", 7, 99); err == nil {
		t.Fatal("CancelCut succeeded with the handler global still zero")
	}
	if err := inst.CancelCut("no-such-global"); err == nil {
		t.Fatal("CancelCut succeeded on an unknown global")
	}
}

// TestConcurrentClones is the reentrancy gate: 64 clones of one
// precompiled prototype run the Fig2Cut workload concurrently (under
// -race in CI), sharing the immutable code, procedure tables, and
// compiled engine artifacts, and every one must produce the identical
// result and bit-identical counters.
func TestConcurrentClones(t *testing.T) {
	cp := compile(t, paper.Fig2Cut, codegen.Options{})
	proto, err := NewInstance(cp, WithEngine(machine.EngineNative), WithMemSize(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	proto.Precompile()

	ref, err := proto.Clone()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run("f", 200)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := ref.Stats()

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([]uint64, n)
	stats := make([]machine.Counters, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := proto.Clone()
			if err != nil {
				errs[i] = err
				return
			}
			res, err := c.Run("f", 200)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res[0]
			stats[i] = c.Stats()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("clone %d: %v", i, errs[i])
		}
		if results[i] != want[0] {
			t.Errorf("clone %d: result %d, want %d", i, results[i], want[0])
		}
		if stats[i] != wantStats {
			t.Errorf("clone %d: counters diverge from the serial run", i)
		}
	}
}
