package vm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cmm/internal/codegen"
	"cmm/internal/machine"
	"cmm/internal/obs"
	"cmm/internal/progen"
)

// The observability parity suite extends the engine-parity contract to
// the event layer: with an observer attached, the reference stepper and
// the native closure-compiled engine must emit IDENTICAL event streams — same kinds, same simulated-cycle
// timestamps, same payloads — and attaching an observer must not
// perturb the simulated counters at all.

// runWithObserver runs proc on one engine with a fresh observer and
// returns the observer plus the engine state.
func runWithObserver(t *testing.T, cp *codegen.Program, e machine.Engine, proc string, args []uint64, opts ...Option) (*obs.Observer, engineState) {
	t.Helper()
	o := obs.New()
	st := runOnEngine(t, cp, e, parityBudget, proc, args, append(opts, WithObserver(o))...)
	return o, st
}

// diffEvents reports the first mismatch between two event streams.
func diffEvents(t *testing.T, label string, ref, got []obs.Event) {
	t.Helper()
	if reflect.DeepEqual(ref, got) {
		return
	}
	n := len(ref)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if ref[i] != got[i] {
			t.Errorf("%s: event %d differs\nref:    %+v\nnative: %+v", label, i, ref[i], got[i])
			return
		}
	}
	t.Errorf("%s: event count differs: ref %d, native %d", label, len(ref), len(got))
}

// TestObsEventStreamParityRandomSweep is the randomized differential
// sweep at the event level: ≥25 seeds, exceptions on and off, several
// inputs. Programs that trap (including on the instruction budget) must
// have emitted identical prefixes.
func TestObsEventStreamParityRandomSweep(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		for _, exc := range []bool{false, true} {
			src := progen.Generate(int64(seed), progen.Config{Exceptions: exc})
			for _, opt := range []int{0, 2} {
				cp := compile(t, src, codegen.Options{Opt: opt})
				for _, arg := range []uint64{0, 7, 100} {
					label := fmt.Sprintf("seed=%d/exc=%v/-O%d/arg=%d", seed, exc, opt, arg)
					oRef, stRef := runWithObserver(t, cp, machine.EngineRef, "p0", []uint64{arg})
					oGot, stGot := runWithObserver(t, cp, machine.EngineNative, "p0", []uint64{arg})
					if stRef.err != stGot.err {
						t.Fatalf("%s: trap mismatch: ref %q native %q", label, stRef.err, stGot.err)
					}
					diffEvents(t, label, oRef.Trace, oGot.Trace)
				}
			}
		}
	}
}

// TestObsEventStreamParityDispatch covers the run-time-system path,
// where the native engine suspends mid-chunk: unwind-walking and
// stack-cutting dispatchers must leave identical event streams,
// including the walk and resume events emitted during the yield.
func TestObsEventStreamParityDispatch(t *testing.T) {
	unwind := compile(t, unwindParitySrc, codegen.Options{})
	cut := compile(t, cutParitySrc, codegen.Options{})
	for _, depth := range []uint64{0, 1, 4, 32} {
		oRef, _ := runWithObserver(t, unwind, machine.EngineRef, "f", []uint64{depth}, WithRuntime(RuntimeFunc(unwindWalker)))
		oGot, _ := runWithObserver(t, unwind, machine.EngineNative, "f", []uint64{depth}, WithRuntime(RuntimeFunc(unwindWalker)))
		diffEvents(t, fmt.Sprintf("unwind depth=%d", depth), oRef.Trace, oGot.Trace)
		if depth > 0 && oRef.Count(obs.KUnwindStep) == 0 {
			t.Errorf("unwind depth=%d: no unwind-step events recorded", depth)
		}

		oRef, _ = runWithObserver(t, cut, machine.EngineRef, "f", []uint64{depth}, WithRuntime(RuntimeFunc(cutWalker)))
		oGot, _ = runWithObserver(t, cut, machine.EngineNative, "f", []uint64{depth}, WithRuntime(RuntimeFunc(cutWalker)))
		diffEvents(t, fmt.Sprintf("cut depth=%d", depth), oRef.Trace, oGot.Trace)
		if oRef.Count(obs.KResumeCut) == 0 {
			t.Errorf("cut depth=%d: no resume-cut event recorded", depth)
		}
	}
}

// TestObsDisabledPathBitIdentical enforces the disabled-path guarantee:
// attaching an observer changes no simulated state. Results, counters,
// registers, and memory must be bit-identical with and without one,
// under both engines.
func TestObsDisabledPathBitIdentical(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	check := func(label string, cp *codegen.Program, proc string, args []uint64, opts ...Option) {
		t.Helper()
		for _, e := range []machine.Engine{machine.EngineRef, machine.EngineNative} {
			bare := runOnEngine(t, cp, e, parityBudget, proc, args, opts...)
			_, observed := runWithObserver(t, cp, e, proc, args, opts...)
			if bare.err != observed.err {
				t.Errorf("%s engine=%v: trap changed with observer: %q vs %q", label, e, bare.err, observed.err)
			}
			if bare.stats != observed.stats {
				t.Errorf("%s engine=%v: counters changed with observer\nbare:     %+v\nobserved: %+v",
					label, e, bare.stats, observed.stats)
			}
			if bare.regs != observed.regs {
				t.Errorf("%s engine=%v: registers changed with observer", label, e)
			}
		}
	}
	for seed := 0; seed < seeds; seed++ {
		src := progen.Generate(int64(seed), progen.Config{Exceptions: true})
		cp := compile(t, src, codegen.Options{})
		check(fmt.Sprintf("seed=%d", seed), cp, "p0", []uint64{7})
	}
	unwind := compile(t, unwindParitySrc, codegen.Options{})
	check("unwind", unwind, "f", []uint64{8}, WithRuntime(RuntimeFunc(unwindWalker)))
	cut := compile(t, cutParitySrc, codegen.Options{})
	check("cut", cut, "f", []uint64{8}, WithRuntime(RuntimeFunc(cutWalker)))
}

// TestObsTelemetryNeutralAndStable extends the disabled-path guarantee
// to the engine-introspection counters: telemetry accrues whether or
// not an observer is attached (bit-identity of Stats above proves it
// never feeds the simulated state), is deterministic run to run on
// every engine, and the metrics export that carries an engine section
// is byte-stable.
func TestObsTelemetryNeutralAndStable(t *testing.T) {
	src := progen.Generate(3, progen.Config{Exceptions: true})
	cp := compile(t, src, codegen.Options{})

	for _, e := range []machine.Engine{machine.EngineRef, machine.EngineNative} {
		telem := func(opts ...Option) machine.Telemetry {
			inst, err := NewInstance(cp, append([]Option{WithEngine(e), WithMemSize(1 << 20)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			inst.M.MaxInstrs = parityBudget
			inst.Run("p0", 7) // a trap is fine; telemetry up to it is still deterministic
			return inst.Telemetry()
		}
		if a, b := telem(), telem(); a != b {
			t.Errorf("engine=%v: telemetry not deterministic\n1st %+v\n2nd %+v", e, a, b)
		}
		if e == machine.EngineRef {
			if got := telem(); got != (machine.Telemetry{}) {
				t.Errorf("ref engine telemetry not zero: %+v", got)
			}
		}
	}

	metricsJSON := func() []byte {
		o := obs.New()
		inst, err := NewInstance(cp, WithEngine(machine.EngineNative), WithMemSize(1<<20), WithObserver(o))
		if err != nil {
			t.Fatal(err)
		}
		inst.M.MaxInstrs = parityBudget
		inst.Run("p0", 7)
		inst.RecordObsCounters()
		inst.RecordEngineTelemetry()
		data, err := o.Metrics().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := metricsJSON(), metricsJSON()
	if !bytes.Equal(a, b) {
		t.Error("metrics JSON with an engine section is not byte-stable")
	}
	if !bytes.Contains(a, []byte(`"engine_name"`)) {
		t.Errorf("metrics JSON lacks the engine section:\n%s", a)
	}
}
