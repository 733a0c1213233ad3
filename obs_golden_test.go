package cmm_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cmm"
	"cmm/internal/obs"
	"cmm/internal/paper"
)

var updateGolden = flag.Bool("update", false, "rewrite the observability golden files under testdata/obs")

// obsMechanism is one Figure 2 design-space point, the same set the
// EXPERIMENTS.md Figure 2 table rows: each exception mechanism leaves a
// distinct, deterministic event stream, and these tests pin it
// byte-for-byte.
type obsMechanism struct {
	name       string // golden file stem
	row        string // the EXPERIMENTS.md table label
	src        string
	dispatcher cmm.Dispatcher
}

func obsMechanisms() []obsMechanism {
	return []obsMechanism{
		{"cut", "cut to (generated)", paper.Fig2Cut, nil},
		{"runtime-cut", "SetCutToCont (runtime)", paper.Fig2RuntimeCut, cmm.NewRegisterDispatcher("handler")},
		{"runtime-unwind", "SetActivation+SetUnwindCont", paper.Fig2RuntimeUnwind, cmm.NewUnwindDispatcher()},
		{"native-unwind", "return ⟨m/n⟩ (generated)", paper.Fig2NativeUnwind, nil},
		{"cps", "CPS tail call", paper.Fig2CPS, nil},
	}
}

// observeMechanism runs f(depth) under mech with a fresh observer on the
// given engine and returns the observer.
func observeMechanism(t *testing.T, mech obsMechanism, engine cmm.Engine, depth uint64) *cmm.Observer {
	t.Helper()
	mod, err := cmm.Load(mech.src)
	if err != nil {
		t.Fatalf("%s: %v", mech.name, err)
	}
	o := cmm.NewObserver()
	opts := []cmm.RunOption{cmm.WithObserver(o), cmm.WithEngine(engine)}
	if mech.dispatcher != nil {
		opts = append(opts, cmm.WithDispatcher(mech.dispatcher))
	}
	mach, err := mod.Native(cmm.CompileConfig{}, opts...)
	if err != nil {
		t.Fatalf("%s: %v", mech.name, err)
	}
	res, err := mach.Run("f", depth)
	if err != nil {
		t.Fatalf("%s: %v", mech.name, err)
	}
	if res[0] != 42 {
		t.Fatalf("%s: got %d, want 42", mech.name, res[0])
	}
	mach.RecordObsCounters()
	return o
}

// checkGolden compares got against testdata/obs/<name>, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "obs", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestObsGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden file; rerun with -update if the change is intended\ngot:\n%s", name, got)
	}
}

// TestObsGoldenTraces pins the Chrome-trace and metrics JSON each
// mechanism produces on the depth-4 Figure 2 scenario. Runtime-only
// traces (no ObserveCompile) are fully deterministic: timestamps are
// simulated cycles, and metrics maps marshal with sorted keys. The
// native engine must reproduce the SAME golden bytes as the reference
// engine — the goldens are engine-independent by construction (the
// -update flag rewrites from the reference engine only).
func TestObsGoldenTraces(t *testing.T) {
	for _, mech := range obsMechanisms() {
		t.Run(mech.name, func(t *testing.T) {
			for _, eng := range []struct {
				name string
				e    cmm.Engine
			}{{"ref", cmm.EngineRef}, {"native", cmm.EngineNative}} {
				if *updateGolden && eng.name != "ref" {
					continue
				}
				o := observeMechanism(t, mech, eng.e, 4)

				var trace bytes.Buffer
				if err := o.WriteChromeTrace(&trace); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, mech.name+".trace.json", trace.Bytes())

				metrics, err := o.Metrics().JSON()
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, mech.name+".metrics.json", metrics)
			}
		})
	}
}

// TestObsMechanismSignatures checks the per-mechanism telemetry shape
// the paper predicts, independent of golden bytes: cutting dispatches in
// constant time (one cut, no walk), run-time unwinding walks the stack
// (unwind steps ≈ depth), native unwinding returns through every frame,
// and CPS raises with no exceptional events at all.
func TestObsMechanismSignatures(t *testing.T) {
	const depth = 8
	counters := map[string]map[string]int64{}
	for _, mech := range obsMechanisms() {
		o := observeMechanism(t, mech, cmm.EngineNative, depth)
		counters[mech.name] = o.Metrics().Counters
	}
	if c := counters["cut"]; c["cuts"] != 1 || c["unwind_steps"] != 0 {
		t.Errorf("cut: want one cut and no walk, got cuts=%d unwind_steps=%d", c["cuts"], c["unwind_steps"])
	}
	if c := counters["runtime-cut"]; c["resume_cut"] != 1 || c["dispatch_register"] != 1 || c["unwind_steps"] != 0 {
		t.Errorf("runtime-cut: want one register dispatch resuming by cut, got %v", c)
	}
	if c := counters["runtime-unwind"]; c["dispatch_unwind"] != 1 || c["unwind_steps"] < depth {
		t.Errorf("runtime-unwind: want a dispatch walking ≥%d activations, got dispatch_unwind=%d unwind_steps=%d",
			depth, c["dispatch_unwind"], c["unwind_steps"])
	}
	if c := counters["native-unwind"]; c["alt_returns"] < depth {
		t.Errorf("native-unwind: want ≥%d alternate returns, got %d", depth, c["alt_returns"])
	}
	if c := counters["cps"]; c["cuts"]+c["alt_returns"]+c["unwind_steps"]+c["dispatches"] != 0 {
		t.Errorf("cps: want no exceptional events, got %v", c)
	}
}

// TestObsEngineEventParityRoot extends the engine-parity contract to the
// dispatcher-driven paths only reachable through the public API: both
// engines must emit identical event streams under every mechanism.
func TestObsEngineEventParityRoot(t *testing.T) {
	for _, mech := range obsMechanisms() {
		for _, depth := range []uint64{0, 4, 32} {
			ref := observeMechanism(t, mech, cmm.EngineRef, depth)
			got := observeMechanism(t, mech, cmm.EngineNative, depth)
			label := fmt.Sprintf("%s depth=%d", mech.name, depth)
			if len(ref.Trace) != len(got.Trace) {
				t.Errorf("%s: event count differs: ref %d, native %d", label, len(ref.Trace), len(got.Trace))
				continue
			}
			for i := range ref.Trace {
				if ref.Trace[i] != got.Trace[i] {
					t.Errorf("%s: event %d differs\nref:    %+v\nnative: %+v", label, i, ref.Trace[i], got.Trace[i])
					break
				}
			}
		}
	}
}

// TestObsInterpMatchesSemantics: the §5 interpreter exposes the same
// observer surface; it has no cycle model, but its event kinds and
// payloads for the exceptional path must agree with the machine's.
func TestObsInterpCoverage(t *testing.T) {
	mod, err := cmm.Load(paper.Fig2RuntimeUnwind)
	if err != nil {
		t.Fatal(err)
	}
	o := cmm.NewObserver()
	in, err := mod.Interp(cmm.WithObserver(o), cmm.WithDispatcher(cmm.NewUnwindDispatcher()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run("f", 4)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 42 {
		t.Fatalf("got %d, want 42", res[0])
	}
	if o.Count(obs.KUnwindStep) < 4 {
		t.Errorf("interp recorded %d unwind steps, want ≥4", o.Count(obs.KUnwindStep))
	}
	if o.Count(obs.KResumeUnwind) != 1 {
		t.Errorf("interp recorded %d resume-unwind events, want 1", o.Count(obs.KResumeUnwind))
	}
	if o.DispatchCount(obs.MechUnwind) != 1 {
		t.Errorf("interp recorded %d unwind dispatches, want 1", o.DispatchCount(obs.MechUnwind))
	}
}

// TestObsNativeTelemetryGolden pins the metrics JSON that carries the
// opt-in engine section: a native-engine run of the Figure 1 counted
// workload (sp3) with RecordEngineTelemetry called. The telemetry is
// deterministic — kernel iteration counts included — so the whole
// export is golden-stable byte for byte.
func TestObsNativeTelemetryGolden(t *testing.T) {
	mod, err := cmm.Load(paper.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	o := cmm.NewObserver()
	mach, err := mod.Native(cmm.CompileConfig{}, cmm.WithObserver(o), cmm.WithEngine(cmm.EngineNative))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run("sp3", 10); err != nil {
		t.Fatal(err)
	}
	mach.RecordObsCounters()
	mach.RecordEngineTelemetry()
	metrics, err := o.Metrics().JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "native-telemetry.metrics.json", metrics)
	if !bytes.Contains(metrics, []byte(`"engine_name": "native"`)) &&
		!bytes.Contains(metrics, []byte(`"engine_name":"native"`)) {
		t.Errorf("metrics JSON lacks the engine section:\n%s", metrics)
	}
}
