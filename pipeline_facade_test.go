package cmm_test

import (
	"strings"
	"testing"

	"cmm"
	"cmm/internal/progen"
)

// TestOptimizeIdempotent: Optimize drives every procedure to a fixpoint,
// so a second run finds nothing — all-zero stats — and leaves behavior
// unchanged. Checked on a hand-written program and on a sweep of random
// ones.
func TestOptimizeIdempotent(t *testing.T) {
	srcs := []string{
		`f() { bits32 x, y; x = 2 + 3; y = x; return (y * 2); }`,
		figure1,
	}
	for seed := int64(0); seed < 20; seed++ {
		srcs = append(srcs, progen.Generate(seed, progen.Config{Exceptions: seed%2 == 0}))
	}
	for i, src := range srcs {
		mod, err := cmm.Load(src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		mod.Optimize()
		if again := mod.Optimize(); again != (cmm.OptStats{}) {
			t.Errorf("program %d: second Optimize did work: %s", i, again)
		}
	}
}

// TestPassStatsFacade: a load records the front-end passes; Optimize and
// Native extend the record; the formatted table names every pass.
func TestPassStatsFacade(t *testing.T) {
	mod, err := cmm.Load(figure1)
	if err != nil {
		t.Fatal(err)
	}
	mod.Optimize()
	if _, err := mod.Native(cmm.CompileConfig{}); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, st := range mod.PassStats() {
		names = append(names, st.Name)
	}
	want := []string{"parse", "check", "translate", "liveness", "opt", "liveness", "codegen", "link"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("pass record = %v, want %v", names, want)
	}
	table := cmm.FormatPassStats(mod.PassStats())
	for _, name := range want {
		if !strings.Contains(table, name) {
			t.Errorf("formatted table missing pass %s:\n%s", name, table)
		}
	}
	if !strings.Contains(table, "total") {
		t.Errorf("formatted table missing total:\n%s", table)
	}
}

// TestDumpAfterFacade: LoadConfig.DumpAfter snapshots survive to the
// Module surface, and unknown pass names are rejected with the list of
// valid ones.
func TestDumpAfterFacade(t *testing.T) {
	mod, err := cmm.LoadWith(figure1, cmm.LoadConfig{DumpAfter: []string{"translate", "opt"}})
	if err != nil {
		t.Fatal(err)
	}
	mod.Optimize()
	for _, pass := range []string{"translate", "opt"} {
		dump, ok := mod.DumpAfter(pass, "sp1")
		if !ok || !strings.Contains(dump, "graph sp1") {
			t.Errorf("no usable snapshot of sp1 after %s (ok=%v):\n%s", pass, ok, dump)
		}
	}
	_, err = cmm.LoadWith(figure1, cmm.LoadConfig{DumpAfter: []string{"bogus"}})
	if err == nil || !strings.Contains(err.Error(), "available passes") {
		t.Errorf("unknown pass not rejected with the pass list: %v", err)
	}
	for _, name := range cmm.PassNames() {
		if err != nil && !strings.Contains(err.Error(), name) {
			t.Errorf("pass list in %q missing %s", err, name)
		}
	}
}

// TestLoadMiniM3Facade: a MiniM3 load records the m3-* front-end stages
// ahead of the C-- passes, and runs under every policy on both targets
// with the run-time system the policy installs: no dispatcher is passed.
func TestLoadMiniM3Facade(t *testing.T) {
	src := `
exception Oops;
proc main(x) {
    var r;
    try {
        if x == 0 { raise Oops(7); }
        r = x + 1;
    } except Oops(v) {
        r = v;
    }
    return r;
}
`
	for _, pol := range []cmm.ExceptionPolicy{cmm.StackCutting, cmm.RuntimeUnwinding, cmm.NativeUnwinding} {
		mod, err := cmm.LoadMiniM3(src, pol)
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		var names []string
		for _, st := range mod.PassStats() {
			names = append(names, st.Name)
		}
		joined := strings.Join(names, " ")
		if !strings.HasPrefix(joined, "m3-parse m3-check m3-infer m3-emit parse check translate liveness") {
			t.Errorf("policy %v: pass record = %v", pol, names)
		}
		mach, err := mod.Native(cmm.CompileConfig{})
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		res, err := mach.Run("run_main", 0)
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		if res[0] != 0 || res[1] != 7 {
			t.Errorf("policy %v: run_main(0) = %v, want status 0 value 7", pol, res[:2])
		}
		in, err := mod.Interp()
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		if res, err := in.Run("run_main", 0); err != nil || res[0] != 0 || res[1] != 7 {
			t.Errorf("policy %v: interp run_main(0) = %v (%v), want status 0 value 7", pol, res, err)
		}
	}
}
