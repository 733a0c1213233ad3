package cmm_test

import (
	"reflect"
	"strings"
	"testing"

	"cmm"
)

const figure1 = `
export sp1;
sp1(bits32 n) {
    bits32 s, p;
    if n == 1 {
        return (1, 1);
    } else {
        s, p = sp1(n-1);
        return (s+n, p*n);
    }
}
`

func TestLoadAndInterp(t *testing.T) {
	mod, err := cmm.Load(figure1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := mod.Interp()
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run("sp1", 10)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 55 || res[1] != 3628800 {
		t.Errorf("sp1(10) = %v", res)
	}
	if in.Steps() == 0 {
		t.Error("no steps recorded")
	}
}

func TestLoadAndNative(t *testing.T) {
	mod, err := cmm.Load(figure1)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := mod.Native(cmm.CompileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run("sp1", 10)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 55 || res[1] != 3628800 {
		t.Errorf("sp1(10) = %v", res)
	}
	if mach.Stats().Cycles == 0 {
		t.Error("no cycles counted")
	}
	if mach.CodeSize("sp1") == 0 {
		t.Error("no code size")
	}
	text, err := mach.Disassemble("sp1")
	if err != nil || !strings.Contains(text, "call") {
		t.Errorf("disassembly: %v\n%s", err, text)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := cmm.Load("f() {"); err == nil {
		t.Error("parse error not reported")
	}
	if _, err := cmm.Load("f() { return (nope); }"); err == nil {
		t.Error("check error not reported")
	}
}

func TestOptimizeFacade(t *testing.T) {
	mod, err := cmm.Load(`f() { bits32 x; x = 2 + 3; return (x * 2); }`)
	if err != nil {
		t.Fatal(err)
	}
	stats := mod.Optimize()
	if stats.ConstantsFolded == 0 {
		t.Errorf("nothing folded: %s", stats)
	}
	in, _ := mod.Interp()
	res, err := in.Run("f")
	if err != nil || res[0] != 10 {
		t.Errorf("f() = %v (%v)", res, err)
	}
}

// TestNativeAfterOptimize: Native compiles the graphs as they are now.
// Code compiled before an optimization is stale afterwards, so an
// optimized module must compile to what a fresh load optimized first
// compiles to.
func TestNativeAfterOptimize(t *testing.T) {
	const src = `f(bits32 x) { bits32 y, z; y = 3 + 4; z = y * 2; return (x + z); }`
	for name, optimize := range map[string]func(*cmm.Module){
		"Optimize":          func(m *cmm.Module) { m.Optimize() },
		"OptimizeInterproc": func(m *cmm.Module) { m.OptimizeInterproc(); m.Optimize() },
		"ApplyOpt(1)":       func(m *cmm.Module) { m.ApplyOpt(1) },
	} {
		codeSize := func(m *cmm.Module) int {
			mach, err := m.Native(cmm.CompileConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if res, err := mach.Run("f", 1); err != nil || res[0] != 15 {
				t.Fatalf("f(1) = %v (%v), want 15", res, err)
			}
			return mach.CodeSize("f")
		}
		mod, err := cmm.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		before := codeSize(mod)
		optimize(mod)
		after := codeSize(mod)
		fresh, _ := cmm.Load(src)
		optimize(fresh)
		if want := codeSize(fresh); after != want || after >= before {
			t.Errorf("%s: code size of f: %d before, %d after, %d from a fresh load optimized first", name, before, after, want)
		}
	}
}

func TestDumps(t *testing.T) {
	mod, err := cmm.Load(figure1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mod.DumpGraph("sp1")
	if err != nil || !strings.Contains(g, "Entry") {
		t.Errorf("graph: %v\n%s", err, g)
	}
	s, err := mod.DumpSSA("sp1")
	if err != nil || s == "" {
		t.Errorf("ssa: %v", err)
	}
	l, err := mod.DumpLiveness("sp1")
	if err != nil || l == "" {
		t.Errorf("liveness: %v", err)
	}
	if _, err := mod.DumpGraph("nope"); err == nil {
		t.Error("missing proc not reported")
	}
}

// TestForeignFacade: a foreign procedure runs under both engines, also
// when called through a data table. Both engines resolve names as the
// checker did: an import that a data label shadows reads as the label,
// and a tail call through a local named like a procedure goes where the
// local points.
func TestForeignFacade(t *testing.T) {
	mod, err := cmm.Load(`
import d1, host, f, host;
section "data" { d1: bits32 7; tbl: bits32 f, host; }
f(bits32 x) {
    bits32 r, h, g;
    r = host(x);
    h = bits32[tbl + 4];
    r = h(r);
    g = k;
    jump g(r + bits32[d1]);
}
g(bits32 x) { return (x + 1); }
k(bits32 x) { return (x + 2); }
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"interp", "native"} {
		var runFn func(string, ...uint64) ([]uint64, error)
		opt := cmm.WithForeign("host", func(args []uint64) ([]uint64, error) {
			return []uint64{args[0] + 100}, nil
		})
		if target == "interp" {
			in, err := mod.Interp(opt)
			if err != nil {
				t.Fatal(err)
			}
			runFn = in.Run
		} else {
			mach, err := mod.Native(cmm.CompileConfig{}, opt)
			if err != nil {
				t.Fatal(err)
			}
			runFn = mach.Run
		}
		res, err := runFn("f", 1)
		if err != nil || res[0] != 210 {
			t.Errorf("%s: f(1) = %v (%v)", target, res, err)
		}
	}
}

func TestDispatcherFacade(t *testing.T) {
	src := `
section "data" {
    desc: bits32 1,  7, 0, 1;
}
f() {
    bits32 r;
    r = g() also unwinds to k also aborts descriptors(desc);
    return (r);
continuation k(r):
    return (r);
}
g() {
    yield(1, 7, 42) also aborts;
    return (0);
}
`
	mod, err := cmm.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"interp", "native"} {
		var res []uint64
		if target == "interp" {
			in, err := mod.Interp(cmm.WithDispatcher(cmm.NewUnwindDispatcher()))
			if err != nil {
				t.Fatal(err)
			}
			res, err = in.Run("f")
			if err != nil {
				t.Fatal(err)
			}
		} else {
			mach, err := mod.Native(cmm.CompileConfig{}, cmm.WithDispatcher(cmm.NewUnwindDispatcher()))
			if err != nil {
				t.Fatal(err)
			}
			res, err = mach.Run("f")
			if err != nil {
				t.Fatal(err)
			}
		}
		if res[0] != 42 {
			t.Errorf("%s: f() = %v", target, res)
		}
	}
}

// TestParseDispatcher: every spec form builds the dispatcher its
// constructor would, and a malformed spec fails naming the accepted
// forms.
func TestParseDispatcher(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want cmm.Dispatcher
	}{
		{"", nil},
		{"unwind", cmm.NewUnwindDispatcher()},
		{"exnstack:exn_top", cmm.NewExnStackDispatcher("exn_top")},
		{"register:handler", cmm.NewRegisterDispatcher("handler")},
	} {
		got, err := cmm.ParseDispatcher(tc.spec)
		if err != nil {
			t.Errorf("ParseDispatcher(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseDispatcher(%q) = %#v, want %#v", tc.spec, got, tc.want)
		}
	}
	for _, spec := range []string{"bogus", "unwind:x", "exnstack", "register:"} {
		_, err := cmm.ParseDispatcher(spec)
		if err == nil || !strings.Contains(err.Error(), "unwind, exnstack:<global>, register:<global>") {
			t.Errorf("ParseDispatcher(%q) = %v, want an error naming the accepted forms", spec, err)
		}
	}
}

// TestParseExceptionPolicy: each CLI spelling names its MiniM3 policy,
// and anything else fails naming the accepted forms.
func TestParseExceptionPolicy(t *testing.T) {
	for name, want := range map[string]cmm.ExceptionPolicy{
		"cutting":   cmm.StackCutting,
		"unwinding": cmm.RuntimeUnwinding,
		"native":    cmm.NativeUnwinding,
	} {
		if got, err := cmm.ParseExceptionPolicy(name); err != nil || got != want {
			t.Errorf("ParseExceptionPolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "bogus", "native-unwind", "Cutting"} {
		_, err := cmm.ParseExceptionPolicy(name)
		if err == nil || !strings.Contains(err.Error(), "cutting, unwinding, native") {
			t.Errorf("ParseExceptionPolicy(%q) = %v, want an error naming the accepted forms", name, err)
		}
	}
}

func TestMiniM3Facade(t *testing.T) {
	src := `
exception E;
proc f(x) {
    var r;
    try {
        if x == 0 { raise E(9); }
        r = x;
    } except E(v) {
        r = 100 + v;
    }
    return r;
}
`
	for _, policy := range []cmm.ExceptionPolicy{cmm.StackCutting, cmm.RuntimeUnwinding, cmm.NativeUnwinding} {
		out, err := cmm.CompileMiniM3(src, policy)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		mod, err := cmm.Load(out)
		if err != nil {
			t.Fatalf("%v: generated C-- does not load: %v", policy, err)
		}
		var opts []cmm.RunOption
		switch policy {
		case cmm.StackCutting:
			opts = append(opts, cmm.WithDispatcher(cmm.NewExnStackDispatcher("mm_exn_top")))
		case cmm.RuntimeUnwinding:
			opts = append(opts, cmm.WithDispatcher(cmm.NewUnwindDispatcher()))
		}
		mach, err := mod.Native(cmm.CompileConfig{}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mach.Run("run_f", 0)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if res[0] != 0 || res[1] != 109 {
			t.Errorf("%v: run_f(0) = (%d,%d), want (0,109)", policy, res[0], res[1])
		}
	}
}

func TestHennessyFacade(t *testing.T) {
	src := `
f(bits32 a) {
    bits32 b, c;
    b = a + 1;
    c = g(k) also cuts to k;
    return (c);
continuation k:
    return (b);
}
g(bits32 kv) {
    cut to kv() also aborts;
}
`
	sound, _ := cmm.Load(src)
	sound.Optimize()
	in, _ := sound.Interp()
	res, err := in.Run("f", 41)
	if err != nil || res[0] != 42 {
		t.Errorf("sound: %v (%v)", res, err)
	}

	unsound, _ := cmm.Load(src)
	unsound.OptimizeUnsoundWithoutExceptionEdges()
	in2, _ := unsound.Interp()
	if _, err := in2.Run("f", 41); err == nil {
		t.Error("unsound optimization should break the handler")
	}
}
