package sem

import (
	"errors"
	"strings"
	"testing"

	"cmm/internal/cfg"
	"cmm/internal/check"
	"cmm/internal/paper"
	"cmm/internal/syntax"
)

func compile(t *testing.T, src string) *cfg.Program {
	t.Helper()
	prog, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := check.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := cfg.Build(prog, info)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func newMachine(t *testing.T, src string, opts ...Option) *Machine {
	t.Helper()
	opts = append([]Option{WithMaxSteps(1_000_000)}, opts...)
	m, err := New(compile(t, src), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func run1(t *testing.T, m *Machine, proc string, args ...uint64) uint64 {
	t.Helper()
	vs, err := m.Run(proc, args...)
	if err != nil {
		t.Fatalf("run %s: %v", proc, err)
	}
	if len(vs) != 1 {
		t.Fatalf("run %s: %d results, want 1", proc, len(vs))
	}
	return vs[0].Bits
}

// TestFigure1 runs the paper's first figure: sum and product of 1..n via
// ordinary recursion, tail recursion, and a loop. All three must agree.
func TestFigure1(t *testing.T) {
	m := newMachine(t, paper.Figure1)
	for n := uint64(1); n <= 10; n++ {
		wantSum := n * (n + 1) / 2
		wantProd := uint64(1)
		for i := uint64(2); i <= n; i++ {
			wantProd *= i
		}
		for _, proc := range []string{"sp1", "sp2", "sp3"} {
			vs, err := m.Run(proc, n)
			if err != nil {
				t.Fatalf("%s(%d): %v", proc, n, err)
			}
			if len(vs) != 2 {
				t.Fatalf("%s(%d): %d results", proc, n, len(vs))
			}
			if vs[0].Bits != wantSum || vs[1].Bits != wantProd {
				t.Errorf("%s(%d) = (%d, %d), want (%d, %d)",
					proc, n, vs[0].Bits, vs[1].Bits, wantSum, wantProd)
			}
		}
	}
}

func TestFigure1Wraparound(t *testing.T) {
	// bits32 arithmetic wraps: 13! = 6227020800 > 2^32.
	m := newMachine(t, paper.Figure1)
	vs, err := m.Run("sp3", 13)
	if err != nil {
		t.Fatal(err)
	}
	if vs[1].Bits != 6227020800%(1<<32) {
		t.Errorf("13! mod 2^32 = %d, want %d", vs[1].Bits, uint64(6227020800%(1<<32)))
	}
}

func TestTailCallDoesNotGrowStack(t *testing.T) {
	// sp2 iterates by tail calls; the stack must stay empty however large
	// n is (the defining property of a tail call, §3.1).
	src := `
probe(bits32 n) {
    jump loopy(n);
}
loopy(bits32 n) {
    bits32 d;
    if n == 0 {
        d = depth();
        return (d);
    }
    jump loopy(n - 1);
}
import depth;
`
	var maxDepth int
	m := newMachine(t, src, WithForeign("depth", func(m *Machine, args []Value) ([]Value, error) {
		if d := m.StackDepth(); d > maxDepth {
			maxDepth = d
		}
		return []Value{Word(uint64(m.StackDepth()))}, nil
	}))
	got := run1(t, m, "probe", 10000)
	if got != 0 || maxDepth != 0 {
		t.Errorf("tail-calling loop grew the stack: depth %d/%d", got, maxDepth)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	src := `
f(bits32 a) {
    bits32[a] = 42;
    bits32[a + 4] = bits32[a] + 1;
    return (bits32[a + 4]);
}
`
	m := newMachine(t, src)
	if got := run1(t, m, "f", 0x8000); got != 43 {
		t.Errorf("got %d", got)
	}
}

func TestMemoryWidths(t *testing.T) {
	src := `
f(bits32 a) {
    bits8[a] = 255;
    bits16[a + 2] = 65535;
    bits64[a + 8] = 1;
    return ();
}
rd8(bits32 a) {
    bits8 v;
    v = bits8[a];
    return (v);
}
rd16(bits32 a) {
    bits16 v;
    v = bits16[a + 2];
    return (v);
}
rd64(bits32 a) {
    bits64 v;
    v = bits64[a + 8];
    return (v);
}
`
	m := newMachine(t, src)
	if _, err := m.Run("f", 0x8000); err != nil {
		t.Fatal(err)
	}
	if got := run1(t, m, "rd8", 0x8000); got != 255 {
		t.Errorf("bits8: %d", got)
	}
	if got := run1(t, m, "rd16", 0x8000); got != 65535 {
		t.Errorf("bits16: %d", got)
	}
	if got := run1(t, m, "rd64", 0x8000); got != 1 {
		t.Errorf("bits64: %d", got)
	}
}

func TestOutOfRangeMemoryGoesWrong(t *testing.T) {
	m := newMachine(t, `f() { return (bits32[4294967290]); }`)
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "outside memory") {
		t.Fatalf("err = %v", err)
	}
}

func TestGlobalsPersistAcrossCalls(t *testing.T) {
	src := `
bits32 counter = 100;
bump() {
    counter = counter + 1;
    return (counter);
}
`
	m := newMachine(t, src)
	if got := run1(t, m, "bump"); got != 101 {
		t.Errorf("first: %d", got)
	}
	if got := run1(t, m, "bump"); got != 102 {
		t.Errorf("second: %d", got)
	}
}

// TestCallResultIntoGlobal: a call whose result is a global register
// writes the global, which another procedure then reads. The
// name-keyed machine wrote the result into the caller's environment
// instead, so rd saw the initial value.
func TestCallResultIntoGlobal(t *testing.T) {
	src := `
bits32 g = 1;
f(bits32 n) {
    bits32 r;
    g = h(n);
    r = rd();
    return (r);
}
h(bits32 n) { return (n + 1); }
rd() { return (g); }
`
	m := newMachine(t, src)
	if got := run1(t, m, "f", 41); got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestStaticDataAndStrings(t *testing.T) {
	src := `
section "data" {
    tbl: bits32 10, 20, 30;
    msg: "hi";
}
f() {
    return (bits32[tbl + 4]);
}
g() {
    bits32 p;
    p = h("hi");
    return (p);
}
h(bits32 s) {
    return (bits8[s]);
}
`
	m := newMachine(t, src)
	if got := run1(t, m, "f"); got != 20 {
		t.Errorf("data read: %d", got)
	}
	if got := run1(t, m, "g"); got != 'h' {
		t.Errorf("string read: %d", got)
	}
}

func TestDataHoldsProcPointer(t *testing.T) {
	src := `
section "data" {
    vec: bits32 target;
}
f() {
    bits32 p;
    p = bits32[vec];
    p(7);
    return (1);
}
target(bits32 x) {
    return ();
}
`
	m := newMachine(t, src)
	if got := run1(t, m, "f"); got != 1 {
		t.Errorf("got %d", got)
	}
}

func TestUninitializedReadGoesWrong(t *testing.T) {
	m := newMachine(t, `f() { bits32 x; return (x); }`)
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "uninitialized") {
		t.Fatalf("err = %v", err)
	}
}

func TestReadBeforeWriteAfterEntryDiscardsEnv(t *testing.T) {
	// The Entry rule discards the incoming environment, so locals of a
	// previous activation can never leak in.
	src := `
f() {
    bits32 r;
    g(1);
    r = h();
    return (r);
}
g(bits32 secret) { return (); }
h() {
    bits32 secret;
    return (secret);
}
`
	m := newMachine(t, src)
	if _, err := m.Run("f"); err == nil {
		t.Fatal("expected uninitialized-read error")
	}
}

func TestMultipleResultsAndParallelAssign(t *testing.T) {
	src := `
swap(bits32 a, bits32 b) {
    a, b = b, a;
    return (a, b);
}
pair() {
    bits32 x, y;
    x, y = swap(1, 2);
    return (x * 10 + y);
}
`
	m := newMachine(t, src)
	if got := run1(t, m, "pair"); got != 21 {
		t.Errorf("got %d", got)
	}
}

func TestComputedGoto(t *testing.T) {
	// goto through a label value: we look the label up by address.
	src := `
f(bits32 which) {
    bits32 l;
    if which == 0 {
        l = a;
    } else {
        l = b;
    }
    goto l targets a, b;
a:
    return (100);
b:
    return (200);
}
`
	// Label values: labels are not first-class in our checker (a, b are
	// not names). Skip unless labels resolve; this documents the
	// limitation.
	prog, err := syntax.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := check.Check(prog); err != nil {
		t.Skipf("label values not supported by the checker: %v", err)
	}
}

func TestArityMismatchGoesWrong(t *testing.T) {
	// C-- does not *statically* check call arity (§3.1); dynamically the
	// CopyIn rule cannot fire, so the program goes wrong.
	src := `
f() { g(1, 2); return (); }
g(bits32 x) { return (); }
`
	m := newMachine(t, src)
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "CopyIn expects") {
		t.Fatalf("err = %v", err)
	}
}

func TestReturnArityMismatchGoesWrong(t *testing.T) {
	// The Exit rule requires the call site to have exactly the number of
	// alternate returns cited in return <m/n>.
	src := `
f() {
    g();
    return ();
}
g() {
    return <0/1> ();
}
`
	m := newMachine(t, src)
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "alternate return") {
		t.Fatalf("err = %v", err)
	}
}

func TestAlternateReturns(t *testing.T) {
	src := `
classify(bits32 x) {
    if x == 0 {
        return <0/2> (x);
    }
    if x == 1 {
        return <1/2> (x + 100);
    }
    return <2/2> (x + 200);
}
f(bits32 x) {
    bits32 r;
    r = classify(x) also returns to kzero, kone;
    return (r);     /* normal */
continuation kzero(r):
    return (1000);
continuation kone(r):
    return (r);
}
`
	m := newMachine(t, src)
	if got := run1(t, m, "f", 0); got != 1000 {
		t.Errorf("f(0) = %d, want 1000", got)
	}
	if got := run1(t, m, "f", 1); got != 101 {
		t.Errorf("f(1) = %d, want 101", got)
	}
	if got := run1(t, m, "f", 5); got != 205 {
		t.Errorf("f(5) = %d, want 205", got)
	}
}

func TestCutToSameProcedure(t *testing.T) {
	src := `
f(bits32 kv) {
    bits32 r;
    r = 0;
    cut to kv(7) also cuts to k;
continuation k(r):
    return (r);
}
g() {
    bits32 r;
    r = f(0);
    return (r);
}
`
	// kv is 0 here, not a continuation: must go wrong.
	m := newMachine(t, src)
	if _, err := m.Run("g"); err == nil {
		t.Fatal("expected cut to non-continuation to go wrong")
	}
}

func TestCutToAcrossActivations(t *testing.T) {
	// Section 4.1's shape: f passes k to g; g cuts to it.
	m := newMachine(t, paper.Section41)
	vs, err := m.Run("f", 0, 10)
	if err != nil {
		t.Fatalf("cut path: %v", err)
	}
	if len(vs) != 0 {
		t.Fatalf("results: %v", vs)
	}
	// Non-cut path: x != 0, so g returns normally.
	if _, err := m.Run("f", 1, 10); err != nil {
		t.Fatalf("normal path: %v", err)
	}
}

func TestCutPastFrameWithoutAbortsGoesWrong(t *testing.T) {
	src := `
f(bits32 x) {
    g(k) also cuts to k;
    return (0);
continuation k:
    return (1);
}
g(bits32 kv) {
    h(kv);      /* no also aborts: cutting past this frame is illegal */
    return ();
}
h(bits32 kv) {
    cut to kv() also aborts;
}
`
	m := newMachine(t, src)
	_, err := m.Run("f", 0)
	if err == nil || !strings.Contains(err.Error(), "also aborts") {
		t.Fatalf("err = %v", err)
	}
}

func TestCutPastFrameWithAborts(t *testing.T) {
	src := `
f(bits32 x) {
    g(k) also cuts to k;
    return (0);
continuation k:
    return (1);
}
g(bits32 kv) {
    h(kv) also aborts;
    return ();
}
h(bits32 kv) {
    cut to kv() also aborts;
}
`
	m := newMachine(t, src)
	if got := run1(t, m, "f", 0); got != 1 {
		t.Errorf("got %d, want 1 (handler ran)", got)
	}
}

func TestDeadContinuationGoesWrong(t *testing.T) {
	// Store a continuation, let its activation die, then cut to it: the
	// uid check makes the program go wrong (§5.2).
	src := `
bits32 savedk;
setup() {
    savedk = k;        /* k dies when setup returns */
    return ();
continuation k:
    return ();
}
boom() {
    bits32 kv;
    setup();
    kv = savedk;
    cut to kv() also aborts;
}
`
	m := newMachine(t, src)
	_, err := m.Run("boom")
	if err == nil || !strings.Contains(err.Error(), "dead continuation") {
		t.Fatalf("err = %v", err)
	}
}

// TestStaleContinuationFromEarlierRunGoesWrong parks a continuation in a
// global during one run and cuts to it in the next run on the same
// machine, once with cut to and once through SetCutToCont. The handle
// outlived its activation, so both must go wrong as a dead continuation,
// not be mistaken for a plain word or for a live continuation.
func TestStaleContinuationFromEarlierRunGoesWrong(t *testing.T) {
	src := `
bits32 savedk;
park() {
    savedk = k;
    return ();
continuation k:
    return ();
}
viaCut() {
    inner() also aborts;
    return ();
}
inner() {
    bits32 kv;
    kv = savedk;
    cut to kv() also aborts;
}
viaRuntime() {
    yield(0) also aborts;
    return ();
}
`
	rts := RuntimeFunc(func(m *Machine, args []Value) error {
		k, _ := m.GlobalWord("savedk")
		if err := m.SetCutToCont(k); err != nil {
			return err
		}
		return m.Resume()
	})
	for _, proc := range []string{"viaCut", "viaRuntime"} {
		m := newMachine(t, src, WithRuntime(rts))
		if _, err := m.Run("park"); err != nil {
			t.Fatal(err)
		}
		_, err := m.Run(proc)
		var w *Wrong
		if !errors.As(err, &w) || !strings.Contains(w.Msg, "dead continuation") {
			t.Errorf("%s: err = %v, want a dead-continuation Wrong", proc, err)
		}
	}
}

// TestResultsOutliveNextRun checks that the slice Run returns belongs to
// the caller: a later run on the same machine must not overwrite it.
func TestResultsOutliveNextRun(t *testing.T) {
	m := newMachine(t, paper.Figure1)
	first, err := m.Run("sp3", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("sp1", 7); err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || first[0].Bits != 15 || first[1].Bits != 120 {
		t.Errorf("first run's results became %v after a second run, want [15 120]", first)
	}
}

func TestContinuationThroughMemory(t *testing.T) {
	// Figure 10 stores a continuation value into the exception stack in
	// memory and later cuts to the loaded word.
	src := `
f(bits32 sp) {
    bits32 kv;
    bits32[sp] = k;
    g(sp) also cuts to k;
    return (0);
continuation k(kv):
    return (kv);
}
g(bits32 sp) {
    bits32 kv;
    kv = bits32[sp];
    cut to kv(99) also aborts;
}
`
	m := newMachine(t, src)
	if got := run1(t, m, "f", 0x8000); got != 99 {
		t.Errorf("got %d, want 99", got)
	}
}

func TestCalledContinuationGoesWrong(t *testing.T) {
	src := `
f() {
    k();
    return (0);
continuation k:
    return (1);
}
`
	m := newMachine(t, src)
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "cut to") {
		t.Fatalf("err = %v", err)
	}
}

func TestForeignProcedures(t *testing.T) {
	src := `
import twice;
f(bits32 x) {
    bits32 r;
    r = twice(x);
    return (r + 1);
}
`
	m := newMachine(t, src, WithForeign("twice", func(m *Machine, args []Value) ([]Value, error) {
		return []Value{Word(args[0].Bits * 2)}, nil
	}))
	if got := run1(t, m, "f", 21); got != 43 {
		t.Errorf("got %d", got)
	}
}

func TestMissingForeignGoesWrong(t *testing.T) {
	m := newMachine(t, `import nowhere; f() { nowhere(); return (); }`)
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "no implementation") {
		t.Fatalf("err = %v", err)
	}
}

func TestFastPrimitiveFailureGoesWrong(t *testing.T) {
	m := newMachine(t, `f(bits32 q) { return (%divu(10, q)); }`)
	if got := run1(t, m, "f", 2); got != 5 {
		t.Errorf("divu: %d", got)
	}
	if _, err := m.Run("f", 0); err == nil {
		t.Fatal("fast divide by zero must trap in this implementation")
	}
}

func TestYieldWithoutRuntimeGoesWrong(t *testing.T) {
	m := newMachine(t, `f() { yield(1) also aborts; return (); }`)
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "no run-time system") {
		t.Fatalf("err = %v", err)
	}
}

func TestFloatArithmetic(t *testing.T) {
	src := `
f() {
    float64 a, b;
    a = 1.5;
    b = 2.25;
    a = a + b * 2.0;
    if a == 6.0 {
        return (1);
    }
    return (0);
}
`
	m := newMachine(t, src)
	if got := run1(t, m, "f"); got != 1 {
		t.Errorf("float arith: got %d", got)
	}
}

func TestSolidDivYieldsToRuntime(t *testing.T) {
	// %%divu failure becomes a yield carrying DIVZERO; a runtime that
	// unwinds to the annotated continuation recovers (§4.3).
	var sawCode uint64
	rts := RuntimeFunc(func(m *Machine, args []Value) error {
		sawCode = args[0].Bits
		// Walk down: top activation is the synthesized %%divu; its
		// caller (divide) listed "also unwinds to dz".
		a, ok := m.FirstActivation()
		if !ok {
			return nil
		}
		for a.UnwindContCount() == 0 {
			a, ok = a.NextActivation()
			if !ok {
				return nil
			}
		}
		m.SetActivation(a)
		m.SetUnwindCont(0)
		return m.Resume()
	})
	m := newMachine(t, paper.Section43Divu, WithRuntime(rts))
	if got := run1(t, m, "divide", 10, 2); got != 5 {
		t.Errorf("divide(10,2) = %d", got)
	}
	if got := run1(t, m, "divide", 10, 0); got != 0 {
		t.Errorf("divide(10,0) = %d, want 0 (handler value)", got)
	}
	if sawCode != cfg.YieldDivZero {
		t.Errorf("yield code = %#x, want %#x", sawCode, uint64(cfg.YieldDivZero))
	}
	// The fast variant goes wrong instead.
	if _, err := m.Run("divideFast", 10, 0); err == nil {
		t.Error("divideFast(10,0) must go wrong")
	}
}

func TestRuntimeUnwindRestoresEnvironment(t *testing.T) {
	// Values live across the call (y) must be visible in the unwind
	// continuation: the Yield transfer restores the saved environment
	// ("restores callee-saves registers").
	src := `
f(bits32 y) {
    bits32 r;
    r = g() also unwinds to k also aborts;
    return (r);
continuation k:
    return (y + 1);
}
g() {
    yield(1) also aborts;
    return (0);
}
`
	rts := RuntimeFunc(func(m *Machine, args []Value) error {
		a, _ := m.FirstActivation()
		for a.UnwindContCount() == 0 {
			var ok bool
			a, ok = a.NextActivation()
			if !ok {
				return nil
			}
		}
		m.SetActivation(a)
		m.SetUnwindCont(0)
		return m.Resume()
	})
	m := newMachine(t, src, WithRuntime(rts))
	if got := run1(t, m, "f", 41); got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestRuntimeReceivesContParams(t *testing.T) {
	src := `
f() {
    bits32 r;
    r = g() also unwinds to k also aborts;
    return (r);
continuation k(r):
    return (r * 2);
}
g() {
    yield(5) also aborts;
    return (0);
}
`
	rts := RuntimeFunc(func(m *Machine, args []Value) error {
		a, _ := m.FirstActivation()
		for a.UnwindContCount() == 0 {
			a, _ = a.NextActivation()
		}
		m.SetActivation(a)
		m.SetUnwindCont(0)
		m.SetContParam(0, args[0].Bits+1)
		return m.Resume()
	})
	m := newMachine(t, src, WithRuntime(rts))
	if got := run1(t, m, "f"); got != 12 {
		t.Errorf("got %d, want 12 ((5+1)*2)", got)
	}
}

func TestRuntimeDescriptorAccess(t *testing.T) {
	src := `
section "data" {
    desc: bits32 77;
}
f() {
    bits32 r;
    r = g() also unwinds to k also aborts descriptors(desc);
    return (r);
continuation k(r):
    return (r);
}
g() {
    yield(0) also aborts;
    return (0);
}
`
	rts := RuntimeFunc(func(m *Machine, args []Value) error {
		a, _ := m.FirstActivation()
		for a.DescriptorCount() == 0 {
			a, _ = a.NextActivation()
		}
		d, ok := a.GetDescriptor(0)
		if !ok {
			return nil
		}
		v, err := m.Load(d, 4)
		if err != nil {
			return err
		}
		m.SetActivation(a)
		m.SetUnwindCont(0)
		m.SetContParam(0, v)
		return m.Resume()
	})
	m := newMachine(t, src, WithRuntime(rts))
	if got := run1(t, m, "f"); got != 77 {
		t.Errorf("descriptor value: %d", got)
	}
}

func TestRuntimeCutViaInterface(t *testing.T) {
	// The run-time system duplicates the effect of cut to with
	// SetCutToCont + SetContParam + Resume (§4.2, stack cutting column).
	src := `
bits32 handler;
f() {
    bits32 r;
    handler = k;
    r = g() also cuts to k;
    return (r);
continuation k(r):
    return (r + 1);
}
g() {
    yield(0) also aborts;
    return (0);
}
`
	rts := RuntimeFunc(func(m *Machine, args []Value) error {
		k, _ := m.GlobalWord("handler")
		if err := m.SetCutToCont(k); err != nil {
			return err
		}
		m.SetContParam(0, 30)
		return m.Resume()
	})
	m := newMachine(t, src, WithRuntime(rts))
	if got := run1(t, m, "f"); got != 31 {
		t.Errorf("got %d, want 31", got)
	}
}

func TestRuntimeMustArrangeResumption(t *testing.T) {
	rts := RuntimeFunc(func(m *Machine, args []Value) error { return nil })
	m := newMachine(t, `f() { yield(1) also aborts; return (); }`, WithRuntime(rts))
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "without arranging resumption") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnwindPastNonAbortFrameRejected(t *testing.T) {
	src := `
f() {
    bits32 r;
    r = mid() also unwinds to k also aborts;
    return (r);
continuation k:
    return (1);
}
mid() {
    deep();        /* no also aborts */
    return (0);
}
deep() {
    yield(0) also aborts;
    return (0);
}
`
	rts := RuntimeFunc(func(m *Machine, args []Value) error {
		a, _ := m.FirstActivation()
		for a.UnwindContCount() == 0 {
			var ok bool
			a, ok = a.NextActivation()
			if !ok {
				return nil
			}
		}
		m.SetActivation(a)
		m.SetUnwindCont(0)
		return m.Resume()
	})
	m := newMachine(t, src, WithRuntime(rts))
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "also aborts") {
		t.Fatalf("err = %v", err)
	}
}

func TestStepCounting(t *testing.T) {
	m := newMachine(t, `f() { return (1); }`)
	if _, err := m.Run("f"); err != nil {
		t.Fatal(err)
	}
	if m.Steps == 0 {
		t.Error("no steps counted")
	}
}

func TestMaxStepsCatchesDivergence(t *testing.T) {
	m := newMachine(t, `f() { loop: goto loop; }`)
	m.MaxSteps = 1000
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("err = %v", err)
	}
}

func TestRuntimeSetReturnCont(t *testing.T) {
	// The Yield rule also allows resuming at a RETURN continuation of
	// the chosen activation (P' ∈ PP' ∪ PPu): SetReturnCont picks one.
	src := `
f() {
    bits32 r;
    r = g() also returns to kalt also aborts;
    return (r);
continuation kalt(r):
    return (r + 1000);
}
g() {
    yield(0) also aborts;
    return <1/1> (5);
}
`
	rts := RuntimeFunc(func(m *Machine, args []Value) error {
		a, _ := m.FirstActivation()
		// Walk to f's activation (the one with a return-continuation).
		a, ok := a.NextActivation()
		if !ok {
			return nil
		}
		m.SetActivation(a)
		m.SetReturnCont(0) // the alternate return kalt
		m.SetContParam(0, 7)
		return m.Resume()
	})
	m := newMachine(t, src, WithRuntime(rts))
	if got := run1(t, m, "f"); got != 1007 {
		t.Errorf("got %d, want 1007", got)
	}
}

func TestRuntimeResumeNormalReturn(t *testing.T) {
	// Resume with neither unwind nor return index set: the normal return
	// continuation, with the parameters as results.
	src := `
f() {
    bits32 r;
    r = g() also aborts;
    return (r);
}
g() {
    yield(0) also aborts;
    return (5);
}
`
	rts := RuntimeFunc(func(m *Machine, args []Value) error {
		a, _ := m.FirstActivation()
		a, ok := a.NextActivation() // f's activation (suspended at the g call)
		if !ok {
			return nil
		}
		m.SetActivation(a)
		m.SetContParam(0, 99) // becomes the call's "result"
		return m.Resume()
	})
	m := newMachine(t, src, WithRuntime(rts))
	if got := run1(t, m, "f"); got != 99 {
		t.Errorf("got %d, want 99", got)
	}
}
