package codegen

import (
	"strings"
	"testing"

	"cmm/internal/cfg"
	"cmm/internal/check"
	"cmm/internal/machine"
	"cmm/internal/paper"
	"cmm/internal/syntax"
)

func compile(t *testing.T, src string, opts Options) *Program {
	t.Helper()
	parsed, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := check.Check(parsed)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := cfg.Build(parsed, info)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cp, err := Compile(p, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return cp
}

func TestFrameLayout(t *testing.T) {
	cp := compile(t, `
f(bits32 x) {
    bits32 a;
    a = g(x);       /* a is NOT live across: defined by the call */
    a = g(a);       /* ...but live across this second call?  no: redefined */
    return (a);
}
g(bits32 x) { return (x); }
`, Options{})
	pi := cp.Procs["f"]
	if pi.FrameSize <= 0 || pi.RAOffset < 0 || pi.RAOffset >= pi.FrameSize {
		t.Errorf("frame: size=%d ra=%d", pi.FrameSize, pi.RAOffset)
	}
	// ra is the last slot.
	if pi.RAOffset != pi.FrameSize-8 {
		t.Errorf("ra not last: %d of %d", pi.RAOffset, pi.FrameSize)
	}
}

func TestAllocationClasses(t *testing.T) {
	// y live across a plain call -> callee-saves; z live into a cut
	// continuation -> frame; w used only locally -> caller-saves temp.
	cp := compile(t, `
f(bits32 y, bits32 z, bits32 w) {
    bits32 r;
    r = w + 1;
    r = g(r) also cuts to k;
    return (r + y);
continuation k:
    return (z);
}
g(bits32 x) { return (x); }
`, Options{})
	pi := cp.Procs["f"]
	// z must be frame-resident: find a store with symbol z.
	foundFrameZ := false
	for i := pi.Entry; i < pi.End; i++ {
		in := cp.Code[i]
		if in.Op == machine.OpStore && in.Sym == "z" && in.Rs == machine.RSP {
			foundFrameZ = true
		}
	}
	if !foundFrameZ {
		t.Errorf("z not in frame:\n%s", machine.DisasmAll(cp.Code[pi.Entry:pi.End]))
	}
	// The full callee-saves bank is saved (k is a cut target).
	if len(pi.SavedRegs) != machine.NumS {
		t.Errorf("cut-target proc saves %d regs, want %d", len(pi.SavedRegs), machine.NumS)
	}
}

func TestNoContNoFullSave(t *testing.T) {
	cp := compile(t, `
f(bits32 y) {
    bits32 r;
    r = g(y);
    return (r + y);
}
g(bits32 x) { return (x); }
`, Options{})
	pi := cp.Procs["f"]
	// Only the actually used callee-saves registers are saved.
	if len(pi.SavedRegs) == 0 || len(pi.SavedRegs) == machine.NumS {
		t.Errorf("saved regs: %d", len(pi.SavedRegs))
	}
}

func TestContBlocksMaterialized(t *testing.T) {
	cp := compile(t, paper.Section41, Options{})
	pi := cp.Procs["f"]
	off, ok := pi.ContBlocks["k"]
	if !ok {
		t.Fatal("no continuation block for k")
	}
	// The prologue loads the continuation's linked landing pc, a code
	// address inside f, and stores it and sp at the block.
	stores, pcLoads := 0, 0
	for i := pi.Entry; i < pi.Entry+16 && i < pi.End; i++ {
		in := cp.Code[i]
		if in.Op == machine.OpStore && (in.Imm == off || in.Imm == off+8) {
			stores++
		}
		if in.Op == machine.OpLI && in.Sym == "pc of k" {
			pcLoads++
			if pc, ok := machine.CodeIndex(uint64(in.Imm)); !ok || pc < pi.Entry || pc >= pi.End {
				t.Errorf("pc of k is %#x, not a code address in f [%d, %d)", in.Imm, pi.Entry, pi.End)
			}
		}
	}
	if stores != 2 || pcLoads != 1 {
		t.Errorf("continuation block: %d stores, %d pc loads\n%s", stores, pcLoads, machine.DisasmAll(cp.Code[pi.Entry:pi.End]))
	}
}

func TestCallSiteTable(t *testing.T) {
	cp := compile(t, `
section "data" { d1: bits32 9; }
f() {
    bits32 r;
    r = g() also unwinds to k1, k2 also aborts descriptors(d1);
    return (r);
continuation k1(r):
    return (r);
continuation k2:
    return (0);
}
g() { return (1); }
`, Options{})
	var site *CallSite
	for pc := range cp.Code {
		if s := cp.SiteAt(pc); s != nil && len(s.UnwindPCs) == 2 {
			site = s
		}
	}
	if site == nil {
		t.Fatal("no call site with 2 unwind continuations")
	}
	if !site.Abort {
		t.Error("abort flag missing")
	}
	if len(site.Descriptors) != 1 {
		t.Errorf("descriptors: %v", site.Descriptors)
	}
	if site.UnwindVars[0] != 1 || site.UnwindVars[1] != 0 {
		t.Errorf("unwind param counts: %v", site.UnwindVars)
	}
	// Descriptor resolves to the data label's address.
	if site.Descriptors[0] != cp.Img.Labels["d1"] {
		t.Errorf("descriptor %#x != label %#x", site.Descriptors[0], cp.Img.Labels["d1"])
	}
}

func TestBranchTableEmission(t *testing.T) {
	cp := compile(t, `
f() {
    bits32 r;
    r = g() also returns to k0, k1;
    return (r);
continuation k0(r):
    return (r);
continuation k1(r):
    return (r);
}
g() { return <2/2> (5); }
`, Options{})
	// Immediately after the call: two unconditional jumps (the table).
	var callIdx int
	for i, in := range cp.Code {
		if in.Op == machine.OpCall && in.Sym == "g" {
			callIdx = i
		}
	}
	if cp.Code[callIdx+1].Op != machine.OpJmp || cp.Code[callIdx+2].Op != machine.OpJmp {
		t.Errorf("no branch table after call:\n%s", machine.DisasmAll(cp.Code[callIdx:callIdx+4]))
	}
	// g's normal return skips the table: RetOff 2.
	gi := cp.Procs["g"]
	foundRet := false
	for i := gi.Entry; i < gi.End; i++ {
		if cp.Code[i].Op == machine.OpRetOff && cp.Code[i].Imm == 2 {
			foundRet = true
		}
	}
	if !foundRet {
		t.Errorf("g lacks ret +2:\n%s", machine.DisasmAll(cp.Code[gi.Entry:gi.End]))
	}
}

func TestTestAndBranchEmission(t *testing.T) {
	cp := compile(t, `
f() {
    bits32 r;
    r = g() also returns to k0;
    return (r);
continuation k0(r):
    return (r);
}
g() { return <1/1> (5); }
`, Options{TestAndBranch: true})
	gi := cp.Procs["g"]
	// The callee loads the index register before returning.
	foundLI := false
	for i := gi.Entry; i < gi.End; i++ {
		if cp.Code[i].Op == machine.OpLI && cp.Code[i].Rd == machine.RX0 && cp.Code[i].Imm == 1 {
			foundLI = true
		}
	}
	if !foundLI {
		t.Errorf("callee does not set index:\n%s", machine.DisasmAll(cp.Code[gi.Entry:gi.End]))
	}
}

func TestProcAtLookup(t *testing.T) {
	cp := compile(t, paper.Figure1, Options{})
	for _, name := range []string{"sp1", "sp2", "sp2_help", "sp3"} {
		pi := cp.Procs[name]
		if got := cp.ProcAt(pi.Entry); got != pi {
			t.Errorf("ProcAt(entry of %s) = %v", name, got)
		}
		if got := cp.ProcAt(pi.End - 1); got != pi {
			t.Errorf("ProcAt(end of %s) = %v", name, got)
		}
	}
	if cp.ProcAt(1<<20) != nil {
		t.Error("ProcAt out of range")
	}
}

func TestGlobalsAddressed(t *testing.T) {
	cp := compile(t, `
bits32 a = 7;
bits32 b;
f() { b = a + 1; return (b); }
`, Options{})
	if cp.GlobalAddr["a"] == 0 || cp.GlobalAddr["b"] == 0 {
		t.Fatalf("global addresses: %v", cp.GlobalAddr)
	}
	if cp.GlobalAddr["a"] == cp.GlobalAddr["b"] {
		t.Fatal("globals share an address")
	}
	if cp.GlobalInit["a"] != 7 {
		t.Errorf("init: %d", cp.GlobalInit["a"])
	}
	if cp.HeapStart <= cp.GlobalAddr["b"] {
		t.Errorf("heap overlaps globals: %#x vs %#x", cp.HeapStart, cp.GlobalAddr["b"])
	}
}

func TestTooManyArgsRejected(t *testing.T) {
	parsed, err := syntax.Parse(`
f() { g(1,2,3,4,5,6,7,8,9); return (); }
g(bits32 a) { return (); }
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := check.Check(parsed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(parsed, info)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(p, Options{}); err == nil || !strings.Contains(err.Error(), "arguments") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeepExpressionRejectedGracefully(t *testing.T) {
	// Build a pathologically deep RIGHT-nested expression, which needs
	// one scratch register per level.
	expr := "x"
	for i := 0; i < 12; i++ {
		expr = "((x | 1) + " + expr + ")"
	}
	src := "f(bits32 x) { return (" + expr + "); }"
	parsed, err := syntax.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := check.Check(parsed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(parsed, info)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(p, Options{}); err == nil || !strings.Contains(err.Error(), "too deep") {
		t.Fatalf("err = %v", err)
	}
}

func TestCodeSizeAccounting(t *testing.T) {
	cp := compile(t, paper.Figure1, Options{})
	total := 0
	for _, name := range []string{"sp1", "sp2", "sp2_help", "sp3"} {
		sz := cp.CodeSize(name)
		if sz <= 0 {
			t.Errorf("%s: size %d", name, sz)
		}
		total += sz
	}
	if total != len(cp.Code) {
		t.Errorf("sizes sum to %d, code is %d", total, len(cp.Code))
	}
	if cp.CodeSize("missing") != 0 {
		t.Error("missing proc has nonzero size")
	}
}

func TestStringsInterned(t *testing.T) {
	cp := compile(t, `
f(bits32 t) { t("hello"); return (); }
`, Options{})
	if _, ok := cp.Img.Strings["hello"]; !ok {
		t.Fatalf("string not interned: %v", cp.Img.Strings)
	}
	// The LI of the string address appears in code.
	found := false
	for _, in := range cp.Code {
		if in.Op == machine.OpLI && in.Sym == "str" && uint64(in.Imm) == cp.Img.Strings["hello"] {
			found = true
		}
	}
	if !found {
		t.Error("string address not loaded")
	}
}
