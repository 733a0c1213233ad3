package check

import (
	"strings"
	"testing"

	"cmm/internal/paper"
	"cmm/internal/syntax"
)

func mustParse(t *testing.T, src string) *syntax.Program {
	t.Helper()
	prog, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func checkOK(t *testing.T, src string) *Info {
	t.Helper()
	info, err := Check(mustParse(t, src))
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return info
}

func checkFails(t *testing.T, src, wantSubstr string) {
	t.Helper()
	_, err := Check(mustParse(t, src))
	if err == nil {
		t.Fatalf("expected error containing %q, got none", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSubstr)
	}
}

func TestCheckPaperFigures(t *testing.T) {
	for name, src := range map[string]string{
		"Figure1":   paper.Figure1,
		"Section41": paper.Section41,
		"Figure5":   "import g;" + paper.Figure5,
		"Figure8":   paper.Figure8Globals + "import getMove, makeMove; bits32 tryAMoveDesc;" + paper.Figure8,
		"Figure10":  paper.Figure8Globals + paper.Figure10Globals + "import getMove, makeMove; bits32 BadMove; bits32 NoMoreTiles;" + paper.Figure10 + paper.RaiseCutting,
		"Section43": paper.Section43Divu,
	} {
		t.Run(name, func(t *testing.T) {
			checkOK(t, src)
		})
	}
}

func TestResolveKinds(t *testing.T) {
	info := checkOK(t, `
bits32 g;
section "data" { msg: "hi"; }
f(bits32 x) {
    bits32 y;
    y = x + g;
    h(msg, k);
    return (y);
continuation k(y):
    return (y);
}
h(bits32 a, bits32 b) { return (a); }
`)
	pi := info.Procs["f"]
	if pi == nil {
		t.Fatal("no proc info for f")
	}
	if pi.Locals["x"].Kind != syntax.RefLocal || pi.Locals["y"].Kind != syntax.RefLocal {
		t.Error("locals not resolved")
	}
	if info.Globals["g"].Kind != syntax.RefGlobal {
		t.Error("global g not resolved")
	}
	if info.Globals["msg"].Kind != syntax.RefData {
		t.Error("data label msg not resolved")
	}
	if info.Globals["h"].Kind != syntax.RefProc {
		t.Error("proc h not resolved")
	}
	if _, ok := pi.Conts["k"]; !ok {
		t.Error("continuation k not collected")
	}
	// Every reference carries its resolution and type.
	asg := pi.Proc.Body[1].(*syntax.AssignStmt)
	sum := asg.RHS[0].(*syntax.BinExpr)
	call := pi.Proc.Body[2].(*syntax.CallStmt)
	for _, c := range []struct {
		e    syntax.Expr
		ref  syntax.Ref
		slot int
	}{
		{asg.LHS[0].(*syntax.VarExpr), syntax.RefLocal, 0},
		{sum.X, syntax.RefLocal, 0},
		{sum.Y, syntax.RefGlobal, 0},
		{call.Callee, syntax.RefProc, 1},
		{call.Args[0], syntax.RefData, 0},
		{call.Args[1], syntax.RefCont, 0},
	} {
		v := c.e.(*syntax.VarExpr)
		if v.Ref != c.ref || (c.ref == syntax.RefGlobal || c.ref == syntax.RefProc) && v.Slot != c.slot || v.Type() != syntax.Word {
			t.Errorf("%s resolved as %s slot %d type %s, want %s", v.Name, v.Ref, v.Slot, v.Type(), c.ref)
		}
	}
}

func TestContinuationNamedLikeVariable(t *testing.T) {
	checkFails(t, `f() { bits32 k; return ();
continuation k: return (); }`, "continuation k has the name of a variable")
}

func TestUndefinedName(t *testing.T) {
	checkFails(t, `f() { return (nope); }`, "undefined name nope")
}

func TestDuplicateLocal(t *testing.T) {
	checkFails(t, `f(bits32 x) { bits32 x; return (); }`, "redeclared")
}

func TestDuplicateParam(t *testing.T) {
	checkFails(t, `f(bits32 x, bits32 x) { return (); }`, "duplicate parameter")
}

func TestDuplicateLabel(t *testing.T) {
	checkFails(t, `f() { a: goto a; a: return (); }`, "label a redeclared")
}

func TestDuplicateContinuation(t *testing.T) {
	checkFails(t, `f() { return ();
continuation k: return ();
continuation k: return (); }`, "continuation k redeclared")
}

func TestDuplicateGlobalAndProc(t *testing.T) {
	checkFails(t, `bits32 f; f() { return (); }`, "redeclared")
}

func TestContinuationFormalsMustBeLocals(t *testing.T) {
	// §4.1: the "formal parameters" of a continuation must be variables of
	// the enclosing procedure.
	checkFails(t, `f() { return ();
continuation k(z):
    return (); }`, "not a variable of the enclosing procedure")
}

func TestAnnotationMustNameContinuation(t *testing.T) {
	checkFails(t, `f() { g() also cuts to nowhere; return (); } g() { return (); }`,
		"not a continuation")
	checkFails(t, `f(bits32 v) { g() also unwinds to v; return (); } g() { return (); }`,
		"not a continuation")
}

func TestAnnotationCannotNameOtherProcsContinuation(t *testing.T) {
	// Continuations are visible only inside their own procedure.
	checkFails(t, `
f() { return ();
continuation k: return (); }
h() { g() also cuts to k; return (); }
g() { return (); }
`, "not a continuation")
}

func TestGotoUndefinedLabel(t *testing.T) {
	checkFails(t, `f() { goto missing; }`, "undefined name missing")
}

func TestComputedGotoNeedsTargets(t *testing.T) {
	checkFails(t, `f(bits32 x) { goto x; }`, "computed goto must list its targets")
	checkOK(t, `f(bits32 x) { goto x targets a, b; a: return (1); b: return (2); }`)
	checkFails(t, `f(bits32 x) { goto x targets a, c; a: return (1); }`, "not a label")
}

func TestAssignToProcedure(t *testing.T) {
	checkFails(t, `f() { f = 1; return (); }`, "not assignable")
}

func TestAssignToDataLabel(t *testing.T) {
	checkFails(t, `section "d" { m: "x"; } f() { m = 1; return (); }`, "not assignable")
}

func TestTypeMismatch(t *testing.T) {
	checkFails(t, `f(bits32 x, float64 y) { x = y; return (); }`, "cannot assign")
	checkFails(t, `f(bits32 x, bits64 y) { return (x + y); }`, "mismatched types")
	checkFails(t, `f(float64 y) { if y { return (); } return (); }`, "word value")
}

func TestLiteralWidths(t *testing.T) {
	checkFails(t, `f(bits8 x) { x = 256; return (); }`, "does not fit")
	checkOK(t, `f(bits8 x) { x = 255; return (); }`)
}

func TestLiteralTypedFromContext(t *testing.T) {
	info := checkOK(t, `f(bits64 n) { if n == 1 { return (1); } return (0); }`)
	pi := info.Procs["f"]
	_ = pi
	// Find the literal in the comparison and check its type.
	cond := info.Program.Procs[0].Body[0].(*syntax.IfStmt).Cond.(*syntax.BinExpr)
	lit := cond.Y.(*syntax.IntLit)
	if lit.Ty.Width != 64 {
		t.Errorf("literal typed %s, want bits64", lit.Ty)
	}
}

func TestLiteralTypedFromRightOperand(t *testing.T) {
	info := checkOK(t, `f(bits64 n) { if 1 == n { return (1); } return (0); }`)
	cond := info.Program.Procs[0].Body[0].(*syntax.IfStmt).Cond.(*syntax.BinExpr)
	lit := cond.X.(*syntax.IntLit)
	if lit.Ty.Width != 64 {
		t.Errorf("literal typed %s, want bits64", lit.Ty)
	}
	_ = info
}

func TestComparisonHasWordType(t *testing.T) {
	info := checkOK(t, `f(bits64 a, bits64 b) { bits32 r; r = a == b; return (r); }`)
	asg := info.Program.Procs[0].Body[1].(*syntax.AssignStmt)
	if got := asg.RHS[0].Type(); got != syntax.Word {
		t.Errorf("comparison type %s, want %s", got, syntax.Word)
	}
}

func TestPrimitives(t *testing.T) {
	checkOK(t, `f(bits32 a, bits32 b) { return (%divu(a, b)); }`)
	checkFails(t, `f(bits32 a) { return (%wibble(a)); }`, "unknown primitive")
	checkFails(t, `f(bits32 a) { return (%divu(a)); }`, "expects 2 arguments")
	checkFails(t, `f(bits32 a) { bits32 r; r = %%frob(a, a); return (r); }`, "unknown primitive")
	checkFails(t, `f(bits32 a) { bits32 r; r = %%divu(a); return (r); }`, "expects 2 arguments")
}

func TestCallArityNotChecked(t *testing.T) {
	// §3.1: "C-- does not check the number or types of arguments passed to
	// a procedure."
	checkOK(t, `
f() { g(1, 2, 3); return (); }
g(bits32 x) { return (); }
`)
}

func TestCutToAnnotationRestrictions(t *testing.T) {
	checkFails(t, `f() { cut to f() also unwinds to k; return ();
continuation k: return (); }`, "cut to allows only")
	checkOK(t, `f() { cut to f() also cuts to k;
continuation k: return (); }`)
}

func TestDescriptorsMustBeStatic(t *testing.T) {
	checkFails(t, `f(bits32 x) { g() descriptors(x + 1); return (); } g() { return (); }`,
		"must be static")
	checkOK(t, `section "d" { desc: bits32 1; } f() { g() descriptors(desc); return (); } g() { return (); }`)
}

func TestExportUndefined(t *testing.T) {
	checkFails(t, `export nothing; f() { return (); }`, "not defined")
}

func TestGlobalInitMustBeConst(t *testing.T) {
	checkFails(t, `bits32 a; bits32 b = a; f() { return (); }`, "must be a constant")
	checkOK(t, `bits32 b = 1 + 2; f() { return (); }`)
}

func TestMemAddressType(t *testing.T) {
	checkFails(t, `f(float64 a) { return (bits32[a]); }`, "memory address must be a word")
}

func TestContinuationNameIsValue(t *testing.T) {
	// A continuation denotes a value of the native data-pointer type and
	// may be passed to procedures or stored (§4.1).
	info := checkOK(t, `
f(bits32 x) {
    g(k) also cuts to k;
    bits32[x] = k;
    return ();
continuation k:
    return ();
}
g(bits32 kv) { return (); }
`)
	_ = info
}

func TestErrorListCombines(t *testing.T) {
	_, err := Check(mustParse(t, `f() { return (a); } g() { return (b); }`))
	if err == nil {
		t.Fatal("expected errors")
	}
	if !strings.Contains(err.Error(), "more error") {
		t.Errorf("error list summary: %v", err)
	}
}
