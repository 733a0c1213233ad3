package syntax

import (
	"strings"
	"testing"
)

// The paper's Figure 1 (sum-and-product three ways) must parse; it
// exercises multi-result returns, calls with multiple results, jump, goto,
// labels, and if/else.
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
export sp2;
sp2(bits32 n) {
    jump sp2_help(n, 1, 1);
}
sp2_help(bits32 n, bits32 s, bits32 p) {
    if n == 1 {
        return (s, p);
    } else {
        jump sp2_help(n-1, s+n, p*n);
    }
}
export sp3;
sp3(bits32 n) {
    bits32 s, p;
    s = 1; p = 1;
loop:
    if n == 1 {
        return (s, p);
    } else {
        s = s + n;
        p = p * n;
        n = n - 1;
        goto loop;
    }
}
`

func TestParseFigure1(t *testing.T) {
	prog, err := Parse(figure1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Procs) != 4 {
		t.Fatalf("got %d procedures, want 4", len(prog.Procs))
	}
	if len(prog.Exports) != 3 {
		t.Fatalf("got exports %v, want 3", prog.Exports)
	}
	sp1 := prog.Proc("sp1")
	if sp1 == nil {
		t.Fatal("sp1 not found")
	}
	if len(sp1.Formals) != 1 || sp1.Formals[0].Name != "n" || sp1.Formals[0].Type.Width != 32 {
		t.Errorf("sp1 formals wrong: %+v", sp1.Formals)
	}
	// sp1 body: VarDecl, IfStmt.
	if len(sp1.Body) != 2 {
		t.Fatalf("sp1 body has %d statements, want 2", len(sp1.Body))
	}
	ifs, ok := sp1.Body[1].(*IfStmt)
	if !ok {
		t.Fatalf("sp1 body[1] is %T, want *IfStmt", sp1.Body[1])
	}
	// Else branch holds the recursive call with two results.
	call, ok := ifs.Else[0].(*CallStmt)
	if !ok {
		t.Fatalf("else[0] is %T, want *CallStmt", ifs.Else[0])
	}
	if len(call.Results) != 2 {
		t.Errorf("recursive call has %d results, want 2", len(call.Results))
	}
	ret, ok := ifs.Else[1].(*ReturnStmt)
	if !ok || len(ret.Results) != 2 {
		t.Errorf("else[1]: %T with %v", ifs.Else[1], ifs.Else)
	}
	// sp2 body: a single jump.
	sp2 := prog.Proc("sp2")
	if _, ok := sp2.Body[0].(*JumpStmt); !ok {
		t.Errorf("sp2 body[0] is %T, want *JumpStmt", sp2.Body[0])
	}
	// sp3 contains a label and a goto.
	sp3 := prog.Proc("sp3")
	foundLabel, foundGoto := false, false
	var walk func(ss []Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *LabelStmt:
				if s.Name == "loop" {
					foundLabel = true
				}
			case *GotoStmt:
				foundGoto = true
			case *IfStmt:
				walk(s.Then)
				walk(s.Else)
			}
		}
	}
	walk(sp3.Body)
	if !foundLabel || !foundGoto {
		t.Errorf("sp3: label found=%v goto found=%v", foundLabel, foundGoto)
	}
}

func TestParseContinuationAndCut(t *testing.T) {
	src := `
f(bits32 x, bits32 y) {
    float64 w;
    g(x, k) also cuts to k;
    return ();
continuation k(x):
    return ();
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Proc("f")
	var cont *ContinuationStmt
	var call *CallStmt
	for _, s := range f.Body {
		switch s := s.(type) {
		case *ContinuationStmt:
			cont = s
		case *CallStmt:
			call = s
		}
	}
	if cont == nil || cont.Name != "k" || len(cont.Formals) != 1 || cont.Formals[0] != "x" {
		t.Fatalf("continuation parse: %+v", cont)
	}
	if call == nil || len(call.Annots.CutsTo) != 1 || call.Annots.CutsTo[0] != "k" {
		t.Fatalf("call annotation parse: %+v", call)
	}
}

func TestParseContinuationWithoutParens(t *testing.T) {
	// The paper writes "continuation k2:" with no parameter list.
	src := `
f() {
    return ();
continuation k2:
    return ();
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var cont *ContinuationStmt
	for _, s := range prog.Procs[0].Body {
		if c, ok := s.(*ContinuationStmt); ok {
			cont = c
		}
	}
	if cont == nil || cont.Name != "k2" || len(cont.Formals) != 0 {
		t.Fatalf("got %+v", cont)
	}
}

func TestParseFullAnnotationSet(t *testing.T) {
	// §4.4's complete example.
	src := `
f(bits32 x) {
    bits32 r;
    r = g(x) also cuts to k1
             also unwinds to k2, k3
             also returns to k4
             also aborts;
    return (r);
continuation k1():
    return (1);
continuation k2():
    return (2);
continuation k3():
    return (3);
continuation k4():
    return (4);
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	call := prog.Procs[0].Body[1].(*CallStmt)
	a := call.Annots
	if len(a.CutsTo) != 1 || a.CutsTo[0] != "k1" {
		t.Errorf("cuts to: %v", a.CutsTo)
	}
	if len(a.UnwindsTo) != 2 || a.UnwindsTo[0] != "k2" || a.UnwindsTo[1] != "k3" {
		t.Errorf("unwinds to: %v", a.UnwindsTo)
	}
	if len(a.ReturnsTo) != 1 || a.ReturnsTo[0] != "k4" {
		t.Errorf("returns to: %v", a.ReturnsTo)
	}
	if !a.Aborts {
		t.Error("aborts not set")
	}
}

func TestParseAlternateReturns(t *testing.T) {
	src := `
g(bits32 x) {
    if x == 0 {
        return <0/2> (x);
    }
    if x == 1 {
        return <1/2> (x);
    }
    return <2/2> (x);
}
caller(bits32 x) {
    bits32 r;
    r = g(x) also returns to k0, k1;
    return (r);
continuation k0(x):
    return (x);
continuation k1(x):
    return (x);
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Proc("g")
	r0 := g.Body[0].(*IfStmt).Then[0].(*ReturnStmt)
	if r0.Index != 0 || r0.Arity != 2 || r0.Normal() {
		t.Errorf("return <0/2>: got %d/%d normal=%v", r0.Index, r0.Arity, r0.Normal())
	}
	rn := g.Body[2].(*ReturnStmt)
	if rn.Index != 2 || rn.Arity != 2 || !rn.Normal() {
		t.Errorf("return <2/2>: got %d/%d normal=%v", rn.Index, rn.Arity, rn.Normal())
	}
}

func TestParseReturnIndexTooBig(t *testing.T) {
	_, err := Parse(`f() { return <3/2> (); }`)
	if err == nil {
		t.Fatal("expected error for return <3/2>")
	}
}

func TestParseMemoryAccess(t *testing.T) {
	src := `
f(bits32 x, bits32 y) {
    bits32[x] = bits32[y] + 1;
    return ();
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	asg := prog.Procs[0].Body[0].(*AssignStmt)
	mem, ok := asg.LHS[0].(*MemExpr)
	if !ok || mem.Type().Width != 32 {
		t.Fatalf("store target: %#v", asg.LHS[0])
	}
	bin, ok := asg.RHS[0].(*BinExpr)
	if !ok || bin.Op != PLUS {
		t.Fatalf("rhs: %#v", asg.RHS[0])
	}
	if _, ok := bin.X.(*MemExpr); !ok {
		t.Fatalf("rhs load: %#v", bin.X)
	}
}

func TestParsePrimitives(t *testing.T) {
	src := `
divide(bits32 p, bits32 q) {
    bits32 r;
    r = %%divu(p, q) also unwinds to dz;
    return (%divu(r, 2));
continuation dz():
    return (0);
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	call := prog.Procs[0].Body[1].(*CallStmt)
	if call.Solid != "divu" {
		t.Errorf("solid primitive: %q", call.Solid)
	}
	ret := prog.Procs[0].Body[2].(*ReturnStmt)
	pe, ok := ret.Results[0].(*PrimExpr)
	if !ok || pe.Name != "divu" {
		t.Errorf("fast primitive: %#v", ret.Results[0])
	}
}

func TestParseGlobalsAndData(t *testing.T) {
	src := `
bits32 next;
bits32 exn_top = 0;
section "data" {
    msg: "Not enough tiles";
    tbl: bits32 1, 2, 3;
    buf: bits8[16];
}
f() { return (); }
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Globals) != 2 {
		t.Fatalf("globals: %d", len(prog.Globals))
	}
	if prog.Globals[1].Init == nil {
		t.Error("exn_top init missing")
	}
	if len(prog.Data) != 1 || len(prog.Data[0].Items) != 3 {
		t.Fatalf("data: %+v", prog.Data)
	}
	items := prog.Data[0].Items
	if !items[0].IsStr || items[0].Str != "Not enough tiles" {
		t.Errorf("string datum: %+v", items[0])
	}
	if len(items[1].Values) != 3 {
		t.Errorf("table datum: %+v", items[1])
	}
	if items[2].Reserve != 16 {
		t.Errorf("reserved datum: %+v", items[2])
	}
}

func TestParseComputedGoto(t *testing.T) {
	src := `
f(bits32 x) {
    goto x targets a, b;
a:
    return (1);
b:
    return (2);
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Procs[0].Body[0].(*GotoStmt)
	if len(g.Targets) != 2 {
		t.Fatalf("targets: %v", g.Targets)
	}
}

func TestParseYield(t *testing.T) {
	src := `
f() {
    yield(42) also unwinds to k also aborts;
    return ();
continuation k():
    return ();
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	y := prog.Procs[0].Body[0].(*YieldStmt)
	if len(y.Args) != 1 || !y.Annots.Aborts || len(y.Annots.UnwindsTo) != 1 {
		t.Fatalf("yield: %+v", y)
	}
}

func TestParseDescriptors(t *testing.T) {
	src := `
f() {
    g() also unwinds to k descriptors(d1, d2);
    return ();
continuation k():
    return ();
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	call := prog.Procs[0].Body[0].(*CallStmt)
	if len(call.Annots.Descriptors) != 2 {
		t.Fatalf("descriptors: %+v", call.Annots)
	}
}

func TestParsePrecedence(t *testing.T) {
	src := `f(bits32 a, bits32 b, bits32 c) { return (a + b * c); }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e := prog.Procs[0].Body[0].(*ReturnStmt).Results[0].(*BinExpr)
	if e.Op != PLUS {
		t.Fatalf("top op: %s", e.Op)
	}
	if inner, ok := e.Y.(*BinExpr); !ok || inner.Op != STAR {
		t.Fatalf("inner: %#v", e.Y)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"f() { return ()",              // missing ; and }
		"f( { }",                       // bad formals
		"f() { x = ; }",                // missing expression
		"f() { 1 = x; }",               // bad lvalue
		"f() { x, 1 = g(); }",          // bad lvalue in list
		"f() { goto; }",                // missing target
		"f() { cut k(); }",             // missing "to"
		"f() { g() also flies; }",      // bad annotation
		"section data { }",             // section name must be a string
		"f() { x, y = a, b, c; }",      // arity mismatch
		"bits32;",                      // global without name
		`section "d" { x: bits32; }`,   // datum without values
		`section "d" { x: wibble 1; }`, // not a type
		// A lexer error must end the parse: these two once recursed
		// until the goroutine stack overflowed.
		"f() { g(0e); }",
		"A(){return();return(!\xff",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	// Printing a parsed program and reparsing it must give the same print.
	srcs := []string{figure1, `
bits32 g;
section "data" { m: "hi"; t: bits32 1, 2; r: bits8[4]; }
f(bits32 x) {
    bits32 r;
    r = h(x) also cuts to k1 also unwinds to k2 also aborts descriptors(m);
    bits32[x] = r;
    if x > 1 && x < 10 {
        jump f(x - 1);
    } else {
        cut to k1(r) also aborts;
    }
continuation k1(r):
    yield(1) also aborts;
    return (r);
continuation k2(r):
    return <0/1> (%divu(r, 2));
}
`}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		text1 := p1.String()
		p2, err := Parse(text1)
		if err != nil {
			t.Fatalf("reparse failed: %v\nsource:\n%s", err, text1)
		}
		text2 := p2.String()
		if text1 != text2 {
			t.Errorf("round trip mismatch:\n--- first\n%s\n--- second\n%s", text1, text2)
		}
	}
}

func TestParseCallToStringArgument(t *testing.T) {
	// Figure 8 calls a method with a string literal argument.
	src := `f(bits32 t) { t("Not enough tiles"); return (); }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	call := prog.Procs[0].Body[0].(*CallStmt)
	if _, ok := call.Args[0].(*StrLit); !ok {
		t.Fatalf("arg: %#v", call.Args[0])
	}
}

func TestParseChainedElseIf(t *testing.T) {
	src := `
f(bits32 x) {
    if x == 1 {
        return (1);
    } else if x == 2 {
        return (2);
    } else {
        return (3);
    }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.Procs[0].Body[0].(*IfStmt)
	inner, ok := outer.Else[0].(*IfStmt)
	if !ok || len(inner.Else) != 1 {
		t.Fatalf("else-if chain: %#v", outer.Else)
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := Parse("f() {\n  x = ;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error lacks line 2 position: %v", err)
	}
}
