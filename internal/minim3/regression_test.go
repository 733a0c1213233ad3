package minim3

import (
	"testing"

	"cmm/internal/pipeline"
)

// TestCalleeSavesAcrossCutRegression pins the fix for a subtle
// stack-cutting bug: when a raise cuts past an intermediate frame that
// had spilled a callee-saves register, the spilled value is lost with
// the frame; the procedure containing the handler must restore the FULL
// callee-saves bank from its own frame so that its caller's registers
// survive (§2: "these values may be distributed throughout the stack").
// Before the fix, `a` in the caller came back holding the callee's
// scratch value after the second raise.
func TestCalleeSavesAcrossCutRegression(t *testing.T) {
	src := `
var next;
exception BadMove;
exception NoMoreTiles;
proc getMove(which) {
    if which % 13 == 1 { raise BadMove(which); }
    if which % 13 == 2 { raise NoMoreTiles; }
    return which * 2;
}
proc tryAMove(which) {
    try {
        getMove(which);
        next = (next + 1) % 4;
    } except BadMove(why) {
        next = 1000 + why;
    } except NoMoreTiles {
        next = 2000;
    }
    return next;
}
proc play3() {
    var a;
    a = tryAMove(0);      // a lives in a callee-saves register ...
    a = a + tryAMove(1);  // ... across calls whose subtrees cut
    a = a + tryAMove(2);
    return a;
}
`
	want := [2]uint64{0, 1 + 1001 + 2000}
	for _, be := range []Backend{BackendSem, BackendVM} {
		r, err := NewRunner(src, PolicyCutting, be)
		if err != nil {
			t.Fatal(err)
		}
		status, value, err := r.Call("play3")
		if err != nil {
			t.Fatal(err)
		}
		if [2]uint64{status, value} != want {
			t.Errorf("backend %d: play3 = (%d,%d), want %v", be, status, value, want)
		}
	}
}

// TestPolicyEquivalenceStateful drives a stateful loop (globals mutated
// across many TRY scopes and raises) through every policy and backend.
func TestPolicyEquivalenceStateful(t *testing.T) {
	src := `
var next;
var movesTried;
exception BadMove;
exception NoMoreTiles;
proc getMove(which) {
    if which % 13 == 1 { raise BadMove(which); }
    if which % 13 == 2 { raise NoMoreTiles; }
    return which * 2;
}
proc makeMove(m) { return m + 1; }
proc tryAMove(which) {
    try {
        makeMove(getMove(which));
        next = (next + 1) % 4;
    } except BadMove(why) {
        next = 1000 + why;
    } except NoMoreTiles {
        next = 2000;
    }
    movesTried = movesTried + 1;
    return next;
}
proc playGame(rounds) {
    var i;
    var acc;
    i = 0;
    acc = 0;
    while i < rounds {
        acc = acc + tryAMove(i);
        i = i + 1;
    }
    return acc;
}
`
	var want [2]uint64
	first := true
	for _, pol := range Policies {
		for _, be := range []Backend{BackendSem, BackendVM} {
			r, err := NewRunner(src, pol, be)
			if err != nil {
				t.Fatalf("%s/%d: %v", pol, be, err)
			}
			status, value, err := r.Call("playGame", 100)
			if err != nil {
				t.Fatalf("%s/%d: %v", pol, be, err)
			}
			got := [2]uint64{status, value}
			if first {
				want, first = got, false
			} else if got != want {
				t.Errorf("%s/%d: playGame(100) = %v, want %v", pol, be, got, want)
			}
		}
	}
}

// TestTryFinally: the finalizer runs exactly once on every path —
// normal, handled-exception, and escaping-exception — under every
// policy and backend.
func TestTryFinally(t *testing.T) {
	src := `
var log;
exception E;
proc work(mode) {
    if mode == 1 { raise E(5); }
    return mode * 10;
}
proc f(mode) {
    var r;
    r = 0;
    try {
        try {
            r = work(mode);
        } finally {
            log = log + 1;
        }
    } except E(v) {
        r = 100 + v;
    }
    return r * 1000 + log;
}
proc nestedFin(mode) {
    try {
        try {
            if mode == 1 { raise E(9); }
            log = log + 10;
        } finally {
            log = log + 1;
        }
    } except E(v) {
        log = log + 100;
    }
    return log;
}
`
	cases := []struct {
		proc string
		arg  uint64
		want uint64
	}{
		{"f", 0, 0*1000*0 + 0*10*1000 + 1}, // r=0*10=0 -> 0*1000+log(1)=1
		{"f", 2, 20*1000 + 1},              // normal: fin ran once
		{"f", 1, 105*1000 + 1},             // handled: fin ran once, then handler
		{"nestedFin", 0, 11},               // body + fin
		{"nestedFin", 1, 101},              // fin + outer handler
	}
	for _, pol := range Policies {
		for _, be := range []Backend{BackendSem, BackendVM} {
			for _, c := range cases {
				r, err := NewRunner(src, pol, be)
				if err != nil {
					t.Fatalf("%s/%d: %v", pol, be, err)
				}
				status, value, err := r.Call(c.proc, c.arg)
				if err != nil {
					t.Fatalf("%s/%d %s(%d): %v\n%s", pol, be, c.proc, c.arg, err, r.CmmSrc)
				}
				if status != 0 || value != c.want {
					t.Errorf("%s/%d: %s(%d) = (%d,%d), want (0,%d)",
						pol, be, c.proc, c.arg, status, value, c.want)
				}
			}
		}
	}
}

// TestTryFinallyEscapes: an unhandled exception still runs the finalizer
// on its way out.
func TestTryFinallyEscapes(t *testing.T) {
	src := `
var cleaned;
exception E;
proc f() {
    try {
        raise E(3);
    } finally {
        cleaned = cleaned + 1;
    }
    return 0;
}
proc probe() { return cleaned; }
`
	for _, pol := range Policies {
		for _, be := range []Backend{BackendSem, BackendVM} {
			r, err := NewRunner(src, pol, be)
			if err != nil {
				t.Fatal(err)
			}
			status, value, err := r.Call("f")
			if err != nil {
				t.Fatalf("%s/%d: %v\n%s", pol, be, err, r.CmmSrc)
			}
			if status != 1001 || value != 3 {
				t.Errorf("%s/%d: escape = (%d,%d), want (1001,3)", pol, be, status, value)
			}
			_, cleaned, err := r.Call("probe")
			if err != nil {
				t.Fatal(err)
			}
			if cleaned != 1 {
				t.Errorf("%s/%d: finalizer ran %d times, want 1", pol, be, cleaned)
			}
		}
	}
}

// TestTryFinallyReturnRejected: the documented restriction.
func TestTryFinallyReturnRejected(t *testing.T) {
	src := `
proc f() {
    try {
        return 1;
    } finally {
        f();
    }
    return 0;
}
`
	if _, err := Compile(src, PolicyCutting); err == nil {
		t.Fatal("expected return-inside-finally error")
	}
}

// TestLexerRejectsNonASCIILetter pins the fix for a lexer that started an
// identifier on any Latin-1 letter byte but consumed only ASCII word
// bytes, emitting empty identifiers until memory ran out.
func TestLexerRejectsNonASCIILetter(t *testing.T) {
	if _, err := NewSession("proc e(\xff", PolicyCutting, CompileOptions{}, pipeline.Config{}); err == nil {
		t.Fatal("expected a diagnostic for a non-ASCII byte")
	}
}
