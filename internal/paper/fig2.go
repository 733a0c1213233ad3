package paper

import (
	"fmt"
	"strings"
)

// This file holds the Figure 2 scenario — one benchmark program per
// point in the paper's design space of control transfer for exceptions —
// plus the Figures 3/4 alternate-return program and the §2 setjmp cost
// model. All share one shape: build a stack of depth d, then raise back
// to a handler at the bottom. Cutting mechanisms dispatch in constant
// time; unwinding mechanisms pay per frame. They are shared by the root
// benchmarks, the observability golden tests, and the EXPERIMENTS.md
// tables that TestExperimentsTables checks.

// Fig2Cut raises by cutting the stack directly from generated code
// (`cut to`, the in-code variant of stack cutting).
const Fig2Cut = `
f(bits32 depth) {
    bits32 r;
    r = dig(depth, k) also cuts to k;
    return (r);
continuation k(r):
    return (r);
}
dig(bits32 n, bits32 kv) {
    bits32 r;
    if n == 0 {
        cut to kv(42) also aborts;
    }
    r = dig(n - 1, kv) also aborts;
    return (r);
}
`

// Fig2RuntimeCut raises through the run-time system: the program parks a
// handler continuation in a global, yields, and the register dispatcher
// cuts to it (SetCutToCont).
const Fig2RuntimeCut = `
bits32 handler;
f(bits32 depth) {
    bits32 tag, arg;
    handler = k;
    arg = dig(depth) also cuts to k;
    return (arg);
continuation k(tag, arg):
    return (arg);
}
dig(bits32 n) {
    bits32 r;
    if n == 0 {
        yield(1, 7, 42) also aborts;
    }
    r = dig(n - 1) also aborts;
    return (r);
}
`

// Fig2RuntimeUnwind raises through the Figure 9 dispatcher: it walks
// activations reading descriptors and unwinds to the matching handler
// (SetUnwindCont). Dispatch cost is linear in depth.
const Fig2RuntimeUnwind = `
section "data" {
    desc: bits32 1,  7, 0, 1;
}
f(bits32 depth) {
    bits32 r;
    r = dig(depth) also unwinds to k also aborts descriptors(desc);
    return (r);
continuation k(r):
    return (r);
}
dig(bits32 n) {
    bits32 r;
    if n == 0 {
        yield(1, 7, 42) also aborts;
    }
    r = dig(n - 1) also aborts;
    return (r);
}
`

// Fig2NativeUnwind unwinds in compiled code via alternate returns
// (`return <m/n>`, §4.2): every frame participates, no run-time system.
const Fig2NativeUnwind = `
f(bits32 depth) {
    bits32 r;
    r = dig(depth) also returns to k;
    return (r);
continuation k(r):
    return (r);
}
dig(bits32 n) {
    bits32 r;
    if n == 0 {
        return <0/1> (42);
    }
    r = dig(n - 1) also returns to kx;
    return <1/1> (r);
continuation kx(r):
    return <0/1> (r);
}
`

// Fig2CPS passes the handler as an explicit continuation-procedure
// argument and raises with a tail call (continuation-passing style).
const Fig2CPS = `
f(bits32 depth) {
    bits32 r;
    r = dig(depth, hproc);
    return (r);
}
hproc(bits32 arg) {
    return (arg);
}
dig(bits32 n, bits32 h) {
    bits32 r;
    if n == 0 {
        jump h(42);
    }
    r = dig(n - 1, h);
    return (r);
}
`

// Fig34 is the Figures 3/4 program: g returns normally in a loop, so
// the normal case dominates and the branch-table method's zero dynamic
// overhead shows against test-and-branch's compare per alternate.
const Fig34 = `
g(bits32 x) {
    if x == 1000000 {
        return <0/2> (x);
    }
    if x == 2000000 {
        return <1/2> (x);
    }
    return <2/2> (x);
}
f(bits32 n) {
    bits32 i, r;
    i = 0; r = 0;
loop:
    if i == n {
        return (r);
    }
    r = g(i) also returns to k0, k1;
    i = i + 1;
    goto loop;
continuation k0(r):
    return (r);
continuation k1(r):
    return (r);
}
`

// SetjmpSrc models §2's setjmp scope-entry cost: each handler scope
// saves a jmp_buf of the given number of words (6 on Pentium/Linux, 19
// on SPARC/Solaris, 84 on Alpha/OSF) before the protected call, one
// store per word, exactly as setjmp does. Compare NativeCutScope.
func SetjmpSrc(words int) string {
	var sb strings.Builder
	sb.WriteString(`
enter(bits32 n, bits32 buf) {
    bits32 i, r;
    i = 0; r = 0;
loop:
    if i == n { return (r); }
    r = scope(i, buf) also aborts;
    i = i + 1;
    goto loop;
}
leaf(bits32 x) { return (x); }
scope(bits32 x, bits32 buf) {
    bits32 r;
`)
	// One store per jmp_buf word, as setjmp does on scope entry.
	for w := 0; w < words; w++ {
		fmt.Fprintf(&sb, "    bits32[buf + %d] = x;\n", 4*w)
	}
	sb.WriteString(`
    r = leaf(x) also aborts;
    return (r);
}
`)
	return sb.String()
}

// SetjmpWords gives the jmp_buf size in words for the three platforms
// the paper quotes in §2.
var SetjmpWords = map[string]int{
	"pentium": 6,
	"sparc":   19,
	"alpha":   84,
}
