// Package progen generates random, well-formed, terminating C--
// programs for property-based testing: the abstract machine and the
// compiled machine must agree on every generated program, optimization
// must preserve behavior, and SSA invariants must hold.
//
// Generated programs are deterministic and terminate: calls only go
// "downward" in the procedure list, and every loop counts a counter down
// from at most 4 that its own body only reads. Every local is
// initialized before use, and divisions guard their divisors.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Diverging is a fixed program in the generator's shape (globals gv0
// and gv1, entry "p0" taking one bits32 argument) whose loop never
// exits. Generate never produces such a program, so the differential
// tests run this one on purpose: it keeps the step caps, instruction
// budgets and truncated-trace comparisons that would catch a looping
// generated program exercised. -O2 folds v0 + 1, so an optimized run
// gets further before its budget runs out.
const Diverging = `bits32 gv0 = 1;
bits32 gv1 = 2;
p0(bits32 x) {
    bits32 v0, v1;
    v0 = 3;
loop:
    v1 = v0 + 1;
    x = p1(x + v1);
    gv0 = gv0 + x;
    goto loop;
}
p1(bits32 x) {
    return (x + gv1);
}
`

// Config bounds the generator.
type Config struct {
	Procs      int  // number of procedures (default 3)
	MaxStmts   int  // statements per block (default 5)
	MaxDepth   int  // nesting depth (default 2)
	Exceptions bool // include continuations and cuts
}

// Generate produces a C-- program from the seed. The entry procedure is
// "p0" and takes one bits32 argument.
func Generate(seed int64, cfg Config) string {
	if cfg.Procs == 0 {
		cfg.Procs = 3
	}
	if cfg.MaxStmts == 0 {
		cfg.MaxStmts = 5
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 2
	}
	g := &gen{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
	return g.program()
}

type gen struct {
	rng *rand.Rand
	cfg Config
	sb  strings.Builder

	proc     int             // index of the procedure being generated
	vars     []string        // variables certainly initialized at this point
	counters map[string]bool // this procedure's loop counters
	loops    int
	contName string // nonempty when this proc declares a continuation
}

func (g *gen) pick(n int) int { return g.rng.Intn(n) }

func (g *gen) program() string {
	fmt.Fprintf(&g.sb, "bits32 gv0 = 1;\nbits32 gv1 = 2;\n")
	for p := 0; p < g.cfg.Procs; p++ {
		g.genProc(p)
	}
	return g.sb.String()
}

// genProc emits procedure p, which may call only procedures with larger
// indices (so the call graph is a DAG and every program terminates).
func (g *gen) genProc(p int) {
	g.proc = p
	g.vars = []string{"x"}
	g.counters = map[string]bool{}
	g.loops = 0
	g.contName = ""
	fmt.Fprintf(&g.sb, "p%d(bits32 x) {\n", p)
	// Declare and initialize a few locals.
	nLocals := 2 + g.pick(3)
	names := make([]string, nLocals)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	fmt.Fprintf(&g.sb, "    bits32 %s;\n", strings.Join(names, ", "))
	hasCont := g.cfg.Exceptions && p < g.cfg.Procs-1 && g.pick(2) == 0
	if hasCont {
		g.contName = fmt.Sprintf("h%d", p)
		fmt.Fprintf(&g.sb, "    bits32 ex0;\n")
	}
	for _, n := range names {
		fmt.Fprintf(&g.sb, "    %s = %s;\n", n, g.expr(1))
		g.vars = append(g.vars, n)
	}
	// The handler may run after a cut from any call site in the body, so
	// it may only read variables initialized BEFORE the body: generate
	// its expression against the prologue-initialized set.
	handlerExpr := ""
	if hasCont {
		handlerExpr = g.expr(1)
	}
	g.block(1)
	fmt.Fprintf(&g.sb, "    return (%s);\n", g.expr(2))
	if hasCont {
		fmt.Fprintf(&g.sb, "continuation %s(ex0):\n", g.contName)
		fmt.Fprintf(&g.sb, "    return (ex0 + %s);\n", handlerExpr)
	}
	fmt.Fprintf(&g.sb, "}\n")
	// The last procedure under Exceptions is the "raiser": it cuts to a
	// continuation argument when its input is even.
	if g.cfg.Exceptions && p == g.cfg.Procs-1 {
		fmt.Fprintf(&g.sb, "raiser(bits32 x, bits32 kv) {\n")
		fmt.Fprintf(&g.sb, "    if (x & 1) == 0 {\n")
		fmt.Fprintf(&g.sb, "        cut to kv(x + 100) also aborts;\n")
		fmt.Fprintf(&g.sb, "    }\n")
		fmt.Fprintf(&g.sb, "    return (x);\n}\n")
	}
}

// target picks the variable an assignment writes: an initialized local,
// never the formal x and never a loop counter, which only its own loop
// writes, so that every loop runs at most its counter's initial value
// of rounds.
func (g *gen) target() string {
	var vs []string
	for _, v := range g.vars[1:] {
		if !g.counters[v] {
			vs = append(vs, v)
		}
	}
	return vs[g.pick(len(vs))]
}

func (g *gen) block(depth int) {
	n := 1 + g.pick(g.cfg.MaxStmts)
	for i := 0; i < n; i++ {
		g.stmt(depth)
	}
}

func (g *gen) stmt(depth int) {
	choice := g.pick(10)
	switch {
	case choice < 4: // assignment
		fmt.Fprintf(&g.sb, "    %s = %s;\n", g.target(), g.expr(2))
	case choice < 5: // global update
		fmt.Fprintf(&g.sb, "    gv%d = %s;\n", g.pick(2), g.expr(2))
	case choice < 6 && depth < g.cfg.MaxDepth: // if
		fmt.Fprintf(&g.sb, "    if %s {\n", g.expr(2))
		mark := len(g.vars)
		g.block(depth + 1)
		g.vars = g.vars[:mark] // conditionally-initialized vars go out of scope
		if g.pick(2) == 0 {
			fmt.Fprintf(&g.sb, "    } else {\n")
			g.block(depth + 1)
			g.vars = g.vars[:mark]
		}
		fmt.Fprintf(&g.sb, "    }\n")
	case choice < 7 && depth < g.cfg.MaxDepth: // bounded loop
		g.loops++
		ctr := fmt.Sprintf("c%d_%d", depth, g.loops)
		lbl := fmt.Sprintf("L%d_%d_%d", g.proc, depth, g.loops)
		fmt.Fprintf(&g.sb, "    bits32 %s;\n", ctr)
		fmt.Fprintf(&g.sb, "    %s = %d;\n", ctr, 1+g.pick(4))
		fmt.Fprintf(&g.sb, "%s:\n", lbl)
		fmt.Fprintf(&g.sb, "    if %s > 0 {\n", ctr)
		g.vars = append(g.vars, ctr)
		g.counters[ctr] = true
		mark := len(g.vars)
		g.block(depth + 1)
		g.vars = g.vars[:mark]
		fmt.Fprintf(&g.sb, "    %s = %s - 1;\n", ctr, ctr)
		fmt.Fprintf(&g.sb, "    goto %s;\n", lbl)
		fmt.Fprintf(&g.sb, "    }\n")
		g.vars = g.vars[:mark-1] // the counter itself is loop-local
	case choice < 9 && g.proc+1 < g.cfg.Procs: // call a later procedure
		callee := g.proc + 1 + g.pick(g.cfg.Procs-g.proc-1)
		fmt.Fprintf(&g.sb, "    %s = p%d(%s) also aborts;\n", g.target(), callee, g.expr(2))
	case choice < 10 && g.contName != "": // exceptional call to the raiser
		fmt.Fprintf(&g.sb, "    %s = raiser(%s, %s) also cuts to %s also aborts;\n",
			g.target(), g.expr(2), g.contName, g.contName)
	default:
		fmt.Fprintf(&g.sb, "    %s = %s;\n", g.target(), g.expr(2))
	}
}

var binOps = []string{"+", "-", "*", "&", "|", "^", "==", "!=", "<", "<=", ">", ">="}

func (g *gen) expr(depth int) string {
	if depth <= 0 || g.pick(3) == 0 {
		switch g.pick(4) {
		case 0:
			return fmt.Sprintf("%d", g.pick(100))
		case 1:
			return fmt.Sprintf("gv%d", g.pick(2))
		default:
			return g.vars[g.pick(len(g.vars))]
		}
	}
	switch g.pick(8) {
	case 0: // guarded division
		return fmt.Sprintf("(%s / (%s | 1))", g.expr(depth-1), g.expr(depth-1))
	case 1: // guarded remainder
		return fmt.Sprintf("(%s %% (%s | 1))", g.expr(depth-1), g.expr(depth-1))
	case 2:
		return fmt.Sprintf("(-%s)", g.expr(depth-1))
	case 3:
		return fmt.Sprintf("(~%s)", g.expr(depth-1))
	default:
		op := binOps[g.pick(len(binOps))]
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
	}
}
