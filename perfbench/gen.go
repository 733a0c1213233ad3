package main

// The compile workload's programs come from this generator, not from
// internal/progen: the workload must not change when progen does. Each
// program is a main procedure that calls a series of exception
// "chains". A chain is an entry procedure holding a handler plus a
// straight call path of distinct procedures, each of which runs a short
// counted loop before calling the next. The loops call a leaf, step,
// at sites annotated "also aborts" that the -O2 interprocedural pass can
// prove quiet. The deepest procedure either returns normally or raises
// back to the entry, through one of the paper's four mechanisms. The
// generator knows every constant it emits, so it computes main's result
// itself: that value is the workload's oracle, independent of the
// compiler under test.

import (
	"fmt"
	"math/rand"
	"strings"
)

// mechanism is one of the paper's four ways to transfer control to a
// handler (Figure 2).
type mechanism int

const (
	mechCut        mechanism = iota // `cut to` a continuation passed as a value
	mechRuntimeCut                  // yield; the register dispatcher cuts (SetCutToCont)
	mechUnwind                      // yield; the unwind dispatcher walks descriptors (SetUnwindCont)
	mechReturnMN                    // alternate returns, `return <m/n>`
	numMechanisms
)

// Yield tags: the descriptor in generated programs handles tagUnwind;
// tagCut is routed to the register dispatcher (see newGenDispatcher).
const (
	tagUnwind = 7
	tagCut    = 8
)

// genProgram is one generated compile input with its expected result.
type genProgram struct {
	Src   string
	Arg   uint64 // main's argument
	Want  uint64 // main's expected first result
	Procs int    // procedures in Src
}

// level is one procedure on a chain's call path.
type level struct {
	loops  uint32 // iterations of its counted loop
	a, b   uint32 // the loop's step is a+b, written unfolded for the optimizer
	addend uint32 // added to the callee's result on a normal return
}

// loopSum is what a level's loop accumulates: sum over i < loops of i+a+b.
func (l level) loopSum() uint32 {
	return l.loops*(l.loops-1)/2 + l.loops*(l.a+l.b)
}

// chain is one handler scope and the call path below it.
type chain struct {
	mech   mechanism
	levels []level
	limit  uint32 // the deepest level raises when its value exceeds limit
	tail   uint32 // added by the deepest level on a normal return
}

// generate builds a program of exactly procs procedures (procs >= 4)
// from seed. The same (seed, procs) always gives byte-identical source.
func generate(seed int64, procs int) genProgram {
	rng := rand.New(rand.NewSource(seed))
	// Values stay small and positive, so signed and unsigned compares
	// agree and the limit below never wraps.
	arg := uint32(16 + rng.Intn(1000))
	first := mechanism(rng.Intn(int(numMechanisms)))

	var chains []chain
	for left := procs - 2; left > 0; { // all but main and step
		// A chain is its entry plus 1..6 levels; never leave a single
		// procedure over, since a chain needs at least two.
		n := 2 + rng.Intn(6)
		if n > left || left-n == 1 {
			n = left
		}
		left -= n
		c := chain{mech: (first + mechanism(len(chains))) % numMechanisms, tail: uint32(rng.Intn(10))}
		for i := 0; i < n-1; i++ {
			c.levels = append(c.levels, level{
				loops:  uint32(rng.Intn(13)),
				a:      uint32(rng.Intn(10)),
				b:      uint32(rng.Intn(10)),
				addend: uint32(rng.Intn(10)),
			})
		}
		// Pick the limit against the value the deepest level will see,
		// so that about half of the chains raise.
		w := deepestValue(arg+uint32(len(chains)), c.levels)
		if rng.Intn(2) == 0 {
			c.limit = w - 1 - uint32(rng.Intn(5))
		} else {
			c.limit = w + uint32(rng.Intn(5))
		}
		chains = append(chains, c)
	}

	var want uint32
	for j, c := range chains {
		want += c.result(arg + uint32(j))
	}
	return genProgram{Src: render(chains), Arg: uint64(arg), Want: uint64(want), Procs: procs}
}

// deepestValue is the value the deepest level compares with the limit
// when the chain's entry receives x.
func deepestValue(x uint32, levels []level) uint32 {
	for _, l := range levels {
		x += l.loopSum()
	}
	return x
}

// result is what the chain's entry returns when it receives x.
func (c chain) result(x uint32) uint32 {
	w := deepestValue(x, c.levels)
	if w > c.limit {
		return w + 200 // raised to the handler, which adds 200
	}
	r := w + c.tail
	for _, l := range c.levels[:len(c.levels)-1] {
		r += l.addend
	}
	return r + 100 // normal return through the entry, which adds 100
}

func render(chains []chain) string {
	var b strings.Builder
	for _, c := range chains {
		if c.mech == mechUnwind {
			fmt.Fprintf(&b, "section \"data\" {\n    desc: bits32 1, %d, 0, 1;\n}\n", tagUnwind)
			break
		}
	}
	for _, c := range chains {
		if c.mech == mechRuntimeCut {
			b.WriteString("bits32 handler;\n")
			break
		}
	}
	b.WriteString("main(bits32 x) {\n    bits32 acc, r;\n    acc = 0;\n")
	for j := range chains {
		fmt.Fprintf(&b, "    r = c%d(x + %d);\n    acc = acc + r;\n", j, j)
	}
	b.WriteString("    return (acc);\n}\n")
	b.WriteString("step(bits32 s, bits32 i, bits32 u) {\n    return (s + i + u);\n}\n")
	for j, c := range chains {
		c.render(&b, j)
	}
	return b.String()
}

func (c chain) render(b *strings.Builder, j int) {
	first := fmt.Sprintf("c%d_1", j)
	fmt.Fprintf(b, "c%d(bits32 x) {\n", j)
	switch c.mech {
	case mechCut:
		fmt.Fprintf(b, "    bits32 r;\n    r = %s(x, k) also cuts to k;\n", first)
		b.WriteString("    return (r + 100);\ncontinuation k(r):\n    return (r + 200);\n")
	case mechRuntimeCut:
		fmt.Fprintf(b, "    bits32 r, tag, arg;\n    handler = k;\n    r = %s(x) also cuts to k;\n", first)
		b.WriteString("    return (r + 100);\ncontinuation k(tag, arg):\n    return (arg + 200);\n")
	case mechUnwind:
		fmt.Fprintf(b, "    bits32 r;\n    r = %s(x) also unwinds to k also aborts descriptors(desc);\n", first)
		b.WriteString("    return (r + 100);\ncontinuation k(r):\n    return (r + 200);\n")
	case mechReturnMN:
		fmt.Fprintf(b, "    bits32 r;\n    r = %s(x) also returns to k;\n", first)
		b.WriteString("    return (r + 100);\ncontinuation k(r):\n    return (r + 200);\n")
	}
	b.WriteString("}\n")
	for i, l := range c.levels {
		c.renderLevel(b, j, i+1, l, i == len(c.levels)-1)
	}
}

func (c chain) renderLevel(b *strings.Builder, j, i int, l level, deepest bool) {
	params := "bits32 v"
	if c.mech == mechCut {
		params += ", bits32 kv"
	}
	fmt.Fprintf(b, "c%d_%d(%s) {\n    bits32 r, i, s, t, u, w;\n", j, i, params)
	fmt.Fprintf(b, "    i = 0; s = 0;\n    t = %d + %d;\n    u = t;\nloop:\n    if i == %d {\n", l.a, l.b, l.loops)
	normal := func(e string) string {
		if c.mech == mechReturnMN {
			return "return <1/1> (" + e + ");"
		}
		return "return (" + e + ");"
	}
	if deepest {
		fmt.Fprintf(b, "        w = v + s;\n        if w > %d {\n            ", c.limit)
		switch c.mech {
		case mechCut:
			b.WriteString("cut to kv(w) also aborts;")
		case mechRuntimeCut:
			fmt.Fprintf(b, "yield(1, %d, w) also aborts;", tagCut)
		case mechUnwind:
			fmt.Fprintf(b, "yield(1, %d, w) also aborts;", tagUnwind)
		case mechReturnMN:
			b.WriteString("return <0/1> (w);")
		}
		fmt.Fprintf(b, "\n        }\n        %s\n", normal(fmt.Sprintf("w + %d", c.tail)))
	} else {
		callee := fmt.Sprintf("c%d_%d", j, i+1)
		switch c.mech {
		case mechCut:
			fmt.Fprintf(b, "        r = %s(v + s, kv) also aborts;\n", callee)
		case mechReturnMN:
			fmt.Fprintf(b, "        r = %s(v + s) also returns to kx;\n", callee)
		default:
			fmt.Fprintf(b, "        r = %s(v + s) also aborts;\n", callee)
		}
		fmt.Fprintf(b, "        %s\n", normal(fmt.Sprintf("r + %d", l.addend)))
	}
	b.WriteString("    }\n    s = step(s, i, u) also aborts;\n    i = i + 1;\n    goto loop;\n")
	if c.mech == mechReturnMN && !deepest {
		b.WriteString("continuation kx(r):\n    return <0/1> (r);\n")
	}
	b.WriteString("}\n")
}
