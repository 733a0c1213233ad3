// The distiller: fuseChains rewrites the closure-chain entry of a hot
// cycle with a kernel that executes many iterations per trampoline
// dispatch. The closure chains already run a straight-line run as
// nested host calls; this pass goes one level up and fuses whole
// *cycles* — counted loops and the frame-push/frame-pop phases of the
// recursive figures — after proving, with a small
// symbolic evaluator, that the cycle's effect is a closed per-iteration
// function of its entry state.
//
// A kernel replaces only the closure at the cycle header pc h.
// Everything else is untouched: entering the cycle mid-body, the exit
// path, and the iteration that leaves the cycle all still run on the
// ordinary chains. The accounting protocol keeps counters bit-identical
// to the reference engine:
//
//   - the trampoline has already charged agg[h] when a kernel runs, so
//     the kernel first subtracts it back out,
//   - each full iteration charges the exact per-iteration delta (loads
//     and stores are counted even when the kernel elides them),
//   - iteration counts are capped so the running total never crosses
//     the instruction budget minus agg[h]; the kernel then re-adds
//     agg[h] and tail-calls the original chain, which runs the next
//     (possibly exiting, possibly trapping) iteration exactly,
//   - memory caps stop the kernel before any access could fall outside
//     memory, so out-of-bounds traps happen on the chains with exact
//     partial counters,
//   - cycles containing calls or returns would emit observer events, so
//     their kernels run only when no observer is attached; counted
//     loops contain no event-emitting instructions and stay valid under
//     observation.
//
// Anything the matchers cannot prove keeps its original chain — the
// distiller is a pure overlay and never changes semantics. Every
// decision is recorded: each candidate cycle yields one KernelCandidate
// stating which shape matched (and its closed form) or the precise
// reason it was rejected, surfaced through Machine.ExplainKernels and
// the -explain flag of cmmrun and cmmc. At run time the installed kernels
// feed Machine.Telem: entries, closed-form iterations, and a deopt
// bucket per activation (see Telemetry in machine.go).

package machine

import (
	"encoding/binary"
	"fmt"

	"cmm/internal/obs"
)

// Kernel shapes, for KernelCandidate.Shape.
const (
	ShapeCounted = "counted-loop"
	ShapePush    = "frame-push"
	ShapePop     = "frame-pop"
)

// KernelCandidate is one cycle the distiller considered: a backward
// jump, a self-call, or a call-return sequence. Matched candidates
// describe the distilled closed form; rejected ones carry the precise
// reason the cycle kept its ordinary closure chains.
type KernelCandidate struct {
	Header  int    // cycle header pc (the closure the kernel would replace)
	End     int    // pc of the instruction closing the cycle
	Shape   string // Shape* constant
	Matched bool
	Reason  string // closed-form description when matched; rejection reason otherwise
}

// ---------------------------------------------------------------------
// Symbolic values: the effect of one cycle iteration, expressed over
// the register values at cycle entry and the memory it loads.

type sKind uint8

const (
	skConst sKind = iota // literal
	skReg                // entry value of a register
	skBin                // ALU op over two symbolic values
	skLoad               // 8-byte load at entryReg(base)+off
)

type sval struct {
	kind  sKind
	c     uint64 // skConst
	reg   Reg    // skReg
	op    ALUOp  // skBin
	width int    // skBin: 32/64 for arithmetic, 0 for compares
	a, b  *sval  // skBin
	base  Reg    // skLoad
	off   int64  // skLoad
}

func sConst(c uint64) *sval { return &sval{kind: skConst, c: c} }

func sRegV(r Reg) *sval {
	if r == RZero {
		return sConst(0)
	}
	return &sval{kind: skReg, reg: r}
}

func structEq(a, b *sval) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.kind != b.kind {
		return false
	}
	switch a.kind {
	case skConst:
		return a.c == b.c
	case skReg:
		return a.reg == b.reg
	case skLoad:
		return a.base == b.base && a.off == b.off
	default: // skBin
		return a.op == b.op && a.width == b.width && structEq(a.a, b.a) && structEq(a.b, b.b)
	}
}

// isEntry reports whether v is exactly the entry value of r.
func isEntry(v *sval, r Reg) bool { return v.kind == skReg && v.reg == r }

// affineOf decomposes v as entryReg(base)+off under 64-bit wraparound —
// the shape of every frame-pointer walk.
func affineOf(v *sval) (base Reg, off int64, ok bool) {
	switch v.kind {
	case skReg:
		return v.reg, 0, true
	case skBin:
		if v.width == 64 && v.b.kind == skConst {
			if r, o, k := affineOf(v.a); k {
				switch v.op {
				case AAdd:
					return r, o + int64(v.b.c), true
				case ASub:
					return r, o - int64(v.b.c), true
				}
			}
		}
	}
	return 0, 0, false
}

func isCompareALU(sub ALUOp) bool {
	switch sub {
	case AEq, ANe, ALtU, ALeU, AGtU, AGeU:
		return true
	}
	return false
}

// evalALU folds one fusable ALU op symbolically, canonicalizing so that
// constants sit on the right of commutative ops, affine chains stay one
// level deep, and compares are width-free (aluOp compares the full
// 64-bit values regardless of Width).
func evalALU(sub ALUOp, width int, a, b *sval) *sval {
	if a.kind == skConst && b.kind == skConst {
		v, err := aluOp(sub, a.c, b.c, width)
		if err != nil {
			return nil
		}
		return sConst(v)
	}
	if a.kind == skConst && (sub == AAdd || sub == AMul || sub == AEq || sub == ANe) {
		a, b = b, a
	}
	cw := width
	if isCompareALU(sub) {
		cw = 0
	} else if width <= 0 || width >= 64 {
		cw = 64
	}
	if cw == 64 && b.kind == skConst && (sub == AAdd || sub == ASub) {
		if base, off, ok := affineOf(a); ok {
			if sub == AAdd {
				off += int64(b.c)
			} else {
				off -= int64(b.c)
			}
			if off == 0 {
				return sRegV(base)
			}
			return &sval{kind: skBin, op: AAdd, width: 64, a: sRegV(base), b: sConst(uint64(off))}
		}
	}
	return &sval{kind: skBin, op: sub, width: cw, a: a, b: b}
}

// ---------------------------------------------------------------------
// Cycle tracing: symbolically execute the straight path h..j-1, with
// guard branches recorded as loop-continue conditions.

type memEff struct {
	off int64
	val *sval
}

type rawLoad struct {
	off int64
	dst Reg
}

type guardInfo struct {
	cond       *sval
	contOnZero bool // continue the cycle when cond == 0
}

type cycleTrace struct {
	regs     [NumRegs]*sval
	memBase  Reg
	hasBase  bool
	stores   []memEff
	rawLoads []rawLoad
	guards   []guardInfo
}

func (tr *cycleTrace) set(rd Reg, v *sval) {
	if rd != RZero {
		tr.regs[rd] = v
	}
}

// setBase enforces the alias discipline: every memory access in the
// cycle must be affine over ONE entry register, so distinct offsets are
// provably distinct addresses.
func (tr *cycleTrace) setBase(b Reg) bool {
	if b == RZero {
		return false
	}
	if !tr.hasBase {
		tr.memBase, tr.hasBase = b, true
	}
	return tr.memBase == b
}

// forward resolves a load against earlier stores in the same iteration:
// an exact 8-byte match forwards the stored value; a partial overlap is
// beyond the alias discipline and poisons the trace.
func (tr *cycleTrace) forward(off int64) (v *sval, conflict bool) {
	for i := len(tr.stores) - 1; i >= 0; i-- {
		d := tr.stores[i].off - off
		if d == 0 {
			return tr.stores[i].val, false
		}
		if d > -8 && d < 8 {
			return nil, true
		}
	}
	return nil, false
}

func (tr *cycleTrace) modified() []Reg {
	var mods []Reg
	for r := Reg(1); r < NumRegs; r++ {
		if !isEntry(tr.regs[r], r) {
			mods = append(mods, r)
		}
	}
	return mods
}

// step symbolically executes one instruction. It returns "" on success
// or the reason the instruction poisons the cycle.
func (tr *cycleTrace) step(in *Instr, pc int) string {
	switch in.Op {
	case OpNop:
		return ""
	case OpLI:
		tr.set(in.Rd, sConst(uint64(in.Imm)))
		return ""
	case OpMov:
		tr.set(in.Rd, tr.regs[in.Rs])
		return ""
	case OpALU, OpALUI:
		if !fusableALU(in.Sub) {
			return fmt.Sprintf("trapping ALU op `%s` at pc %d", Disasm(*in), pc)
		}
		b := tr.regs[in.Rt]
		if in.Op == OpALUI {
			b = sConst(uint64(in.Imm))
		}
		v := evalALU(in.Sub, in.Width, tr.regs[in.Rs], b)
		if v == nil {
			return fmt.Sprintf("constant folding of `%s` at pc %d traps", Disasm(*in), pc)
		}
		tr.set(in.Rd, v)
		return ""
	case OpLoad:
		if in.Size != 8 {
			return fmt.Sprintf("sub-word load (%d bytes) at pc %d", in.Size, pc)
		}
		base, off, ok := affineOf(tr.regs[in.Rs])
		if !ok {
			return fmt.Sprintf("non-affine load address at pc %d", pc)
		}
		if !tr.setBase(base) {
			return fmt.Sprintf("load at pc %d uses a second memory base (%s after %s) — alias discipline needs one", pc, base, tr.memBase)
		}
		off += in.Imm
		v, conflict := tr.forward(off)
		if conflict {
			return fmt.Sprintf("load at pc %d partially overlaps an earlier store", pc)
		}
		if v != nil {
			tr.set(in.Rd, v)
			return ""
		}
		if in.Rd == RZero {
			return fmt.Sprintf("load into the zero register at pc %d", pc)
		}
		tr.rawLoads = append(tr.rawLoads, rawLoad{off: off, dst: in.Rd})
		tr.set(in.Rd, &sval{kind: skLoad, base: base, off: off})
		return ""
	case OpStore:
		if in.Size != 8 {
			return fmt.Sprintf("sub-word store (%d bytes) at pc %d", in.Size, pc)
		}
		base, off, ok := affineOf(tr.regs[in.Rs])
		if !ok {
			return fmt.Sprintf("non-affine store address at pc %d", pc)
		}
		if !tr.setBase(base) {
			return fmt.Sprintf("store at pc %d uses a second memory base (%s after %s) — alias discipline needs one", pc, base, tr.memBase)
		}
		tr.stores = append(tr.stores, memEff{off: off + in.Imm, val: tr.regs[in.Rt]})
		return ""
	}
	return fmt.Sprintf("unsupported opcode `%s` at pc %d", Disasm(*in), pc)
}

// traceCycle runs the straight path h..j-1 symbolically. Conditional
// branches inside the cycle must exit it when taken (the not-taken path
// continues the iteration); any other terminator rejects the cycle. The
// second result is "" on success or the rejection reason.
func traceCycle(code []Instr, h, j int) (*cycleTrace, string) {
	if h < 0 || j <= h || j-h > 128 {
		return nil, fmt.Sprintf("cycle body spans %d instructions (limit 128)", j-h)
	}
	tr := &cycleTrace{}
	for r := Reg(0); r < NumRegs; r++ {
		tr.regs[r] = sRegV(r)
	}
	for pc := h; pc < j; pc++ {
		in := &code[pc]
		if isRunTerminator(in.Op) {
			if in.Op != OpBZ && in.Op != OpBNZ {
				return nil, fmt.Sprintf("effect escapes the cycle: `%s` at pc %d", Disasm(*in), pc)
			}
			if in.Target >= h && in.Target <= j {
				return nil, fmt.Sprintf("branch at pc %d targets inside the cycle (irreducible body)", pc)
			}
			tr.guards = append(tr.guards, guardInfo{cond: tr.regs[in.Rs], contOnZero: in.Op == OpBNZ})
			continue
		}
		if why := tr.step(in, pc); why != "" {
			return nil, why
		}
	}
	return tr, ""
}

// ---------------------------------------------------------------------
// Fix-ups: every register the cycle modifies that is not one of the
// kernel's slot registers must have a value the kernel can reconstruct
// after k full iterations.

const (
	fxConst uint8 = iota // literal (includes guard results: false on every full iteration)
	fxCopy               // entry value of an unmodified register
	fxNew0               // post-iteration value of slot 0
	fxPrev0              // pre-iteration value of slot 0 in the last full iteration
	fxNew1
	fxPrev1
	fxNew2
	fxPrev2
)

type fixup struct {
	r    Reg
	kind uint8
	c    uint64
	src  Reg
}

// classifyFix maps one modified register's final expression onto the
// kernel's slots: slots[i] with have[i] set is a register whose
// per-iteration update expression is tr.regs[slots[i]].
func classifyFix(tr *cycleTrace, r Reg, slots [3]Reg, have [3]bool, guard *sval) (fixup, bool) {
	f := tr.regs[r]
	if f.kind == skConst {
		return fixup{r: r, kind: fxConst, c: f.c}, true
	}
	if guard != nil && structEq(f, guard) {
		return fixup{r: r, kind: fxConst, c: 0}, true
	}
	for i := 0; i < 3; i++ {
		if !have[i] {
			continue
		}
		if structEq(f, tr.regs[slots[i]]) {
			return fixup{r: r, kind: fxNew0 + uint8(2*i)}, true
		}
		if isEntry(f, slots[i]) {
			return fixup{r: r, kind: fxPrev0 + uint8(2*i)}, true
		}
	}
	if f.kind == skReg && isEntry(tr.regs[f.reg], f.reg) {
		return fixup{r: r, kind: fxCopy, src: f.reg}, true
	}
	return fixup{}, false
}

// contPredicate decodes a guard as "continue while S != stop".
func contPredicate(g guardInfo) (s Reg, stop uint64, ok bool) {
	c := g.cond
	if c.kind != skBin || c.a.kind != skReg || c.b.kind != skConst {
		return 0, 0, false
	}
	if (c.op == AEq && g.contOnZero) || (c.op == ANe && !g.contOnZero) {
		return c.a.reg, c.b.c, true
	}
	return 0, 0, false
}

// decUpdate decodes F[s] as s := (s - dec) & mask.
func decUpdate(f *sval, s Reg) (dec, mask uint64, ok bool) {
	// evalALU re-normalizes 64-bit s±const into the affine AAdd form, so
	// accept both spellings: ASub(s, c) and AAdd(s, c) with dec = -c.
	if f.kind != skBin || !isEntry(f.a, s) || f.b.kind != skConst {
		return 0, 0, false
	}
	switch f.op {
	case ASub:
		dec = f.b.c
	case AAdd:
		dec = -f.b.c
	default:
		return 0, 0, false
	}
	switch f.width {
	case 32:
		return dec & 0xFFFFFFFF, 0xFFFFFFFF, true
	case 64:
		return dec, ^uint64(0), true
	}
	return 0, 0, false
}

// accUpdate decodes F[r] as r := (r op s) & mask for op in {add, mul}.
func accUpdate(f *sval, r, s Reg) (op ALUOp, mask uint64, ok bool) {
	if f.kind != skBin || (f.op != AAdd && f.op != AMul) {
		return 0, 0, false
	}
	if !(isEntry(f.a, r) && isEntry(f.b, s)) && !(isEntry(f.a, s) && isEntry(f.b, r)) {
		return 0, 0, false
	}
	switch f.width {
	case 32:
		return f.op, 0xFFFFFFFF, true
	case 64:
		return f.op, ^uint64(0), true
	}
	return 0, 0, false
}

func scaleDelta(d costDelta, k int64) costDelta {
	return costDelta{cyc: d.cyc * k, instrs: d.instrs * k, loads: d.loads * k,
		stores: d.stores * k, branches: d.branches * k, calls: d.calls * k}
}

func cycleDelta(code []Instr, cost Costs, h, j int) costDelta {
	var d costDelta
	for pc := h; pc <= j; pc++ {
		d = d.plus(instrDelta(&code[pc], cost))
	}
	return d
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// applyFixes reconstructs the non-slot modified registers after k full
// iterations from the slot values (new and previous-iteration) the
// kernel tracked. Called once per kernel entry, never per iteration.
func applyFixes(r *[NumRegs]uint64, fixes []fixup, n0, p0, n1, p1, n2, p2 uint64) {
	for _, f := range fixes {
		var v uint64
		switch f.kind {
		case fxConst:
			v = f.c
		case fxCopy:
			v = r[f.src]
		case fxNew0:
			v = n0
		case fxPrev0:
			v = p0
		case fxNew1:
			v = n1
		case fxPrev1:
			v = p1
		case fxNew2:
			v = n2
		case fxPrev2:
			v = p2
		}
		r[f.r] = v
	}
}

// ---------------------------------------------------------------------
// fuseChains: find cycle headers and install kernels.

func fuseChains(p *natProg, code []Instr, cost Costs) {
	done := map[int]bool{}
	// consider records the candidate's verdict for the explain report and
	// installs the kernel when one matched.
	consider := func(h, end int, shape string, fn natFn, why string) {
		p.report = append(p.report, KernelCandidate{
			Header: h, End: end, Shape: shape, Matched: fn != nil, Reason: why,
		})
		if fn != nil && !done[h] {
			p.fns[h] = fn
			done[h] = true
			p.kernels++
		}
	}
	for j := range code {
		in := &code[j]
		switch in.Op {
		case OpJmp:
			if h := in.Target; h >= 0 && h < j && !done[h] {
				fn, why := matchCounted(p, code, cost, h, j)
				consider(h, j, ShapeCounted, fn, why)
			}
		case OpCall:
			if h := in.Target; h >= 0 && h < j && !done[h] {
				fn, why := matchPush(p, code, cost, h, j)
				consider(h, j, ShapePush, fn, why)
			}
			// The call's return point is where a frame-pop cycle heads.
			if h := j + 1; h < len(code) && !done[h] {
				j2 := h
				for j2 < len(code) && !isRunTerminator(code[j2].Op) && j2-h <= 128 {
					j2++
				}
				if j2 < len(code) && code[j2].Op == OpRetOff && code[j2].Imm == 0 {
					fn, why := matchPop(p, code, cost, h, j2)
					consider(h, j2, ShapePop, fn, why)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Kernel 1: counted register loop (the sp3 shape, and sp2's helper once
// its frame store is proven invariant):
//
//	h: ... guard (exit when S == stop) ...
//	   S -= dec; optionally X += S and P *= S; j: jmp h
//
// All loads must forward from the cycle's own stores, and at most one
// store is allowed — its address and value must be iteration-invariant,
// so the kernel performs it once. No instruction in the cycle can emit
// observer events, so the kernel is valid even under observation.
func matchCounted(p *natProg, code []Instr, cost Costs, h, j int) (natFn, string) {
	tr, why := traceCycle(code, h, j)
	if tr == nil {
		return nil, why
	}
	if len(tr.guards) != 1 {
		return nil, fmt.Sprintf("%d guard branches in the body, need exactly 1", len(tr.guards))
	}
	if len(tr.rawLoads) != 0 {
		return nil, fmt.Sprintf("%d loads do not forward from the cycle's own stores", len(tr.rawLoads))
	}
	if len(tr.stores) > 1 {
		return nil, fmt.Sprintf("%d stores in the body, at most 1 invariant store supported", len(tr.stores))
	}
	sR, stop, ok := contPredicate(tr.guards[0])
	if !ok || sR == RZero {
		return nil, "guard is not a continue-while-register-differs-from-constant compare"
	}
	dec, maskS, ok := decUpdate(tr.regs[sR], sR)
	if !ok {
		return nil, fmt.Sprintf("induction register %s is not updated by a constant decrement", sR)
	}
	hasStore := len(tr.stores) == 1
	var stBase, stVal Reg
	var stOff uint64
	if hasStore {
		stBase = tr.memBase
		v := tr.stores[0].val
		if v.kind != skReg {
			return nil, "stored value is not iteration-invariant"
		}
		stVal = v.reg
		if !isEntry(tr.regs[stBase], stBase) || !isEntry(tr.regs[stVal], stVal) {
			return nil, "store address or value register is modified by the cycle"
		}
		stOff = uint64(tr.stores[0].off)
	}
	mods := tr.modified()
	var xR, pR Reg
	var maskX, maskP uint64
	var hasX, hasP bool
	for _, r := range mods {
		if r == sR {
			continue
		}
		if op, m, ok := accUpdate(tr.regs[r], r, sR); ok {
			switch {
			case op == AAdd && !hasX:
				xR, maskX, hasX = r, m, true
			case op == AMul && !hasP:
				pR, maskP, hasP = r, m, true
			}
		}
	}
	slots := [3]Reg{sR, xR, pR}
	have := [3]bool{true, hasX, hasP}
	var fixes []fixup
	for _, r := range mods {
		if r == sR || (hasX && r == xR) || (hasP && r == pR) {
			continue
		}
		f, ok := classifyFix(tr, r, slots, have, tr.guards[0].cond)
		if !ok {
			return nil, fmt.Sprintf("modified register %s has no closed form after k iterations", r)
		}
		fixes = append(fixes, f)
	}
	itD := cycleDelta(code, cost, h, j)
	agg := p.agg[h]
	neg := scaleDelta(agg, -1)
	orig := p.fns[h]
	desc := fmt.Sprintf("counted loop over %s (dec %d, stop %d), %d instrs/iter", sR, dec&maskS, stop, itD.instrs)
	if hasX {
		desc += fmt.Sprintf(", sum into %s", xR)
	}
	if hasP {
		desc += fmt.Sprintf(", product into %s", pR)
	}
	if hasStore {
		desc += ", one invariant store"
	}
	// The dominant shape — both accumulators present — gets a
	// branch-free loop; everything lives in locals so the compiled loop
	// runs on registers.
	fast := hasX && hasP
	return func(st *natState) int {
		st.acct.add(&neg)
		r := st.regs
		room := (st.acct.headroom() - agg.instrs) / itD.instrs
		edge := uint64(obs.DeoptBudget) // which bound pinches room: budget or slice
		if st.acct.slicePinched() {
			edge = obs.DeoptSlice
		}
		var k int64
		deopt := edge // room <= 0: no headroom at entry
		ok := room > 0
		var stAddr uint64
		if ok && hasStore {
			stAddr = r[stBase] + stOff
			if end := stAddr + 8; end > uint64(len(st.mem)) || end < stAddr {
				ok = false
				deopt = obs.DeoptTrap // the store will trap on the chains
			}
		}
		if ok {
			s, x, pv := r[sR], r[xR], r[pR]
			var ps, px, pp uint64
			if fast {
				stopL, decL, mS, mX, mP := stop, dec, maskS, maskX, maskP
				for k < room && s != stopL {
					ps = s
					px = x
					x = (x + s) & mX
					pp = pv
					pv = (pv * s) & mP
					s = (s - decL) & mS
					k++
				}
			} else {
				for k < room && s != stop {
					ps = s
					if hasX {
						px = x
						x = (x + s) & maskX
					}
					if hasP {
						pp = pv
						pv = (pv * s) & maskP
					}
					s = (s - dec) & maskS
					k++
				}
			}
			if s == stop {
				deopt = obs.DeoptCycleExit
			} else {
				deopt = edge // k == room: budget or slice edge
			}
			if k > 0 {
				d := scaleDelta(itD, k)
				st.acct.add(&d)
				r[sR] = s
				if hasX {
					r[xR] = x
				}
				if hasP {
					r[pR] = pv
				}
				applyFixes(r, fixes, s, ps, x, px, pv, pp)
				if hasStore {
					binary.LittleEndian.PutUint64(st.mem[stAddr:], r[stVal])
				}
			}
		}
		kernelHandback(st, h, k, k*itD.instrs, deopt)
		st.acct.add(&agg)
		return orig(st)
	}, desc
}

// kernelHandback records one kernel activation's telemetry: the work it
// charged and the single deopt bucket explaining why it handed control
// back to the chains. With an opted-in observer it also emits the KDeopt
// instant (engine-specific, excluded from cross-engine parity).
func kernelHandback(st *natState, h int, k, instrs int64, reason uint64) {
	t := &st.m.Telem
	if k > 0 {
		t.KernelEntries++
		t.KernelIters += k
		t.KernelInstrs += instrs
	}
	switch reason {
	case obs.DeoptCycleExit:
		t.DeoptCycleExit++
	case obs.DeoptTrap:
		t.DeoptTrap++
	case obs.DeoptBudget:
		t.DeoptBudget++
	case obs.DeoptObserver:
		t.DeoptObserver++
	case obs.DeoptSlice:
		t.DeoptSlice++
	}
	if o := st.m.Obs; o != nil && o.EngineEvents {
		o.Emit(obs.Event{Kind: obs.KDeopt, Ts: st.acct.ts(), Instr: st.acct.total,
			PC: int32(h), SP: st.regs[RSP], A: reason, B: uint64(k)})
	}
}

// storeSrc describes one frame store in a push cycle: the stored value
// is a register's entry value, and that register's own per-iteration
// update decides what the next iteration will store.
const (
	nkSame  uint8 = iota // value register unmodified
	nkConst              // register becomes a constant (e.g. ra after the call)
	nkD                  // register becomes the countdown register's entry value
)

type storeSrc struct {
	soff uint64 // offset within the new frame (relative to the decremented base)
	reg  Reg
	next uint8
	c    uint64
}

// Kernel 2: frame-push recursion (the sp1 descent). Each full iteration
// decrements the frame base by fd, performs the frame stores, updates
// the countdown register, and calls back to h. The call would emit
// observer events, so the kernel runs only with no observer attached.
func matchPush(p *natProg, code []Instr, cost Costs, h, j int) (natFn, string) {
	tr, why := traceCycle(code, h, j)
	if tr == nil {
		return nil, why
	}
	if len(tr.guards) != 1 {
		return nil, fmt.Sprintf("%d guard branches in the body, need exactly 1", len(tr.guards))
	}
	if len(tr.rawLoads) != 0 {
		return nil, fmt.Sprintf("%d loads in a push cycle, need a store-only descent", len(tr.rawLoads))
	}
	if len(tr.stores) < 1 || len(tr.stores) > 2 {
		return nil, fmt.Sprintf("%d frame stores in the body, need 1 or 2", len(tr.stores))
	}
	// The call at j writes ra before transferring; fold that into the
	// iteration's effect.
	raC := CodeAddr(j + 1)
	tr.set(RRA, sConst(raC))
	dR, stop, ok := contPredicate(tr.guards[0])
	if !ok || dR == RZero {
		return nil, "guard is not a continue-while-register-differs-from-constant compare"
	}
	dec, maskD, ok := decUpdate(tr.regs[dR], dR)
	if !ok {
		return nil, fmt.Sprintf("countdown register %s is not updated by a constant decrement", dR)
	}
	base := tr.memBase
	fBase, fOff, ok := affineOf(tr.regs[base])
	if !ok || fBase != base || fOff >= 0 {
		return nil, fmt.Sprintf("frame base %s does not descend by a constant per iteration", base)
	}
	fd := uint64(-fOff)
	if fd < 8 {
		return nil, fmt.Sprintf("frame descent of %d bytes is smaller than a word", fd)
	}
	var srcs []storeSrc
	for _, s := range tr.stores {
		so := s.off + int64(fd)
		if so < 0 || uint64(so)+8 > fd {
			return nil, fmt.Sprintf("store at frame offset %d escapes the %d-byte pushed frame", s.off, fd)
		}
		if s.val.kind != skReg {
			return nil, "stored value is not a register's entry value"
		}
		w := s.val.reg
		fw := tr.regs[w]
		src := storeSrc{soff: uint64(so), reg: w}
		switch {
		case isEntry(fw, w):
			src.next = nkSame
		case fw.kind == skConst:
			src.next, src.c = nkConst, fw.c
		case isEntry(fw, dR):
			src.next = nkD
		default:
			return nil, fmt.Sprintf("stored register %s has no recognized per-iteration update", w)
		}
		srcs = append(srcs, src)
	}
	slots := [3]Reg{dR}
	have := [3]bool{true}
	var fixes []fixup
	for _, r := range tr.modified() {
		if r == dR || r == base {
			continue
		}
		f, ok := classifyFix(tr, r, slots, have, tr.guards[0].cond)
		if !ok {
			return nil, fmt.Sprintf("modified register %s has no closed form after k iterations", r)
		}
		fixes = append(fixes, f)
	}
	st2 := len(srcs) == 2
	s0 := srcs[0]
	var s1 storeSrc
	if st2 {
		s1 = srcs[1]
	}
	itD := cycleDelta(code, cost, h, j)
	agg := p.agg[h]
	neg := scaleDelta(agg, -1)
	orig := p.fns[h]
	desc := fmt.Sprintf("frame-push recursion: descend %s by %d bytes/frame, %d store(s), countdown %s (dec %d, stop %d), %d instrs/iter",
		base, fd, len(srcs), dR, dec&maskD, stop, itD.instrs)
	// The dominant shape — two stores, one turning constant after the
	// first iteration (the ra slot) and one carrying the countdown chain
	// (the saved local) — gets a peeled, branch-free loop.
	fastCD := st2 && s0.next == nkConst && s1.next == nkD
	return func(st *natState) int {
		if st.m.Obs != nil {
			// The calls in the cycle must emit observer events, so the
			// kernel stands down for the whole activation.
			kernelHandback(st, h, 0, 0, obs.DeoptObserver)
			return orig(st)
		}
		st.acct.add(&neg)
		r := st.regs
		room := (st.acct.headroom() - agg.instrs) / itD.instrs
		edge := uint64(obs.DeoptBudget) // which bound pinches room: budget or slice
		if st.acct.slicePinched() {
			edge = obs.DeoptSlice
		}
		var k int64
		deopt := edge // room <= 0: no headroom at entry
		spv := r[base]
		if room > 0 && spv <= uint64(len(st.mem)) && spv >= fd {
			memRoom := int64(spv / fd)
			capMem := memRoom < room
			if capMem {
				room = memRoom
			}
			d := r[dR]
			var pd uint64
			mem := st.mem
			if fastCD {
				if d != stop {
					fdL, so0, so1, c0, decL, mD, stopL := fd, s0.soff, s1.soff, s0.c, dec, maskD, stop
					// Iteration 0 stores the live entry values; from then
					// on slot 0 stores c0 and slot 1 the previous count.
					spv -= fdL
					binary.LittleEndian.PutUint64(mem[spv+so0:], r[s0.reg])
					binary.LittleEndian.PutUint64(mem[spv+so1:], r[s1.reg])
					pd = d
					d = (d - decL) & mD
					k = 1
					for k < room && d != stopL {
						spv -= fdL
						binary.LittleEndian.PutUint64(mem[spv+so0:], c0)
						binary.LittleEndian.PutUint64(mem[spv+so1:], pd)
						pd = d
						d = (d - decL) & mD
						k++
					}
				}
			} else {
				v0, v1 := r[s0.reg], uint64(0)
				if st2 {
					v1 = r[s1.reg]
				}
				for k < room && d != stop {
					spv -= fd
					binary.LittleEndian.PutUint64(mem[spv+s0.soff:], v0)
					if st2 {
						binary.LittleEndian.PutUint64(mem[spv+s1.soff:], v1)
					}
					switch s0.next {
					case nkConst:
						v0 = s0.c
					case nkD:
						v0 = d
					}
					if st2 {
						switch s1.next {
						case nkConst:
							v1 = s1.c
						case nkD:
							v1 = d
						}
					}
					pd = d
					d = (d - dec) & maskD
					k++
				}
			}
			switch {
			case d == stop:
				deopt = obs.DeoptCycleExit
			case capMem && k == room:
				deopt = obs.DeoptTrap // next push would leave memory; trap runs on the chains
			default:
				deopt = edge
			}
			if k > 0 {
				cd := scaleDelta(itD, k)
				st.acct.add(&cd)
				r[base] = spv
				r[dR] = d
				applyFixes(r, fixes, d, pd, 0, 0, 0, 0)
			}
		} else if room > 0 {
			deopt = obs.DeoptTrap // the first frame push already leaves memory
		}
		kernelHandback(st, h, k, k*itD.instrs, deopt)
		st.acct.add(&agg)
		return orig(st)
	}, desc
}

// Kernel 3: frame-pop return (the sp1 ascent). Each full iteration
// folds the previously loaded carried value into the accumulators,
// reloads the carried value and the return address from the current
// frame, pops the frame, and returns — continuing the cycle only while
// the loaded ra points back at h. The kernel peeks at the ra slot
// before committing to an iteration, so the final (escaping) return
// runs on the chains. Returns would emit observer events, so the kernel
// runs only with no observer attached.
func matchPop(p *natProg, code []Instr, cost Costs, h, j int) (natFn, string) {
	tr, why := traceCycle(code, h, j)
	if tr == nil {
		return nil, why
	}
	if len(tr.guards) != 0 {
		return nil, fmt.Sprintf("%d guard branches in a pop cycle, need an unconditional ascent", len(tr.guards))
	}
	if len(tr.stores) != 0 {
		return nil, fmt.Sprintf("%d stores in a pop cycle, need a load-only ascent", len(tr.stores))
	}
	if len(tr.rawLoads) != 2 {
		return nil, fmt.Sprintf("%d frame loads in the body, need exactly 2 (ra and the carried value)", len(tr.rawLoads))
	}
	fra := tr.regs[RRA]
	if fra.kind != skLoad {
		return nil, "the return address is not loaded from the frame"
	}
	base := tr.memBase
	fBase, fOff, ok := affineOf(tr.regs[base])
	if !ok || fBase != base || fOff <= 0 {
		return nil, fmt.Sprintf("frame base %s does not ascend by a constant per iteration", base)
	}
	fd := uint64(fOff)
	var crR Reg
	var offRA, offCR int64
	seenRA := false
	for _, l := range tr.rawLoads {
		fl := tr.regs[l.dst]
		if fl.kind != skLoad || fl.off != l.off {
			return nil, fmt.Sprintf("loaded register %s is clobbered before the cycle ends", l.dst)
		}
		if l.dst == RRA {
			offRA, seenRA = l.off, true
		} else {
			crR, offCR = l.dst, l.off
		}
	}
	if !seenRA || crR == 0 || crR == base || offRA != fra.off || offRA < 0 || offCR < 0 {
		return nil, "frame loads are not an (ra, carried-value) pair at non-negative offsets"
	}
	var a1R, a2R Reg
	var mask1, mask2 uint64
	var has1, has2 bool
	mods := tr.modified()
	for _, r := range mods {
		if r == RRA || r == crR || r == base {
			continue
		}
		if op, m, ok := accUpdate(tr.regs[r], r, crR); ok {
			switch {
			case op == AAdd && !has1:
				a1R, mask1, has1 = r, m, true
			case op == AMul && !has2:
				a2R, mask2, has2 = r, m, true
			}
		}
	}
	slots := [3]Reg{a1R, a2R, crR}
	have := [3]bool{has1, has2, true}
	var fixes []fixup
	for _, r := range mods {
		if r == RRA || r == crR || r == base || (has1 && r == a1R) || (has2 && r == a2R) {
			continue
		}
		f, ok := classifyFix(tr, r, slots, have, nil)
		if !ok {
			return nil, fmt.Sprintf("modified register %s has no closed form after k iterations", r)
		}
		fixes = append(fixes, f)
	}
	maxOff := uint64(offRA)
	if uint64(offCR) > maxOff {
		maxOff = uint64(offCR)
	}
	raH := CodeAddr(h)
	oRA, oCR := uint64(offRA), uint64(offCR)
	fast2 := has1 && has2
	itD := cycleDelta(code, cost, h, j)
	agg := p.agg[h]
	neg := scaleDelta(agg, -1)
	orig := p.fns[h]
	desc := fmt.Sprintf("frame-pop return: ascend %s by %d bytes/frame while ra at +%d points back, carried value at +%d, %d instrs/iter",
		base, fd, offRA, offCR, itD.instrs)
	return func(st *natState) int {
		if st.m.Obs != nil {
			// The returns in the cycle must emit observer events, so the
			// kernel stands down for the whole activation.
			kernelHandback(st, h, 0, 0, obs.DeoptObserver)
			return orig(st)
		}
		st.acct.add(&neg)
		r := st.regs
		room := (st.acct.headroom() - agg.instrs) / itD.instrs
		edge := uint64(obs.DeoptBudget) // which bound pinches room: budget or slice
		if st.acct.slicePinched() {
			edge = obs.DeoptSlice
		}
		var k int64
		deopt := edge // room <= 0: no headroom at entry
		spv := r[base]
		mlen := uint64(len(st.mem))
		if room > 0 && spv < mlen && spv+maxOff+8 <= mlen {
			memRoom := int64((mlen-8-maxOff-spv)/fd) + 1
			capMem := memRoom < room
			if capMem {
				room = memRoom
			}
			a, pv, s := r[a1R], r[a2R], r[crR]
			var pa, pp, ps uint64
			mem := st.mem
			if fast2 {
				oRAL, oCRL, raHL, fdL, m1, m2 := oRA, oCR, raH, fd, mask1, mask2
				for k < room {
					if binary.LittleEndian.Uint64(mem[spv+oRAL:]) != raHL {
						break
					}
					pa = a
					pp = pv
					ps = s
					a = (a + s) & m1
					pv = (pv * s) & m2
					s = binary.LittleEndian.Uint64(mem[spv+oCRL:])
					spv += fdL
					k++
				}
			} else {
				for k < room {
					if binary.LittleEndian.Uint64(mem[spv+oRA:]) != raH {
						break
					}
					pa, pp, ps = a, pv, s
					if has1 {
						a = (a + s) & mask1
					}
					if has2 {
						pv = (pv * s) & mask2
					}
					s = binary.LittleEndian.Uint64(mem[spv+oCR:])
					spv += fd
					k++
				}
			}
			switch {
			case k < room:
				deopt = obs.DeoptCycleExit // ra stopped pointing back at h
			case capMem:
				deopt = obs.DeoptTrap // next peek would leave memory; the chains take over
			default:
				deopt = edge
			}
			if k > 0 {
				cd := scaleDelta(itD, k)
				st.acct.add(&cd)
				r[base] = spv
				r[crR] = s
				r[RRA] = raH
				if has1 {
					r[a1R] = a
				}
				if has2 {
					r[a2R] = pv
				}
				applyFixes(r, fixes, a, pa, pv, pp, s, ps)
			}
		} else if room > 0 {
			deopt = obs.DeoptTrap // the first frame peek already leaves memory
		}
		kernelHandback(st, h, k, k*itD.instrs, deopt)
		st.acct.add(&agg)
		return orig(st)
	}, desc
}
