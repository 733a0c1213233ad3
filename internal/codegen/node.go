package codegen

import (
	"cmm/internal/cfg"
	"cmm/internal/dataflow"
	"cmm/internal/machine"
	"cmm/internal/syntax"
)

// emitBody lays out the procedure's code: the entry chain first, then
// every pending block (continuations, branch targets).
func (gen *generator) emitBody() error {
	f := gen.f
	f.pending = append(f.pending, f.g.Entry)
	// Continuations are entry points reachable from outside; make sure
	// they are placed even if no local edge reaches them.
	for _, cb := range f.g.Entry.Conts {
		f.pending = append(f.pending, cb.Node)
	}
	for len(f.pending) > 0 {
		n := f.pending[0]
		f.pending = f.pending[1:]
		if _, done := f.placed[n]; done {
			continue
		}
		if err := gen.emitChain(n); err != nil {
			return err
		}
	}
	return nil
}

func (gen *generator) jumpTo(n *cfg.Node) {
	f := gen.f
	if pc, done := f.placed[n]; done {
		at := gen.emit(machine.Instr{Op: machine.OpJmp, Target: pc})
		gen.pcRel = append(gen.pcRel, at)
		return
	}
	at := gen.emit(machine.Instr{Op: machine.OpJmp})
	f.fixups = append(f.fixups, fixup{at: at, kind: fixNode, node: n})
	f.pending = append(f.pending, n)
}

// emitChain emits a maximal straight-line chain starting at n.
func (gen *generator) emitChain(n *cfg.Node) error {
	f := gen.f
	for n != nil {
		if pc, done := f.placed[n]; done {
			at := gen.emit(machine.Instr{Op: machine.OpJmp, Target: pc})
			gen.pcRel = append(gen.pcRel, at)
			return nil
		}
		f.placed[n] = len(gen.code)
		var err error
		n, err = gen.emitNode(n)
		if err != nil {
			return err
		}
	}
	return nil
}

// emitNode emits code for one node and returns the node to continue the
// chain with (nil when the node ends the chain).
func (gen *generator) emitNode(n *cfg.Node) (*cfg.Node, error) {
	f := gen.f
	switch n.Kind {
	case cfg.KindEntry:
		gen.prologue()
		return n.Succ[0], nil

	case cfg.KindCopyIn:
		if len(n.Vars) > machine.NumA {
			return nil, gen.errf(n, "more than %d parameters", machine.NumA)
		}
		for i, v := range n.Vars {
			if err := gen.storeToHome(v, machine.RA0+machine.Reg(i)); err != nil {
				return nil, err
			}
		}
		return n.Succ[0], nil

	case cfg.KindCopyOut:
		if len(n.Exprs) > machine.NumA {
			return nil, gen.errf(n, "more than %d arguments or results", machine.NumA)
		}
		for i, e := range n.Exprs {
			if err := gen.eval(e, machine.RA0+machine.Reg(i), 0); err != nil {
				return nil, err
			}
		}
		return n.Succ[0], nil

	case cfg.KindCalleeSaves:
		// Register placement was decided by the allocator; the node
		// carries no code of its own.
		return n.Succ[0], nil

	case cfg.KindAssign:
		if n.LHSMem != nil {
			// Evaluate the value then the address; store.
			if err := gen.eval(n.RHS, machine.RX0, 1); err != nil {
				return nil, err
			}
			if err := gen.eval(n.LHSMem.Addr, machine.RX0+1, 2); err != nil {
				return nil, err
			}
			gen.emit(machine.Instr{Op: machine.OpStore, Rs: machine.RX0 + 1, Rt: machine.RX0, Size: n.LHSMem.Ty.Bytes()})
			return n.Succ[0], nil
		}
		// Evaluate into scratch first so that "x = f(x)"-shaped reads of
		// the target see the old value, then move to the home.
		if err := gen.eval(n.RHS, machine.RX0, 1); err != nil {
			return nil, err
		}
		if err := gen.storeToHome(n.LHSVar, machine.RX0); err != nil {
			return nil, err
		}
		return n.Succ[0], nil

	case cfg.KindBranch:
		if err := gen.eval(n.Cond, machine.RX0, 1); err != nil {
			return nil, err
		}
		at := gen.emit(machine.Instr{Op: machine.OpBNZ, Rs: machine.RX0})
		if pc, done := f.placed[n.Succ[0]]; done {
			gen.code[at].Target = pc
			gen.pcRel = append(gen.pcRel, at)
		} else {
			f.fixups = append(f.fixups, fixup{at: at, kind: fixNode, node: n.Succ[0]})
			f.pending = append(f.pending, n.Succ[0])
		}
		return n.Succ[1], nil

	case cfg.KindGoto:
		if n.Target == nil {
			return n.Succ[0], nil
		}
		if err := gen.eval(n.Target, machine.RX0, 1); err != nil {
			return nil, err
		}
		gen.emit(machine.Instr{Op: machine.OpJmpR, Rs: machine.RX0})
		for _, s := range n.Succ {
			f.pending = append(f.pending, s)
		}
		return nil, nil

	case cfg.KindCall:
		return gen.emitCall(n)

	case cfg.KindJump:
		// Tail call: deallocate the frame, then transfer.
		gen.epilogue()
		if v, ok := n.Callee.(*syntax.VarExpr); ok && v.Ref == syntax.RefProc {
			at := gen.emit(machine.Instr{Op: machine.OpJmp, Sym: v.Name})
			gen.fixupsGlobal = append(gen.fixupsGlobal, fixup{at: at, kind: fixProc, slot: v.Slot})
			return nil, nil
		}
		if err := gen.eval(n.Callee, machine.RX0, 1); err != nil {
			return nil, err
		}
		gen.emit(machine.Instr{Op: machine.OpJmpR, Rs: machine.RX0})
		return nil, nil

	case cfg.KindExit:
		gen.epilogue()
		var mark uint8
		if n.RetIndex < n.RetArity {
			mark = machine.MarkAltReturn
		}
		if gen.opts.TestAndBranch && !gen.tableForm() {
			// The callee reports the chosen continuation in x0; normal
			// return uses index == arity.
			gen.emit(machine.Instr{Op: machine.OpLI, Rd: machine.RX0, Imm: int64(n.RetIndex)})
			gen.emit(machine.Instr{Op: machine.OpRetOff, Imm: 0, Mark: mark})
		} else {
			// Branch-table method (Figure 4): return <j/n> lands on the
			// j'th slot after the call; the normal return (j == n) skips
			// the whole table.
			gen.emit(machine.Instr{Op: machine.OpRetOff, Imm: int64(n.RetIndex), Mark: mark})
		}
		return nil, nil

	case cfg.KindCutTo:
		// Arguments are already in a-registers. The continuation value
		// is the address of its (pc, sp) pair: load both, swing the
		// stack pointer, and go. Constant time, no stack walk (§4.2).
		if err := gen.eval(n.Callee, machine.RX0, 1); err != nil {
			return nil, err
		}
		gen.emit(machine.Instr{Op: machine.OpLoad, Rd: machine.RX0 + 1, Rs: machine.RX0, Imm: 0, Size: wordSlot, Sym: "cont pc"})
		gen.emit(machine.Instr{Op: machine.OpLoad, Rd: machine.RSP, Rs: machine.RX0, Imm: wordSlot, Size: wordSlot, Sym: "cont sp"})
		gen.emit(machine.Instr{Op: machine.OpJmpR, Rs: machine.RX0 + 1, Mark: machine.MarkCut})
		return nil, nil
	}
	return nil, gen.errf(n, "cannot compile node kind %s", n.Kind)
}

// storeToHome moves src into v's home.
func (gen *generator) storeToHome(v *syntax.VarExpr, src machine.Reg) error {
	switch v.Ref {
	case syntax.RefLocal:
		if h := gen.f.homes[v.Slot]; h.inReg {
			gen.emit(machine.Instr{Op: machine.OpMov, Rd: h.reg, Rs: src})
		} else {
			gen.emit(machine.Instr{Op: machine.OpStore, Rs: machine.RSP, Rt: src, Imm: h.off, Size: wordSlot, Sym: v.Name})
		}
		return nil
	case syntax.RefGlobal:
		at := gen.emit(machine.Instr{Op: machine.OpStore, Rs: machine.RZero, Rt: src, Size: wordSlot, Sym: "global " + v.Name})
		gen.fixupsGlobal = append(gen.fixupsGlobal, fixup{at: at, kind: fixGlobalStore, name: v.Name})
		return nil
	}
	return gen.errf(nil, "assignment to unknown variable %s", v.Name)
}

// prologue allocates the frame, saves ra and the used callee-saves
// registers, and materializes continuation (pc, sp) blocks. An elided
// leaf frame (FrameSize 0, -O1+) needs none of it: ra stays live in its
// register for the whole body.
func (gen *generator) prologue() {
	f := gen.f
	pi := f.pi
	if pi.FrameSize == 0 {
		return
	}
	gen.emit(machine.Instr{Op: machine.OpALUI, Sub: machine.ASub, Rd: machine.RSP, Rs: machine.RSP, Imm: pi.FrameSize, Width: 64, Sym: "frame"})
	gen.emit(machine.Instr{Op: machine.OpStore, Rs: machine.RSP, Rt: machine.RRA, Imm: pi.RAOffset, Size: wordSlot, Sym: "save ra"})
	for _, sr := range pi.SavedRegs {
		gen.emit(machine.Instr{Op: machine.OpStore, Rs: machine.RSP, Rt: sr.Reg, Imm: sr.Offset, Size: wordSlot, Sym: "save " + sr.Reg.String()})
	}
	// Continuation blocks: pc (fixed up once the landing is placed) and
	// the current sp.
	for _, cb := range f.g.Entry.Conts {
		off := pi.ContBlocks[cb.Name]
		at := gen.emit(machine.Instr{Op: machine.OpLI, Rd: machine.RX0, Sym: "pc of " + cb.Name})
		f.fixups = append(f.fixups, fixup{at: at, kind: fixLINode, node: cb.Node})
		gen.emit(machine.Instr{Op: machine.OpStore, Rs: machine.RSP, Rt: machine.RX0, Imm: off, Size: wordSlot})
		gen.emit(machine.Instr{Op: machine.OpStore, Rs: machine.RSP, Rt: machine.RSP, Imm: off + wordSlot, Size: wordSlot})
	}
}

// epilogue restores callee-saves registers and ra and deallocates the
// frame. It does not transfer control.
func (gen *generator) epilogue() {
	pi := gen.f.pi
	if pi.FrameSize == 0 {
		return
	}
	for _, sr := range pi.SavedRegs {
		gen.emit(machine.Instr{Op: machine.OpLoad, Rd: sr.Reg, Rs: machine.RSP, Imm: sr.Offset, Size: wordSlot, Sym: "restore " + sr.Reg.String()})
	}
	gen.emit(machine.Instr{Op: machine.OpLoad, Rd: machine.RRA, Rs: machine.RSP, Imm: pi.RAOffset, Size: wordSlot, Sym: "restore ra"})
	gen.emit(machine.Instr{Op: machine.OpALUI, Sub: machine.AAdd, Rd: machine.RSP, Rs: machine.RSP, Imm: pi.FrameSize, Width: 64, Sym: "pop frame"})
}

// emitCall emits a call (or yield), its branch table or test sequence,
// and registers the call site for the run-time system. It returns the
// normal-return node so the chain continues there.
func (gen *generator) emitCall(n *cfg.Node) (*cfg.Node, error) {
	f := gen.f
	b := n.Bundle
	numAlt := b.AlternateCount()

	// Descriptors resolve statically.
	var descs []uint64
	for _, d := range b.Descriptors {
		v, err := gen.staticValue(d)
		if err != nil {
			return nil, gen.errf(n, "descriptor: %v", err)
		}
		descs = append(descs, v)
	}

	if n.IsYield {
		gen.emit(machine.Instr{Op: machine.OpYield})
	} else if v, ok := n.Callee.(*syntax.VarExpr); ok && (v.Ref == syntax.RefProc || v.Ref == syntax.RefImport) {
		if v.Ref == syntax.RefProc {
			at := gen.emit(machine.Instr{Op: machine.OpCall, Sym: v.Name})
			gen.fixupsGlobal = append(gen.fixupsGlobal, fixup{at: at, kind: fixProc, slot: v.Slot})
		} else {
			gen.emit(machine.Instr{Op: machine.OpForeign, Imm: int64(v.Slot), Sym: v.Name})
		}
	} else {
		if err := gen.eval(n.Callee, machine.RX0, 1); err != nil {
			return nil, err
		}
		gen.emit(machine.Instr{Op: machine.OpCallR, Rs: machine.RX0})
	}
	retPC := len(gen.code)

	site := &CallSite{
		RetPC:       retPC,
		Proc:        f.pi,
		NumAlt:      numAlt,
		Abort:       b.Abort,
		Descriptors: descs,
		IsYield:     n.IsYield,
	}
	sf := &siteFix{site: site}
	sf.returns = append(sf.returns, b.Returns...)
	sf.unwinds = append(sf.unwinds, b.Unwinds...)
	sf.cuts = append(sf.cuts, b.Cuts...)
	f.sites = append(f.sites, sf)

	if gen.opts.TestAndBranch && !gen.calleeTableForm(n) {
		// Figure 3/4's rejected alternative: the callee returns an index
		// in x0; the caller tests it against each alternate.
		for j := 0; j < numAlt; j++ {
			gen.emit(machine.Instr{Op: machine.OpALUI, Sub: machine.AEq, Rd: machine.RX0 + 1, Rs: machine.RX0, Imm: int64(j), Width: 64})
			at := gen.emit(machine.Instr{Op: machine.OpBNZ, Rs: machine.RX0 + 1})
			f.fixups = append(f.fixups, fixup{at: at, kind: fixNode, node: b.Returns[j]})
			f.pending = append(f.pending, b.Returns[j])
		}
	} else {
		// Branch-table method (Figure 4): one unconditional jump per
		// alternate return, immediately after the call; the callee
		// returns to ra+j to select one, or past the table for a normal
		// return. Zero dynamic overhead in the normal case; the space
		// overhead is the table itself.
		for j := 0; j < numAlt; j++ {
			at := gen.emit(machine.Instr{Op: machine.OpJmp, Sym: "alt-return"})
			f.fixups = append(f.fixups, fixup{at: at, kind: fixNode, node: b.Returns[j]})
			f.pending = append(f.pending, b.Returns[j])
		}
	}
	// Unwind and cut continuations must be placed too.
	f.pending = append(f.pending, b.Unwinds...)
	f.pending = append(f.pending, b.Cuts...)
	return b.NormalReturn(), nil
}

// tableForm reports whether the current procedure returns through the
// branch-table protocol despite the TestAndBranch configuration (the
// -O2 return peephole; see computeTableProcs).
func (gen *generator) tableForm() bool {
	pf := gen.facts()
	return pf != nil && pf.table
}

// calleeTableForm reports whether call site n targets a procedure that
// uses the branch-table protocol, so the site must lay out jump slots
// rather than index tests. Yield sites keep their configured form: the
// run-time system re-enters them through the recorded continuation pcs,
// never through ra arithmetic.
func (gen *generator) calleeTableForm(n *cfg.Node) bool {
	if n.IsYield || gen.lay.facts == nil {
		return false
	}
	callee, kind := dataflow.ResolveCallee(n.Callee)
	return kind == dataflow.CalleeProc && gen.lay.facts[callee.Slot].table
}

// staticValue resolves a descriptor expression to a word.
func (gen *generator) staticValue(e syntax.Expr) (uint64, error) {
	switch e := e.(type) {
	case *syntax.IntLit:
		return e.Val, nil
	case *syntax.StrLit:
		if a, ok := gen.strings[e.Val]; ok {
			return a, nil
		}
	case *syntax.VarExpr:
		if a, ok := gen.labels[e.Name]; ok {
			return a, nil
		}
		if a, ok := gen.lay.globalAddr[e.Name]; ok {
			return a, nil
		}
	}
	return 0, gen.errf(nil, "descriptor must be a constant or data label")
}
