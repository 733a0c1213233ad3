package codegen

import (
	"math"

	"cmm/internal/check"
	"cmm/internal/machine"
	"cmm/internal/syntax"
)

func float64BitsOf(f float64) uint64 { return math.Float64bits(f) }

// Expression scratch registers: x0..x3 then t0..t3, eight levels deep.
var scratchPool = []machine.Reg{
	machine.RX0, machine.RX0 + 1, machine.RX0 + 2, machine.RX3,
	machine.RT0, machine.RT0 + 1, machine.RT0 + 2, machine.RT0 + 3,
}

// eval emits code computing e into dest, using scratchPool[depth:] for
// subexpressions.
func (gen *generator) eval(e syntax.Expr, dest machine.Reg, depth int) error {
	switch e := e.(type) {
	case *syntax.IntLit:
		gen.emit(machine.Instr{Op: machine.OpLI, Rd: dest, Imm: int64(e.Val)})
		return nil
	case *syntax.FloatLit:
		// The simulated FPU computes in float64; float32 values are
		// widened (documented substitution).
		gen.emit(machine.Instr{Op: machine.OpLI, Rd: dest, Imm: int64(float64BitsOf(e.Val))})
		return nil
	case *syntax.StrLit:
		addr, ok := gen.strings[e.Val]
		if !ok {
			return gen.errf(nil, "string %q not interned", e.Val)
		}
		gen.emit(machine.Instr{Op: machine.OpLI, Rd: dest, Imm: int64(addr), Sym: "str"})
		return nil
	case *syntax.VarExpr:
		return gen.evalName(e, dest)
	case *syntax.MemExpr:
		if err := gen.eval(e.Addr, dest, depth); err != nil {
			return err
		}
		gen.emit(machine.Instr{Op: machine.OpLoad, Rd: dest, Rs: dest, Size: e.Ty.Bytes()})
		return nil
	case *syntax.UnExpr:
		if err := gen.eval(e.X, dest, depth); err != nil {
			return err
		}
		t := e.Ty
		if t.Kind == syntax.FloatType {
			if e.Op != syntax.MINUS {
				return gen.errf(nil, "float operator %s unsupported", e.Op)
			}
			// -x == 0.0 - x; 0.0 has bit pattern 0, so RZero serves.
			gen.emit(machine.Instr{Op: machine.OpFPU, Sub: machine.FSub, Rd: dest, Rs: machine.RZero, Rt: dest})
			return nil
		}
		var sub machine.ALUOp
		switch e.Op {
		case syntax.MINUS:
			sub = machine.ANeg
		case syntax.TILDE:
			sub = machine.ACom
		case syntax.NOT:
			sub = machine.ANot
		default:
			return gen.errf(nil, "unary operator %s unsupported", e.Op)
		}
		gen.emit(machine.Instr{Op: machine.OpALU, Sub: sub, Rd: dest, Rs: dest, Width: width(t)})
		return nil
	case *syntax.BinExpr:
		return gen.evalBin(e, dest, depth)
	case *syntax.PrimExpr:
		return gen.evalPrim(e, dest, depth)
	}
	return gen.errf(nil, "cannot compile expression %T", e)
}

func width(t syntax.Type) int {
	if t.Width == 0 {
		return 64
	}
	return t.Width
}

// evalName loads the value v names, as the checker resolved it: local
// variable (register or frame home), continuation (address of its frame
// block), global (memory), procedure (code address), import or data
// label.
func (gen *generator) evalName(v *syntax.VarExpr, dest machine.Reg) error {
	name := v.Name
	switch v.Ref {
	case syntax.RefLocal:
		if h := gen.f.homes[v.Slot]; h.inReg {
			gen.emit(machine.Instr{Op: machine.OpMov, Rd: dest, Rs: h.reg})
		} else {
			gen.emit(machine.Instr{Op: machine.OpLoad, Rd: dest, Rs: machine.RSP, Imm: h.off, Size: wordSlot, Sym: name})
		}
		return nil
	case syntax.RefCont:
		// A continuation value is the address of its (pc, sp) pair in
		// the current frame (§5.4).
		off := gen.f.pi.ContBlocks[name]
		gen.emit(machine.Instr{Op: machine.OpALUI, Sub: machine.AAdd, Rd: dest, Rs: machine.RSP, Imm: off, Width: 64, Sym: "cont " + name})
		return nil
	case syntax.RefGlobal:
		// Globals live at fixed addresses assigned after codegen; emit a
		// load through a fixed-up absolute address.
		at := gen.emit(machine.Instr{Op: machine.OpLoad, Rd: dest, Rs: machine.RZero, Size: wordSlot, Sym: "global " + name})
		gen.fixupsGlobal = append(gen.fixupsGlobal, fixup{at: at, kind: fixGlobalLoad, name: name})
		return nil
	case syntax.RefProc:
		at := gen.emit(machine.Instr{Op: machine.OpLI, Rd: dest, Sym: "proc " + name})
		gen.f.fixups = append(gen.f.fixups, fixup{at: at, kind: fixLIProc, name: name})
		return nil
	}
	if i, ok := gen.fidx[name]; ok {
		gen.emit(machine.Instr{Op: machine.OpLI, Rd: dest, Imm: int64(machine.ForeignAddr(i)), Sym: "foreign " + name})
		return nil
	}
	if addr, ok := gen.labels[name]; ok {
		gen.emit(machine.Instr{Op: machine.OpLI, Rd: dest, Imm: int64(addr), Sym: "data " + name})
		return nil
	}
	return gen.errf(nil, "cannot compile reference to %s", name)
}

func (gen *generator) evalBin(e *syntax.BinExpr, dest machine.Reg, depth int) error {
	xt := e.X.Type()
	if xt.Kind == syntax.FloatType {
		return gen.evalFloatBin(e, dest, depth)
	}
	w := width(xt)
	// Immediate form when the right operand is a small literal.
	if lit, ok := e.Y.(*syntax.IntLit); ok && lit.Val < 1<<31 {
		if sub, ok := aluFor(e.Op); ok && sub != machine.ADivU && sub != machine.ARemU {
			if err := gen.eval(e.X, dest, depth); err != nil {
				return err
			}
			gen.emit(machine.Instr{Op: machine.OpALUI, Sub: sub, Rd: dest, Rs: dest, Imm: int64(lit.Val), Width: w})
			return nil
		}
	}
	if err := gen.eval(e.X, dest, depth); err != nil {
		return err
	}
	rt, ok := gen.scratchAt(depth)
	if !ok {
		return gen.errf(nil, "expression too deep; simplify or use a temporary")
	}
	if err := gen.eval(e.Y, rt, depth+1); err != nil {
		return err
	}
	switch e.Op {
	case syntax.ANDAND, syntax.OROR:
		// Pure expressions: no short-circuit needed. Normalize both to
		// 0/1 and combine.
		gen.emit(machine.Instr{Op: machine.OpALU, Sub: machine.ANe, Rd: dest, Rs: dest, Rt: machine.RZero, Width: 64})
		gen.emit(machine.Instr{Op: machine.OpALU, Sub: machine.ANe, Rd: rt, Rs: rt, Rt: machine.RZero, Width: 64})
		sub := machine.AAnd
		if e.Op == syntax.OROR {
			sub = machine.AOr
		}
		gen.emit(machine.Instr{Op: machine.OpALU, Sub: sub, Rd: dest, Rs: dest, Rt: rt, Width: 64})
		return nil
	}
	sub, ok := aluFor(e.Op)
	if !ok {
		return gen.errf(nil, "operator %s unsupported", e.Op)
	}
	gen.emit(machine.Instr{Op: machine.OpALU, Sub: sub, Rd: dest, Rs: dest, Rt: rt, Width: w})
	return nil
}

func (gen *generator) scratchAt(depth int) (machine.Reg, bool) {
	if depth < len(scratchPool) {
		return scratchPool[depth], true
	}
	return 0, false
}

func aluFor(op syntax.Kind) (machine.ALUOp, bool) {
	switch op {
	case syntax.PLUS:
		return machine.AAdd, true
	case syntax.MINUS:
		return machine.ASub, true
	case syntax.STAR:
		return machine.AMul, true
	case syntax.SLASH:
		return machine.ADivU, true
	case syntax.PERCENT:
		return machine.ARemU, true
	case syntax.AMP:
		return machine.AAnd, true
	case syntax.PIPE:
		return machine.AOr, true
	case syntax.CARET:
		return machine.AXor, true
	case syntax.SHL:
		return machine.AShl, true
	case syntax.SHR:
		return machine.AShrU, true
	case syntax.EQ:
		return machine.AEq, true
	case syntax.NE:
		return machine.ANe, true
	case syntax.LT:
		return machine.ALtU, true
	case syntax.LE:
		return machine.ALeU, true
	case syntax.GT:
		return machine.AGtU, true
	case syntax.GE:
		return machine.AGeU, true
	}
	return 0, false
}

func (gen *generator) evalFloatBin(e *syntax.BinExpr, dest machine.Reg, depth int) error {
	if err := gen.eval(e.X, dest, depth); err != nil {
		return err
	}
	rt, ok := gen.scratchAt(depth)
	if !ok {
		return gen.errf(nil, "expression too deep; simplify or use a temporary")
	}
	if err := gen.eval(e.Y, rt, depth+1); err != nil {
		return err
	}
	var sub machine.ALUOp
	switch e.Op {
	case syntax.PLUS:
		sub = machine.FAdd
	case syntax.MINUS:
		sub = machine.FSub
	case syntax.STAR:
		sub = machine.FMul
	case syntax.SLASH:
		sub = machine.FDiv
	case syntax.EQ:
		sub = machine.FEq
	case syntax.NE:
		sub = machine.FNe
	case syntax.LT:
		sub = machine.FLt
	case syntax.LE:
		sub = machine.FLe
	case syntax.GT:
		sub = machine.FGt
	case syntax.GE:
		sub = machine.FGe
	default:
		return gen.errf(nil, "float operator %s unsupported", e.Op)
	}
	gen.emit(machine.Instr{Op: machine.OpFPU, Sub: sub, Rd: dest, Rs: dest, Rt: rt})
	return nil
}

func (gen *generator) evalPrim(e *syntax.PrimExpr, dest machine.Reg, depth int) error {
	if _, known := check.Primitives[e.Name]; !known {
		return gen.errf(nil, "unknown primitive %%%s", e.Name)
	}
	w := syntax.Word.Width
	if len(e.Args) > 0 {
		w = width(e.Args[0].Type())
	}
	if err := gen.eval(e.Args[0], dest, depth); err != nil {
		return err
	}
	var rt machine.Reg
	if len(e.Args) > 1 {
		var ok bool
		rt, ok = gen.scratchAt(depth)
		if !ok {
			return gen.errf(nil, "expression too deep; simplify or use a temporary")
		}
		if err := gen.eval(e.Args[1], rt, depth+1); err != nil {
			return err
		}
	}
	var sub machine.ALUOp
	switch e.Name {
	case "divu":
		sub = machine.ADivU
	case "divs":
		sub = machine.ADivS
	case "remu":
		sub = machine.ARemU
	case "rems":
		sub = machine.ARemS
	case "mulu", "muls":
		sub = machine.AMul
	case "neg":
		sub = machine.ANeg
	case "com":
		sub = machine.ACom
	case "f2i":
		sub = machine.AF2I
	case "i2f":
		sub = machine.AI2F
	default:
		return gen.errf(nil, "primitive %%%s unsupported by codegen", e.Name)
	}
	gen.emit(machine.Instr{Op: machine.OpALU, Sub: sub, Rd: dest, Rs: dest, Rt: rt, Width: w})
	return nil
}
