// The native engine, the production execution loop: the program is
// compiled, once, into chains of Go closures — one closure per
// instruction, each calling its successor directly — so execution is
// host-native control flow with no decode loop and no opcode switch. A
// small trampoline dispatches between straight-line runs: every control
// transfer (branch, call, return, cut) returns the next pc, and the
// trampoline enters the chain compiled for it. Any pc is a valid entry —
// cut-to continuations, alternate returns, and run-time resumption land
// mid-run, and each instruction's closure heads its own chain suffix.
//
// Counter accounting is decoupled from execution (costmodel.go): the
// trampoline charges a whole run's pre-computed aggregate on entry, one
// add per run, and the closures touch no counters at all. The three
// places where a run does not complete restore exactness:
//
//   - a mid-run trap subtracts the trap point's suffix aggregate back
//     out (chunkAcct.unwind), leaving the same partial counters the
//     reference stepper produces,
//   - a run that might cross the instruction budget is not entered
//     natively at all; the trampoline flushes and hands the rest of the
//     execution to the reference stepper, which counts per instruction
//     and so traps at exactly the instruction the spec does,
//   - callouts (yield, foreign) flush before handing off, so run-time
//     systems observe the same counters as under the reference engine.
//
// The parity suites assert bit-identical Counters, registers, memory,
// trap errors, and observability event streams against the reference
// engine (and, for whole programs, the §5 interpreter).

package machine

import (
	"encoding/binary"
	"fmt"

	"cmm/internal/obs"
)

// natFn executes from one instruction through its run's terminator and
// returns the next pc, or a negative natStatus.
type natFn func(*natState) int

// natStatus values returned by closure chains (negative, so ordinary
// pcs pass through unharmed).
const (
	natHalt     = -1 // halted; counters flushed
	natCallout  = -2 // yield/foreign done; counters flushed; m.PC is next
	natTrapAt   = -3 // trap at trapPC mid-run: unwind its suffix, flush
	natTrapDone = -4 // trap at trapPC with counters exact as accumulated
	natErr      = -5 // callout error; counters flushed; return trapErr
)

// natState is the trampoline's execution state. All simulated state
// (registers, memory, counters) lives in the Machine or in acct, so
// abandoning host control flow at any point loses nothing — that is
// what makes mid-run traps and budget handoff exact.
type natState struct {
	m       *Machine
	regs    *[NumRegs]uint64
	mem     []byte
	acct    chunkAcct
	trapPC  int
	trapErr error
}

func (st *natState) trapAt(pc int, format string, args ...any) int {
	st.trapPC = pc
	st.trapErr = &TrapError{PC: pc, Msg: fmt.Sprintf(format, args...)}
	return natTrapAt
}

// natProg is one compiled program: a closure chain per pc plus the
// suffix cost aggregates the trampoline charges and unwinds.
type natProg struct {
	fns     []natFn
	agg     []costDelta
	kernels int               // cycle entries rewritten by the distiller (native_opt.go)
	report  []KernelCandidate // one verdict per candidate cycle, in discovery order
}

// ensureNative (re)compiles the closure chains if m.Code or the cost
// model changed since the last compile. Replacing m.Code with a new
// slice invalidates the cache; callers that change the program replace
// the slice rather than mutating its instructions in place.
func (m *Machine) ensureNative() {
	if len(m.Code) == 0 {
		m.native = nil
		m.nativePtr = nil
		m.nativeLen = 0
		return
	}
	if m.native != nil && m.nativePtr == &m.Code[0] && m.nativeLen == len(m.Code) && m.nativeCost == m.Cost {
		return
	}
	m.native = compileNative(m.Code, m.Cost)
	m.nativePtr = &m.Code[0]
	m.nativeLen = len(m.Code)
	m.nativeCost = m.Cost
}

// ExplainKernels compiles the native tier's closure chains if needed and
// returns the distiller's kernel report: one verdict per candidate cycle
// (matched shape with its closed form, or the precise rejection reason).
// Pure compile-time introspection — no execution happens.
func (m *Machine) ExplainKernels() []KernelCandidate {
	m.ensureNative()
	if m.native == nil {
		return nil
	}
	return append([]KernelCandidate(nil), m.native.report...)
}

// RunNative executes until Halt or an error on the native tier. Like
// Run, the caller must set PC and argument registers first.
func (m *Machine) RunNative() error {
	m.ensureNative()
	m.beginRun()
	p := m.native
	if m.natSt == nil {
		m.natSt = &natState{}
	}
	st := m.natSt
	st.m = m
	st.regs = &m.Regs
	st.mem = m.Mem
	st.regs[RZero] = 0
	st.acct.begin(m)
	pc := m.PC
	for {
		if st.acct.total >= st.acct.slice {
			// Budget-slice edge between straight-line runs: flush and
			// pause. Chains never pause mid-run, so the overshoot past
			// the edge is bounded by the longest straight-line run (and
			// the kernels cap their closed forms with headroom()).
			st.acct.flush(m, pc)
			return m.pauseSlice()
		}
		if p == nil || uint(pc) >= uint(len(p.fns)) {
			st.acct.flush(m, pc)
			return m.trapf("pc out of range")
		}
		a := &p.agg[pc]
		if st.acct.total+a.instrs > st.acct.limit {
			// The run from pc may cross the instruction budget. Finish
			// on the reference stepper: per-instruction counting traps
			// at exactly the instruction the spec does.
			st.acct.flush(m, pc)
			m.Telem.DeoptBudget++
			if o := m.Obs; o != nil && o.EngineEvents {
				o.Emit(obs.Event{Kind: obs.KDeopt, Ts: m.Stats.Cycles, Instr: m.Stats.Instrs,
					PC: int32(pc), SP: m.Regs[RSP], A: obs.DeoptBudget})
			}
			return m.stepLoop()
		}
		st.acct.add(a)
		m.Telem.ChainDispatches++
		r := p.fns[pc](st)
		if r >= 0 {
			pc = r
			continue
		}
		switch r {
		case natHalt:
			return nil
		case natCallout:
			if m.halted {
				return nil
			}
			pc = m.PC
			st.mem = m.Mem
			st.regs[RZero] = 0
			st.acct.begin(m)
		case natTrapAt:
			st.acct.unwind(&p.agg[st.trapPC])
			st.acct.flush(m, st.trapPC)
			return st.trapErr
		case natTrapDone:
			st.acct.flush(m, st.trapPC)
			return st.trapErr
		default: // natErr
			return st.trapErr
		}
	}
}

// compileNative builds the closure chain for every pc, sharing suffixes:
// chains are built backward, each instruction's closure capturing its
// successor and calling it directly, so a straight-line run executes as
// nested host calls with zero dispatch.
func compileNative(code []Instr, cost Costs) *natProg {
	p := &natProg{
		fns: make([]natFn, len(code)),
		agg: suffixAggregates(code, cost),
	}
	for i := len(code) - 1; i >= 0; i-- {
		in := &code[i]
		if isRunTerminator(in.Op) {
			p.fns[i] = compileTerm(i, in)
			continue
		}
		next := natFallthrough(i + 1)
		if i+1 < len(code) {
			next = p.fns[i+1]
		}
		p.fns[i] = compileStraight(i, in, next)
	}
	fuseChains(p, code, cost)
	return p
}

// natFallthrough covers a straight-line instruction at the end of code:
// control falls off the end and the trampoline traps "pc out of range".
func natFallthrough(pc int) natFn {
	return func(st *natState) int { return pc }
}

// compileStraight specializes one non-terminator instruction into a
// closure that does its work and chains to the next. The closure does
// no counting (the run aggregate covers it); on a trap it reports the
// trap point and the trampoline reconstructs the partial counters.
func compileStraight(i int, in *Instr, next natFn) natFn {
	switch in.Op {
	case OpNop:
		return func(st *natState) int { return next(st) }
	case OpLI:
		rd, imm := in.Rd, uint64(in.Imm)
		if rd == RZero {
			return func(st *natState) int { return next(st) }
		}
		return func(st *natState) int {
			st.regs[rd] = imm
			return next(st)
		}
	case OpMov:
		rd, rs := in.Rd, in.Rs
		if rd == RZero {
			return func(st *natState) int { return next(st) }
		}
		return func(st *natState) int {
			st.regs[rd] = st.regs[rs]
			return next(st)
		}
	case OpALU, OpALUI:
		return compileALU(i, in, next)
	case OpFPU:
		rd, rs, rt, sub := in.Rd, in.Rs, in.Rt, in.Sub
		return func(st *natState) int {
			v, err := fpuOp(sub, st.regs[rs], st.regs[rt])
			if err != nil {
				return st.trapAt(i, "%v", err)
			}
			if rd != RZero {
				st.regs[rd] = v
			}
			return next(st)
		}
	case OpLoad:
		rd, rs, imm, size := in.Rd, in.Rs, uint64(in.Imm), int32(in.Size)
		if size == 8 && rd != RZero {
			return func(st *natState) int {
				addr := st.regs[rs] + imm
				v, ok := loadMem(st.mem, addr, 8)
				if !ok {
					return st.trapAt(i, "load of 8 bytes at %#x outside memory", addr)
				}
				st.regs[rd] = v
				return next(st)
			}
		}
		return func(st *natState) int {
			addr := st.regs[rs] + imm
			v, ok := loadMem(st.mem, addr, size)
			if !ok {
				return st.trapAt(i, "load of %d bytes at %#x outside memory", size, addr)
			}
			if rd != RZero {
				st.regs[rd] = v
			}
			return next(st)
		}
	case OpStore:
		rs, rt, imm, size := in.Rs, in.Rt, uint64(in.Imm), int32(in.Size)
		if size == 8 {
			return func(st *natState) int {
				addr := st.regs[rs] + imm
				if !storeMem(st.mem, addr, st.regs[rt], 8) {
					return st.trapAt(i, "store of 8 bytes at %#x outside memory", addr)
				}
				return next(st)
			}
		}
		return func(st *natState) int {
			addr := st.regs[rs] + imm
			if !storeMem(st.mem, addr, st.regs[rt], size) {
				return st.trapAt(i, "store of %d bytes at %#x outside memory", size, addr)
			}
			return next(st)
		}
	}
	// Unreachable: isRunTerminator covers everything else.
	return func(st *natState) int {
		return st.trapAt(i, "illegal opcode %d", in.Op)
	}
}

// loadMem reads size bytes little-endian from mem; ok is false when the
// access is out of bounds (the caller reports the reference engine's
// trap).
func loadMem(mem []byte, addr uint64, size int32) (uint64, bool) {
	end := addr + uint64(size)
	if end > uint64(len(mem)) || end < addr {
		return 0, false
	}
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(mem[addr:]), true
	case 4:
		return uint64(binary.LittleEndian.Uint32(mem[addr:])), true
	case 2:
		return uint64(binary.LittleEndian.Uint16(mem[addr:])), true
	case 1:
		return uint64(mem[addr]), true
	}
	var buf [8]byte
	copy(buf[:], mem[addr:end])
	v := binary.LittleEndian.Uint64(buf[:])
	if size < 8 {
		v &= 1<<uint(8*size) - 1
	}
	return v, true
}

// storeMem writes size bytes little-endian; ok is false when out of
// bounds.
func storeMem(mem []byte, addr, v uint64, size int32) bool {
	end := addr + uint64(size)
	if end > uint64(len(mem)) || end < addr {
		return false
	}
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(mem[addr:], v)
	case 4:
		binary.LittleEndian.PutUint32(mem[addr:], uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(mem[addr:], uint16(v))
	case 1:
		mem[addr] = byte(v)
	default:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		copy(mem[addr:end], buf[:size])
	}
	return true
}

// fusableALU reports whether an ALU sub-operation can never trap: such
// ops compile to branch-free closures, and the distiller may fold them
// into a kernel's closed form.
func fusableALU(sub ALUOp) bool {
	switch sub {
	case ADivU, ADivS, ARemU, ARemS, AF2I:
		return false
	}
	return true
}

// compileALU specializes the ALU ops. The dominant shapes (add, sub,
// compares at width 32/64) get dedicated closures; the rest share a
// generic one. Trapping sub-operations (divides, float-to-int) check
// and report their trap point; the others are branch-free.
func compileALU(i int, in *Instr, next natFn) natFn {
	rd, rs, sub, width := in.Rd, in.Rs, in.Sub, in.Width
	imm := in.Op == OpALUI
	rt, immv := in.Rt, uint64(in.Imm)
	if rd != RZero && fusableALU(sub) {
		w32 := width == 32
		w64 := width <= 0 || width >= 64
		switch {
		case sub == AAdd && imm && w32:
			return func(st *natState) int {
				st.regs[rd] = (st.regs[rs] + immv) & 0xFFFFFFFF
				return next(st)
			}
		case sub == AAdd && imm && w64:
			return func(st *natState) int {
				st.regs[rd] = st.regs[rs] + immv
				return next(st)
			}
		case sub == AAdd && !imm && w32:
			return func(st *natState) int {
				st.regs[rd] = (st.regs[rs] + st.regs[rt]) & 0xFFFFFFFF
				return next(st)
			}
		case sub == AAdd && !imm && w64:
			return func(st *natState) int {
				st.regs[rd] = st.regs[rs] + st.regs[rt]
				return next(st)
			}
		case sub == ASub && imm && w32:
			return func(st *natState) int {
				st.regs[rd] = (st.regs[rs] - immv) & 0xFFFFFFFF
				return next(st)
			}
		case sub == ASub && imm && w64:
			return func(st *natState) int {
				st.regs[rd] = st.regs[rs] - immv
				return next(st)
			}
		case sub == AMul && imm && w32:
			return func(st *natState) int {
				st.regs[rd] = (st.regs[rs] * immv) & 0xFFFFFFFF
				return next(st)
			}
		case sub == AMul && !imm && w32:
			return func(st *natState) int {
				st.regs[rd] = (st.regs[rs] * st.regs[rt]) & 0xFFFFFFFF
				return next(st)
			}
		case sub == AEq && imm:
			return func(st *natState) int {
				if st.regs[rs] == immv {
					st.regs[rd] = 1
				} else {
					st.regs[rd] = 0
				}
				return next(st)
			}
		case sub == AEq && !imm:
			return func(st *natState) int {
				if st.regs[rs] == st.regs[rt] {
					st.regs[rd] = 1
				} else {
					st.regs[rd] = 0
				}
				return next(st)
			}
		}
	}
	if !fusableALU(sub) {
		// May trap (divide by zero, float-to-int range).
		if imm {
			return func(st *natState) int {
				v, err := aluOp(sub, st.regs[rs], immv, width)
				if err != nil {
					return st.trapAt(i, "%v", err)
				}
				if rd != RZero {
					st.regs[rd] = v
				}
				return next(st)
			}
		}
		return func(st *natState) int {
			v, err := aluOp(sub, st.regs[rs], st.regs[rt], width)
			if err != nil {
				return st.trapAt(i, "%v", err)
			}
			if rd != RZero {
				st.regs[rd] = v
			}
			return next(st)
		}
	}
	if imm {
		return func(st *natState) int {
			v, _ := aluOp(sub, st.regs[rs], immv, width)
			if rd != RZero {
				st.regs[rd] = v
			}
			return next(st)
		}
	}
	return func(st *natState) int {
		v, _ := aluOp(sub, st.regs[rs], st.regs[rt], width)
		if rd != RZero {
			st.regs[rd] = v
		}
		return next(st)
	}
}

// compileTerm builds the closure for a run terminator. Control
// transfers return the next pc; callouts flush, run the handler, and
// report natCallout; traps mirror Step's exact counter ordering: a
// corrupt-ra return or an explicit trap is charged nothing, while a
// failed indirect call/jump keeps its transfer costs.
func compileTerm(pc int, in *Instr) natFn {
	switch in.Op {
	case OpBZ:
		rs, target, next := in.Rs, in.Target, pc+1
		return func(st *natState) int {
			if st.regs[rs] == 0 {
				return target
			}
			return next
		}
	case OpBNZ:
		rs, target, next := in.Rs, in.Target, pc+1
		return func(st *natState) int {
			if st.regs[rs] != 0 {
				return target
			}
			return next
		}
	case OpJmp:
		target := in.Target
		return func(st *natState) int { return target }
	case OpJmpR:
		rs, mark := in.Rs, in.Mark
		return func(st *natState) int {
			v := st.regs[rs]
			if fi, isF := ForeignIndex(v); isF {
				// Tail call to foreign code: run it, return via ra.
				m := st.m
				st.acct.flush(m, pc)
				if err := m.callForeign(fi); err != nil {
					st.trapErr = err
					return natErr
				}
				idx, ok := CodeIndex(m.Regs[RRA])
				if !ok {
					st.trapErr = &TrapError{PC: m.PC, Msg: fmt.Sprintf("foreign tail call with corrupt ra %#x", m.Regs[RRA])}
					return natErr
				}
				m.PC = idx
				return natCallout
			}
			idx, ok := CodeIndex(v)
			if !ok {
				st.trapPC = pc
				st.trapErr = &TrapError{PC: pc, Msg: fmt.Sprintf("indirect jump to non-code address %#x", v)}
				return natTrapDone // transfer costs already charged, like Step
			}
			if mark == MarkCut {
				m := st.m
				if msg := m.cutViolation(idx, st.regs[RSP]); msg != "" {
					st.trapPC = pc
					st.trapErr = &TrapError{PC: pc, Msg: msg}
					return natTrapDone // transfer costs already charged, like Step
				}
				if o := m.Obs; o != nil {
					o.Emit(obs.Event{Kind: obs.KCutTo, Ts: st.acct.ts(), Instr: st.acct.total,
						PC: int32(pc), SP: st.regs[RSP], A: uint64(idx)})
				}
			}
			return idx
		}
	case OpCall:
		target := in.Target
		ra := CodeAddr(pc + 1)
		return func(st *natState) int {
			st.regs[RRA] = ra
			if o := st.m.Obs; o != nil {
				o.Emit(obs.Event{Kind: obs.KCall, Ts: st.acct.ts(), Instr: st.acct.total,
					PC: int32(pc), SP: st.regs[RSP], A: uint64(target)})
			}
			return target
		}
	case OpCallR:
		rs := in.Rs
		ra := CodeAddr(pc + 1)
		return func(st *natState) int {
			if fi, isF := ForeignIndex(st.regs[rs]); isF {
				// Direct-style call to foreign code: run it and continue.
				m := st.m
				st.acct.flush(m, pc)
				if err := m.callForeign(fi); err != nil {
					st.trapErr = err
					return natErr
				}
				m.PC = pc + 1
				return natCallout
			}
			st.regs[RRA] = ra
			v := st.regs[rs] // re-read: rs may be ra itself
			idx, ok := CodeIndex(v)
			if !ok {
				st.trapPC = pc
				st.trapErr = &TrapError{PC: pc, Msg: fmt.Sprintf("indirect call to non-code address %#x", v)}
				return natTrapDone // transfer costs already charged, like Step
			}
			if o := st.m.Obs; o != nil {
				o.Emit(obs.Event{Kind: obs.KCall, Ts: st.acct.ts(), Instr: st.acct.total,
					PC: int32(pc), SP: st.regs[RSP], A: uint64(idx)})
			}
			return idx
		}
	case OpRetOff:
		off, mark := int(in.Imm), in.Mark
		return func(st *natState) int {
			ra := st.regs[RRA]
			idx, ok := CodeIndex(ra)
			if !ok {
				// Charged nothing, like Step: the unwind drops the Ret
				// cycles and the branch count.
				return st.trapAt(pc, "return with corrupt ra %#x", ra)
			}
			next := idx + off
			if o := st.m.Obs; o != nil {
				k := obs.KReturn
				if mark == MarkAltReturn {
					k = obs.KAltReturn
				}
				o.Emit(obs.Event{Kind: k, Ts: st.acct.ts(), Instr: st.acct.total,
					PC: int32(pc), SP: st.regs[RSP], A: uint64(next), B: uint64(off)})
			}
			return next
		}
	case OpYield:
		return func(st *natState) int {
			m := st.m
			st.acct.flush(m, pc)
			m.Stats.Yields++
			if o := m.Obs; o != nil {
				o.Emit(obs.Event{Kind: obs.KYield, Ts: m.Stats.Cycles, Instr: m.Stats.Instrs,
					PC: int32(pc), SP: st.regs[RSP], A: st.regs[RA0]})
			}
			if m.YieldHandler == nil {
				st.trapErr = &TrapError{PC: pc, Msg: "yield with no run-time system"}
				return natErr
			}
			m.PC = pc + 1 // the handler sees the resume point past the yield
			if err := m.YieldHandler(m); err != nil {
				st.trapErr = err
				return natErr
			}
			return natCallout
		}
	case OpForeign:
		fi := int(in.Imm)
		return func(st *natState) int {
			m := st.m
			st.acct.flush(m, pc)
			m.PC = pc + 1
			if err := m.callForeign(fi); err != nil {
				st.trapErr = err
				return natErr
			}
			return natCallout
		}
	case OpHalt:
		return func(st *natState) int {
			st.m.halted = true
			st.acct.flush(st.m, pc)
			return natHalt
		}
	case OpTrap:
		sym := in.Sym
		return func(st *natState) int {
			return st.trapAt(pc, "trap: %s", sym)
		}
	}
	op := in.Op
	return func(st *natState) int {
		return st.trapAt(pc, "illegal opcode %d", op)
	}
}
