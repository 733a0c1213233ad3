// Package machine implements the simulated target machine on which
// compiled C-- runs. The real paper targets SPARC/MIPS/Alpha; Go has no
// user-visible registers or cuttable stack, so we substitute a
// deterministic register machine with the features the paper's cost
// arguments depend on:
//
//   - separate caller-saves and callee-saves register banks,
//   - an explicit activation stack in simulated memory,
//   - argument/result registers (the value-passing area A),
//   - return-address-relative returns, enabling the branch-table method
//     of Figures 3 and 4 (jmp %i7+8 / +12 / +16 on SPARC),
//   - a cycle cost model, so that "constant-time cut vs. linear unwind"
//     and "zero normal-case overhead" are measurable claims.
//
// Absolute cycle counts are synthetic; the shapes are what the
// experiments in EXPERIMENTS.md reproduce.
package machine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cmm/internal/obs"
)

// Register numbers. The machine has 32 general registers.
type Reg uint8

// Register banks.
const (
	RZero Reg = 0 // always zero
	RSP   Reg = 1 // stack pointer
	RRA   Reg = 2 // return address
	RGP   Reg = 3 // scratch for the runtime

	RA0 Reg = 4 // argument/result registers a0..a7 (the area A)
	RA7 Reg = 11

	RT0 Reg = 12 // caller-saves temporaries t0..t7
	RT7 Reg = 19

	RS0 Reg = 20 // callee-saves s0..s7
	RS7 Reg = 27

	RX0 Reg = 28 // reserved scratch x0..x3 for code generation
	RX3 Reg = 31

	NumRegs = 32
)

// NumA is the number of argument/result registers.
const NumA = int(RA7-RA0) + 1

// NumS is the number of callee-saves registers.
const NumS = int(RS7-RS0) + 1

// NumT is the number of caller-saves temporaries.
const NumT = int(RT7-RT0) + 1

func (r Reg) String() string {
	switch {
	case r == RZero:
		return "zero"
	case r == RSP:
		return "sp"
	case r == RRA:
		return "ra"
	case r == RGP:
		return "gp"
	case r >= RA0 && r <= RA7:
		return fmt.Sprintf("a%d", r-RA0)
	case r >= RT0 && r <= RT7:
		return fmt.Sprintf("t%d", r-RT0)
	case r >= RS0 && r <= RS7:
		return fmt.Sprintf("s%d", r-RS0)
	case r >= RX0 && r <= RX3:
		return fmt.Sprintf("x%d", r-RX0)
	}
	return fmt.Sprintf("r%d", int(r))
}

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	OpNop     Op = iota
	OpLI         // rd := imm
	OpMov        // rd := rs
	OpALU        // rd := rs <aluop> rt
	OpALUI       // rd := rs <aluop> imm
	OpFPU        // rd := rs <fpuop> rt (float64 bit patterns)
	OpLoad       // rd := mem[rs + imm] (Size bytes)
	OpStore      // mem[rs + imm] := rt (Size bytes)
	OpBZ         // if rs == 0: pc := Target
	OpBNZ        // if rs != 0: pc := Target
	OpJmp        // pc := Target
	OpJmpR       // pc := rs (a code address)
	OpCall       // ra := code address of pc+1; pc := Target
	OpCallR      // ra := code address of pc+1; pc := rs
	OpRetOff     // pc := ra + Imm instructions (branch-table return)
	OpYield      // trap to the front-end run-time system
	OpForeign    // call host function #Imm
	OpHalt       // stop; results in a-registers
	OpTrap       // deliberate trap: "went wrong" (e.g. %div fault path)
)

// ALU sub-operations for OpALU/OpALUI.
type ALUOp uint8

// ALU operations; comparison ops yield 0/1.
const (
	AAdd ALUOp = iota
	ASub
	AMul
	ADivU
	ADivS
	ARemU
	ARemS
	AAnd
	AOr
	AXor
	AShl
	AShrU
	AEq
	ANe
	ALtU
	ALeU
	AGtU
	AGeU
	ANot // unary: rd := rs == 0
	ANeg // unary: rd := -rs
	ACom // unary: rd := ^rs
	AF2I // unary: rd := int(float64frombits(rs)); traps on NaN/overflow
	AI2F // unary: rd := float64bits(float64(signextend(rs)))
)

// FPU sub-operations (operands are float64 bit patterns).
const (
	FAdd ALUOp = iota
	FSub
	FMul
	FDiv
	FEq
	FNe
	FLt
	FLe
	FGt
	FGe
)

// Instr is one machine instruction.
type Instr struct {
	Op     Op
	Sub    ALUOp
	Rd     Reg
	Rs     Reg
	Rt     Reg
	Imm    int64
	Target int    // resolved code index for branches/jumps/calls
	Size   int    // bytes for Load/Store (1, 2, 4, 8)
	Width  int    // operand width in bits for ALU ops (wraparound)
	Sym    string // label/comment for disassembly
	Mark   uint8  // observability marker (MarkCut, MarkAltReturn)
}

// Instruction markers set by the code generator so the engines can
// classify control transfers for the tracer without guessing: a `cut to`
// compiles to an ordinary indirect jump, and an alternate return to an
// ordinary offset return, distinguishable only at emission time. Marks
// never affect execution or cost.
const (
	MarkNone      uint8 = iota
	MarkCut             // OpJmpR implementing `cut to`
	MarkAltReturn       // OpRetOff taking an alternate return continuation
)

// CodeBase is added to instruction indices to form code addresses, so
// code pointers and data pointers occupy disjoint ranges.
const CodeBase = 0x40000000

// ForeignBase is the start of the address range encoding foreign
// (host-implemented) procedures, above all real code.
const ForeignBase = CodeBase + 0x0F000000

// CodeAddr converts an instruction index to a code address.
func CodeAddr(idx int) uint64 { return uint64(CodeBase + idx) }

// CodeIndex converts a code address back to an instruction index.
func CodeIndex(addr uint64) (int, bool) {
	if addr < CodeBase || addr >= ForeignBase {
		return 0, false
	}
	return int(addr - CodeBase), true
}

// ForeignAddr encodes foreign-function index i as a fake code address.
func ForeignAddr(i int) uint64 { return uint64(ForeignBase + i*16) }

// ForeignIndex decodes a foreign address.
func ForeignIndex(addr uint64) (int, bool) {
	if addr < ForeignBase || (addr-ForeignBase)%16 != 0 {
		return 0, false
	}
	return int(addr-ForeignBase) / 16, true
}

// Costs is the cycle cost model. The values are synthetic but fixed; the
// experiments depend only on their relative magnitudes (memory traffic
// costs more than register traffic; a trap to the run-time system costs
// much more than an instruction).
type Costs struct {
	ALU     int64
	Load    int64
	Store   int64
	Branch  int64
	Jump    int64
	Call    int64
	Ret     int64
	Yield   int64
	Foreign int64
}

// DefaultCosts is the standard cost model.
var DefaultCosts = Costs{
	ALU:    1,
	Load:   3,
	Store:  3,
	Branch: 1,
	Jump:   1,
	Call:   2,
	Ret:    2,
	// A yield reaches the front-end run-time system through the C--
	// run-time interface: a trap plus C-call overhead.
	Yield:   40,
	Foreign: 10,
}

// Counters accumulates execution statistics.
type Counters struct {
	Cycles   int64
	Instrs   int64
	Loads    int64
	Stores   int64
	Branches int64
	Calls    int64
	Yields   int64
}

// String renders the counters as the one-line form the CLIs' -stats prints.
func (c Counters) String() string {
	return fmt.Sprintf("cycles: %d instrs: %d loads: %d stores: %d branches: %d calls: %d yields: %d",
		c.Cycles, c.Instrs, c.Loads, c.Stores, c.Branches, c.Calls, c.Yields)
}

// Telemetry is the engine-introspection counter set: how the engine got
// its work done, as opposed to Counters, which says what the simulated
// program did. Telemetry is engine-dependent by design — the reference
// engine leaves it all zero, and the native engine counts kernel
// activity, deoptimizations and chain dispatches — and it is
// deterministic for a given (program, engine, budget): two identical
// runs produce identical telemetry. It never feeds back into Stats, so
// it is cost-neutral by construction.
type Telemetry struct {
	// KernelEntries counts native-tier kernel activations that completed
	// at least one closed-form iteration.
	KernelEntries int64
	// KernelIters is the total closed-form iterations charged by kernels.
	KernelIters int64
	// KernelInstrs is the simulated instructions those iterations
	// retired (KernelIters x instructions per iteration, per kernel).
	KernelInstrs int64
	// Deopt* bucket every kernel activation's hand-back to the ordinary
	// closure chains by reason. Exactly one bucket increments per
	// activation (including activations that ran zero iterations).
	// DeoptBudget also counts the trampoline's hand-off of a run's tail
	// to the reference stepper at the instruction-budget edge.
	DeoptCycleExit int64 // the cycle's own exit condition was reached
	DeoptTrap      int64 // stopped at a memory bound: a potential trap must run on the chains
	DeoptBudget    int64 // stopped at the instruction-budget edge
	DeoptObserver  int64 // kernel refused to run: an observer needs the cycle's events
	DeoptPolicy    int64 // always zero: stack representations are priced by trace replay, so no kernel refuses for one
	DeoptSlice     int64 // stopped at a budget-slice edge (SliceLimit): the scheduler preempts here
	// ChainDispatches counts native-tier trampoline dispatches (one per
	// closure-chain entry).
	ChainDispatches int64
}

// Engine selects the execution loop used by Run. Both engines implement
// the same cost model bit-for-bit; they differ only in host speed.
type Engine uint8

const (
	// EngineNative is the production engine and the default: it
	// compiles the program to chains of Go closures (native.go) — no
	// decode loop, no opcode switch — charging pre-computed per-run
	// counter aggregates (costmodel.go) instead of counting per
	// instruction, with closed-form kernels for hot cycles
	// (native_opt.go).
	EngineNative Engine = iota
	// EngineRef is the reference engine and the specification: one
	// Step() per instruction, a direct transcription of the instruction
	// semantics.
	EngineRef
)

// Machine is the simulated CPU plus memory.
type Machine struct {
	Regs  [NumRegs]uint64
	PC    int
	Code  []Instr
	Mem   []byte
	Cost  Costs
	Stats Counters

	// Telem accumulates engine-introspection counters (kernel activity,
	// deopts, dispatch counts). Unlike Stats it is engine-dependent;
	// like Stats it accumulates across runs and is deterministic per
	// engine.
	Telem Telemetry

	// Engine selects the Run loop (the native tier or the reference
	// stepper). Simulated counters are identical under both.
	Engine Engine

	// Obs, when non-nil, receives control-transfer events (calls,
	// returns, cuts, yields, foreign calls) from every engine. Observers
	// are passive: counters, registers, and memory are bit-identical with
	// or without one, and both engines emit identical event streams.
	Obs *obs.Observer

	// ContMode selects the machine-checked one-shot/multi-shot reuse
	// contract on cut continuations (contmode.go); contSeen tracks, per
	// run, which continuations have been cut to when the mode is not
	// unchecked. Stack is the representation the run declares: only the
	// multi-shot check reads it, and execution never does.
	ContMode ContMode
	Stack    obs.StackKind
	contSeen map[contKey]bool

	// Runtime hooks installed by the loader.
	YieldHandler func(m *Machine) error
	ForeignFuncs []func(m *Machine) error
	halted       bool
	// MaxInstrs bounds the instructions of a single Run (a divergence
	// backstop); the counter itself accumulates across runs.
	MaxInstrs int64
	runStart  int64

	// SliceLimit, when positive, turns Run into a budget slice: the
	// engine stops after about that many simulated instructions at a
	// clean instruction boundary — counters flushed, PC at the next
	// unexecuted instruction — and Run returns ErrSlicePaused. Calling
	// Run again continues the same logical run for another slice: the
	// divergence backstop and the seen-continuation set persist until
	// the run halts or traps.
	// The exact pause point is engine-dependent (the native engine
	// pauses between straight-line runs, so a run may overshoot the
	// edge by a few instructions) but deterministic per engine, and the
	// final machine state of a sliced run is bit-identical to the same
	// run executed without slicing.
	SliceLimit int64
	sliceEdge  int64 // absolute Stats.Instrs pause point (MaxInt64 when off)
	paused     bool

	// Compiled closure chains for the native engine, cached per Code
	// slice and cost model (native.go), plus the reusable trampoline
	// state. Replacing m.Code invalidates the cache automatically.
	native     *natProg
	nativePtr  *Instr
	nativeLen  int
	nativeCost Costs
	natSt      *natState
}

// TrapError reports that the machine executed a trap or an illegal
// operation — the compiled analogue of the abstract machine going wrong.
type TrapError struct {
	PC  int
	Msg string
}

func (e *TrapError) Error() string { return fmt.Sprintf("machine trap at pc=%d: %s", e.PC, e.Msg) }

// New creates a machine with the given memory size.
func New(memSize int) *Machine {
	return &Machine{Mem: make([]byte, memSize), Cost: DefaultCosts, MaxInstrs: 200_000_000}
}

// Precompile builds and caches the native engine's closure chains for
// the current Code and cost model without executing anything (the
// reference engine has nothing to build). Run does this lazily; calling
// it eagerly lets many machines share one compile via ShareArtifacts.
func (m *Machine) Precompile() {
	if m.Engine == EngineNative {
		m.ensureNative()
	}
}

// ShareArtifacts adopts src's cached closure chains. The cache is
// validated the same way ensureNative validates it — the code slice
// must share src's backing array and the cost models must match — so a
// stale or mismatched source is simply ignored and m recompiles on
// demand. The chains are immutable during execution (all run state
// lives in the Machine), so any number of machines may execute one
// shared copy, including concurrently.
func (m *Machine) ShareArtifacts(src *Machine) {
	if src == nil || len(m.Code) == 0 || len(src.Code) == 0 {
		return
	}
	if &m.Code[0] != &src.Code[0] || len(m.Code) != len(src.Code) {
		return
	}
	if src.native != nil && src.nativePtr == &src.Code[0] && src.nativeLen == len(src.Code) && src.nativeCost == m.Cost {
		m.native = src.native
		m.nativePtr = src.nativePtr
		m.nativeLen = src.nativeLen
		m.nativeCost = src.nativeCost
	}
}

func (m *Machine) trapf(format string, args ...any) error {
	return &TrapError{PC: m.PC, Msg: fmt.Sprintf(format, args...)}
}

// LoadWord reads size bytes little-endian at addr.
func (m *Machine) LoadWord(addr uint64, size int) (uint64, error) {
	if addr+uint64(size) > uint64(len(m.Mem)) || addr+uint64(size) < addr {
		return 0, m.trapf("load of %d bytes at %#x outside memory", size, addr)
	}
	var buf [8]byte
	copy(buf[:], m.Mem[addr:addr+uint64(size)])
	v := binary.LittleEndian.Uint64(buf[:])
	if size < 8 {
		v &= 1<<uint(8*size) - 1
	}
	return v, nil
}

// StoreWord writes size bytes little-endian at addr.
func (m *Machine) StoreWord(addr, v uint64, size int) error {
	if addr+uint64(size) > uint64(len(m.Mem)) || addr+uint64(size) < addr {
		return m.trapf("store of %d bytes at %#x outside memory", size, addr)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	copy(m.Mem[addr:addr+uint64(size)], buf[:size])
	return nil
}

// Halted reports whether the machine has executed Halt.
func (m *Machine) Halted() bool { return m.halted }

// ErrSlicePaused reports that Run stopped at a budget-slice boundary
// (SliceLimit) rather than halting or trapping. The machine is fully
// flushed and consistent: calling Run again resumes the same logical
// run, and a run-time system may redirect it first (e.g. cut to a
// cancellation continuation) exactly as it could during a yield.
var ErrSlicePaused = errors.New("machine paused at slice boundary")

// Paused reports whether the machine is suspended at a slice boundary
// (the last Run returned ErrSlicePaused and the run has not resumed).
func (m *Machine) Paused() bool { return m.paused }

// beginRun is both engines' entry bookkeeping. A fresh run rebases the
// divergence backstop and resets the per-run continuation-identity
// state; resuming from a slice pause does neither, because a sliced run
// is one logical run. Either way the slice edge is re-armed:
// each Run call gets a full SliceLimit allowance.
func (m *Machine) beginRun() {
	m.halted = false
	if m.paused {
		m.paused = false
	} else {
		m.runStart = m.Stats.Instrs
		clear(m.contSeen)
	}
	if m.SliceLimit > 0 {
		m.sliceEdge = m.Stats.Instrs + m.SliceLimit
	} else {
		m.sliceEdge = math.MaxInt64
	}
}

// pauseSlice marks the machine suspended at a slice boundary. The caller
// must have flushed the counters and left PC at the next unexecuted
// instruction.
func (m *Machine) pauseSlice() error {
	m.paused = true
	return ErrSlicePaused
}

// Run executes until Halt or an error. The caller must set PC and any
// argument registers first. The execution loop is chosen by m.Engine;
// simulated counters are bit-identical either way.
func (m *Machine) Run() error {
	if m.Engine == EngineNative {
		return m.RunNative()
	}
	m.beginRun()
	return m.stepLoop()
}

// stepLoop is the reference engine: Step until halt, an error, or the
// slice edge. The native engine also finishes budget-edge runs here, so
// the divergence backstop fires at exactly the instruction Step counts.
func (m *Machine) stepLoop() error {
	for !m.halted {
		if m.Stats.Instrs >= m.sliceEdge {
			return m.pauseSlice()
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// reg reads a register; the zero register always reads as zero.
func (m *Machine) reg(r Reg) uint64 {
	if r == RZero {
		return 0
	}
	return m.Regs[r]
}

// set writes a register; writes to the zero register are discarded.
func (m *Machine) set(r Reg, v uint64) {
	if r != RZero {
		m.Regs[r] = v
	}
}

func truncate(v uint64, width int) uint64 {
	if width <= 0 || width >= 64 {
		return v
	}
	return v & (1<<uint(width) - 1)
}

func signExtend(v uint64, width int) int64 {
	if width <= 0 || width >= 64 {
		return int64(v)
	}
	shift := uint(64 - width)
	return int64(v<<shift) >> shift
}

// Step executes one instruction. The check order — pc range before the
// instruction count and budget — matches the native engine, which
// cannot charge an instruction it failed to fetch.
func (m *Machine) Step() error {
	if m.PC < 0 || m.PC >= len(m.Code) {
		return m.trapf("pc out of range")
	}
	m.Stats.Instrs++
	if m.Stats.Instrs-m.runStart > m.MaxInstrs {
		return m.trapf("instruction budget exceeded (%d): possible divergence", m.MaxInstrs)
	}
	in := m.Code[m.PC]
	next := m.PC + 1
	switch in.Op {
	case OpNop:
		m.Stats.Cycles += m.Cost.ALU
	case OpLI:
		m.set(in.Rd, uint64(in.Imm))
		m.Stats.Cycles += m.Cost.ALU
	case OpMov:
		m.set(in.Rd, m.reg(in.Rs))
		m.Stats.Cycles += m.Cost.ALU
	case OpALU, OpALUI:
		var b uint64
		if in.Op == OpALUI {
			b = uint64(in.Imm)
		} else {
			b = m.reg(in.Rt)
		}
		v, err := aluOp(in.Sub, m.reg(in.Rs), b, in.Width)
		if err != nil {
			return m.trapf("%v", err)
		}
		m.set(in.Rd, v)
		m.Stats.Cycles += m.Cost.ALU
	case OpFPU:
		v, err := fpuOp(in.Sub, m.reg(in.Rs), m.reg(in.Rt))
		if err != nil {
			return m.trapf("%v", err)
		}
		m.set(in.Rd, v)
		m.Stats.Cycles += m.Cost.ALU
	case OpLoad:
		v, err := m.LoadWord(m.reg(in.Rs)+uint64(in.Imm), in.Size)
		if err != nil {
			return err
		}
		m.set(in.Rd, v)
		m.Stats.Cycles += m.Cost.Load
		m.Stats.Loads++
	case OpStore:
		if err := m.StoreWord(m.reg(in.Rs)+uint64(in.Imm), m.reg(in.Rt), in.Size); err != nil {
			return err
		}
		m.Stats.Cycles += m.Cost.Store
		m.Stats.Stores++
	case OpBZ:
		if m.reg(in.Rs) == 0 {
			next = in.Target
		}
		m.Stats.Cycles += m.Cost.Branch
		m.Stats.Branches++
	case OpBNZ:
		if m.reg(in.Rs) != 0 {
			next = in.Target
		}
		m.Stats.Cycles += m.Cost.Branch
		m.Stats.Branches++
	case OpJmp:
		next = in.Target
		m.Stats.Cycles += m.Cost.Jump
		m.Stats.Branches++
	case OpJmpR:
		m.Stats.Cycles += m.Cost.Jump
		m.Stats.Branches++
		if fi, isF := ForeignIndex(m.reg(in.Rs)); isF {
			// A tail call to foreign code: run it, then return to the
			// caller via ra.
			if err := m.callForeign(fi); err != nil {
				return err
			}
			idx, ok := CodeIndex(m.reg(RRA))
			if !ok {
				return m.trapf("foreign tail call with corrupt ra %#x", m.reg(RRA))
			}
			m.PC = idx
			return nil
		}
		idx, ok := CodeIndex(m.reg(in.Rs))
		if !ok {
			return m.trapf("indirect jump to non-code address %#x", m.reg(in.Rs))
		}
		if in.Mark == MarkCut {
			// The compiled cut sequence has already loaded the target sp
			// into RSP, so the reuse check sees the continuation's own
			// (pc, sp) identity.
			if msg := m.cutViolation(idx, m.Regs[RSP]); msg != "" {
				return m.trapf("%s", msg)
			}
			if m.Obs != nil {
				m.Obs.Emit(obs.Event{Kind: obs.KCutTo, Ts: m.Stats.Cycles, Instr: m.Stats.Instrs,
					PC: int32(m.PC), SP: m.Regs[RSP], A: uint64(idx)})
			}
		}
		next = idx
	case OpCall:
		m.set(RRA, CodeAddr(m.PC+1))
		next = in.Target
		m.Stats.Cycles += m.Cost.Call
		m.Stats.Calls++
		if m.Obs != nil {
			m.Obs.Emit(obs.Event{Kind: obs.KCall, Ts: m.Stats.Cycles, Instr: m.Stats.Instrs,
				PC: int32(m.PC), SP: m.Regs[RSP], A: uint64(in.Target)})
		}
	case OpCallR:
		m.Stats.Cycles += m.Cost.Call
		m.Stats.Calls++
		if fi, isF := ForeignIndex(m.reg(in.Rs)); isF {
			// A direct-style call to foreign code: run it and continue.
			if err := m.callForeign(fi); err != nil {
				return err
			}
			m.PC = next
			return nil
		}
		m.set(RRA, CodeAddr(m.PC+1))
		idx, ok := CodeIndex(m.reg(in.Rs))
		if !ok {
			return m.trapf("indirect call to non-code address %#x", m.reg(in.Rs))
		}
		if m.Obs != nil {
			m.Obs.Emit(obs.Event{Kind: obs.KCall, Ts: m.Stats.Cycles, Instr: m.Stats.Instrs,
				PC: int32(m.PC), SP: m.Regs[RSP], A: uint64(idx)})
		}
		next = idx
	case OpRetOff:
		idx, ok := CodeIndex(m.reg(RRA))
		if !ok {
			return m.trapf("return with corrupt ra %#x", m.reg(RRA))
		}
		next = idx + int(in.Imm)
		m.Stats.Cycles += m.Cost.Ret
		m.Stats.Branches++
		if m.Obs != nil {
			k := obs.KReturn
			if in.Mark == MarkAltReturn {
				k = obs.KAltReturn
			}
			m.Obs.Emit(obs.Event{Kind: k, Ts: m.Stats.Cycles, Instr: m.Stats.Instrs,
				PC: int32(m.PC), SP: m.Regs[RSP], A: uint64(next), B: uint64(in.Imm)})
		}
	case OpYield:
		m.Stats.Cycles += m.Cost.Yield
		m.Stats.Yields++
		if m.Obs != nil {
			m.Obs.Emit(obs.Event{Kind: obs.KYield, Ts: m.Stats.Cycles, Instr: m.Stats.Instrs,
				PC: int32(m.PC), SP: m.Regs[RSP], A: m.Regs[RA0]})
		}
		if m.YieldHandler == nil {
			return m.trapf("yield with no run-time system")
		}
		m.PC = next // the handler sees the resume point past the yield
		if err := m.YieldHandler(m); err != nil {
			return err
		}
		return nil // handler set PC
	case OpForeign:
		m.Stats.Cycles += m.Cost.Foreign
		m.PC = next
		if err := m.callForeign(int(in.Imm)); err != nil {
			return err
		}
		return nil
	case OpHalt:
		m.halted = true
		return nil
	case OpTrap:
		return m.trapf("trap: %s", in.Sym)
	default:
		return m.trapf("illegal opcode %d", in.Op)
	}
	m.PC = next
	return nil
}

func (m *Machine) callForeign(idx int) error {
	m.Stats.Cycles += m.Cost.Foreign
	// Both engines reach here with flushed counters (the native engine
	// flushes before any callout), so the event is engine-identical.
	if m.Obs != nil {
		m.Obs.Emit(obs.Event{Kind: obs.KForeign, Ts: m.Stats.Cycles, Instr: m.Stats.Instrs,
			PC: int32(m.PC), SP: m.Regs[RSP], A: uint64(idx)})
	}
	if idx < 0 || idx >= len(m.ForeignFuncs) {
		return m.trapf("foreign function #%d not registered", idx)
	}
	return m.ForeignFuncs[idx](m)
}

func aluOp(op ALUOp, a, b uint64, width int) (uint64, error) {
	boolv := func(c bool) (uint64, error) {
		if c {
			return 1, nil
		}
		return 0, nil
	}
	switch op {
	case AAdd:
		return truncate(a+b, width), nil
	case ASub:
		return truncate(a-b, width), nil
	case AMul:
		return truncate(a*b, width), nil
	case ADivU:
		if b == 0 {
			return 0, fmt.Errorf("divide by zero")
		}
		return truncate(a/b, width), nil
	case ADivS:
		if b == 0 {
			return 0, fmt.Errorf("divide by zero")
		}
		return truncate(uint64(signExtend(a, width)/signExtend(b, width)), width), nil
	case ARemU:
		if b == 0 {
			return 0, fmt.Errorf("divide by zero")
		}
		return truncate(a%b, width), nil
	case ARemS:
		if b == 0 {
			return 0, fmt.Errorf("divide by zero")
		}
		return truncate(uint64(signExtend(a, width)%signExtend(b, width)), width), nil
	case AAnd:
		return a & b, nil
	case AOr:
		return a | b, nil
	case AXor:
		return a ^ b, nil
	case AShl:
		if b >= uint64(width) {
			return 0, nil
		}
		return truncate(a<<b, width), nil
	case AShrU:
		if b >= uint64(width) {
			return 0, nil
		}
		return truncate(a, width) >> b, nil
	case AEq:
		return boolv(a == b)
	case ANe:
		return boolv(a != b)
	case ALtU:
		return boolv(a < b)
	case ALeU:
		return boolv(a <= b)
	case AGtU:
		return boolv(a > b)
	case AGeU:
		return boolv(a >= b)
	case ANot:
		return boolv(a == 0)
	case ANeg:
		return truncate(-a, width), nil
	case ACom:
		return truncate(^a, width), nil
	case AF2I:
		f := float64FromBits(a)
		if f != f || f > 9.22e18 || f < -9.22e18 {
			return 0, fmt.Errorf("float-to-int conversion failed")
		}
		return truncate(uint64(int64(f)), width), nil
	case AI2F:
		return float64Bits(float64(signExtend(a, width))), nil
	}
	return 0, fmt.Errorf("bad alu op %d", op)
}

func fpuOp(op ALUOp, a, b uint64) (uint64, error) {
	x := float64FromBits(a)
	y := float64FromBits(b)
	boolv := func(c bool) (uint64, error) {
		if c {
			return 1, nil
		}
		return 0, nil
	}
	switch op {
	case FAdd:
		return float64Bits(x + y), nil
	case FSub:
		return float64Bits(x - y), nil
	case FMul:
		return float64Bits(x * y), nil
	case FDiv:
		return float64Bits(x / y), nil
	case FEq:
		return boolv(x == y)
	case FNe:
		return boolv(x != y)
	case FLt:
		return boolv(x < y)
	case FLe:
		return boolv(x <= y)
	case FGt:
		return boolv(x > y)
	case FGe:
		return boolv(x >= y)
	}
	return 0, fmt.Errorf("bad fpu op %d", op)
}
