// Package vm loads compiled C-- programs (internal/codegen) onto the
// simulated target machine (internal/machine) and implements the C--
// run-time interface of Table 1 over compiled code: walking the stack of
// activations frame by frame, restoring callee-saves registers as it
// goes (exactly what NextActivation does in the paper), reading call-site
// descriptors, and resuming execution at unwind, return, or cut
// continuations.
package vm

import (
	"errors"
	"fmt"

	"cmm/internal/codegen"
	"cmm/internal/diag"
	"cmm/internal/machine"
	"cmm/internal/obs"
)

// ForeignFunc implements an imported procedure. Arguments arrive in the
// a-registers; results go back the same way.
type ForeignFunc func(inst *Instance, args []uint64) ([]uint64, error)

// RuntimeSystem is the front-end run-time system entered on yield. The
// thread and the args slice belong to the instance and are valid only
// until Yield returns.
type RuntimeSystem interface {
	Yield(t *Thread, args []uint64) error
}

// RuntimeFunc adapts a function to RuntimeSystem.
type RuntimeFunc func(t *Thread, args []uint64) error

// Yield implements RuntimeSystem.
func (f RuntimeFunc) Yield(t *Thread, args []uint64) error { return f(t, args) }

// Instance is a loaded program plus its machine.
type Instance struct {
	M   *machine.Machine
	P   *codegen.Program
	RTS RuntimeSystem

	stubs     map[string]int // proc -> entry-stub pc (CALL proc; HALT)
	stubStart int
	stackTop  uint64
	obs       *obs.Observer
	foreign   map[string]ForeignFunc // retained so Clone can rebuild wrappers
	thread    *Thread                // the Table 1 view, made on first use
}

// Option configures an Instance.
type Option func(*config)

type config struct {
	memSize   int
	engine    machine.Engine
	rts       RuntimeSystem
	foreign   map[string]ForeignFunc
	obs       *obs.Observer
	stackKind obs.StackKind
	contMode  machine.ContMode
	slice     int64
}

// WithMemSize sets the simulated memory size.
func WithMemSize(n int) Option { return func(c *config) { c.memSize = n } }

// WithEngine selects the machine's execution loop (the native closure-
// chain tier by default; machine.EngineRef for the reference stepper).
// Simulated counters are bit-identical under both.
func WithEngine(e machine.Engine) Option { return func(c *config) { c.engine = e } }

// WithRuntime installs the front-end run-time system.
func WithRuntime(r RuntimeSystem) Option { return func(c *config) { c.rts = r } }

// WithForeign implements an imported procedure in Go.
func WithForeign(name string, f ForeignFunc) Option {
	return func(c *config) { c.foreign[name] = f }
}

// WithObserver attaches an observability sink: all engines emit
// control-transfer events into it, and the run-time interface emits
// walk, resume, and dispatch events. Attaching an observer changes no
// simulated state — counters stay bit-identical (the parity suite
// asserts this).
func WithObserver(o *obs.Observer) Option { return func(c *config) { c.obs = o } }

// WithStackPolicy declares the activation-stack representation the run
// assumes (obs.StackContig by default). Only the multi-shot reuse check
// reads it (WithContMode): execution is the same under every kind, and
// any kind's ledger is a replay of an observed run (obs.StackStats).
func WithStackPolicy(k obs.StackKind) Option {
	return func(c *config) { c.stackKind = k }
}

// WithContMode selects the machine-checked one-shot/multi-shot reuse
// contract on cut continuations (unchecked by default; see
// machine.ContMode). Violations trap deterministically.
func WithContMode(mode machine.ContMode) Option {
	return func(c *config) { c.contMode = mode }
}

// WithSlice sets a budget slice of n simulated instructions: each
// machine.Run call pauses at the first clean boundary at or past the
// slice edge instead of running to completion, so a scheduler can
// preempt the thread. Zero (the default) disables slicing. Slicing is
// invisible to results: final state is bit-identical to an unsliced run.
func WithSlice(n int64) Option { return func(c *config) { c.slice = n } }

// NewInstance loads p onto a fresh machine.
func NewInstance(p *codegen.Program, opts ...Option) (*Instance, error) {
	c := &config{memSize: 4 << 20, foreign: map[string]ForeignFunc{}}
	for _, o := range opts {
		o(c)
	}
	inst := &Instance{P: p, RTS: c.rts, stubs: map[string]int{}, foreign: c.foreign}
	m := machine.New(c.memSize)
	m.Engine = c.engine
	m.SliceLimit = c.slice
	inst.M = m
	if c.obs != nil {
		inst.obs = c.obs
		m.Obs = c.obs
		c.obs.Clock = func() (int64, int64) { return m.Stats.Cycles, m.Stats.Instrs }
		c.obs.ProcName = func(pc int) string {
			if pi := p.ProcAt(pc); pi != nil {
				return pi.Name
			}
			if pc >= inst.stubStart && pc < len(m.Code) {
				return "[stub]"
			}
			return ""
		}
	}

	// Code: program text plus one entry stub per procedure.
	code := append([]machine.Instr{}, p.Code...)
	inst.stubStart = len(code)
	for _, name := range p.Source.Order {
		pi := p.Procs[name]
		inst.stubs[name] = len(code)
		code = append(code,
			machine.Instr{Op: machine.OpCall, Target: pi.Entry, Sym: "stub " + name},
			machine.Instr{Op: machine.OpHalt})
	}
	m.Code = code

	// Data image and globals.
	if p.Img.End() > uint64(c.memSize) {
		return nil, diag.Errorf("link", "", 0, 0, "image does not fit in %d bytes of memory", c.memSize)
	}
	copy(m.Mem[p.Img.Base:], p.Img.Bytes)
	for name, addr := range p.GlobalAddr {
		if err := m.StoreWord(addr, p.GlobalInit[name], 8); err != nil {
			return nil, err
		}
	}
	inst.stackTop = uint64(c.memSize) - 64
	m.Stack = c.stackKind
	m.ContMode = c.contMode

	inst.installRuntime()
	return inst, nil
}

// installRuntime (re)builds the machine hooks that must capture this
// specific Instance: the foreign-function wrappers (in import-index
// order) and the yield handler. Factored out of NewInstance so Clone can
// rebuild them around the clone rather than inheriting closures bound to
// the prototype.
func (inst *Instance) installRuntime() {
	m := inst.M
	m.ForeignFuncs = nil
	for i, name := range inst.P.Foreigns {
		f, ok := inst.foreign[name]
		idx := i
		if !ok {
			nm := name
			m.ForeignFuncs = append(m.ForeignFuncs, func(m *machine.Machine) error {
				return fmt.Errorf("imported procedure %s has no implementation (foreign #%d)", nm, idx)
			})
			continue
		}
		fn := f
		m.ForeignFuncs = append(m.ForeignFuncs, func(m *machine.Machine) error {
			args := make([]uint64, machine.NumA)
			for j := 0; j < machine.NumA; j++ {
				args[j] = m.Regs[machine.RA0+machine.Reg(j)]
			}
			res, err := fn(inst, args)
			if err != nil {
				return err
			}
			for j, v := range res {
				if j < machine.NumA {
					m.Regs[machine.RA0+machine.Reg(j)] = v
				}
			}
			return nil
		})
	}

	m.YieldHandler = func(m *machine.Machine) error {
		if inst.RTS == nil {
			return fmt.Errorf("yield with no run-time system installed")
		}
		t := inst.resetThread()
		copy(t.args[:], m.Regs[machine.RA0:])
		if err := inst.RTS.Yield(t, t.args[:]); err != nil {
			return err
		}
		if !t.resumed {
			return fmt.Errorf("run-time system returned without arranging resumption")
		}
		return nil
	}
}

// resetThread returns the instance's thread, cleared for a new yield.
func (inst *Instance) resetThread() *Thread {
	if inst.thread == nil {
		inst.thread = &Thread{inst: inst}
	}
	inst.thread.reset()
	return inst.thread
}

// HeapStart returns the first free address past static data and globals,
// usable by run-time systems (e.g. for an exception stack).
func (inst *Instance) HeapStart() uint64 { return inst.P.HeapStart }

// Run calls the named procedure with the given arguments and returns the
// contents of the result registers after it returns. With a budget slice
// configured it simply resumes across every pause, so single-threaded
// callers behave identically whether or not slicing is on.
func (inst *Instance) Run(proc string, args ...uint64) ([]uint64, error) {
	if err := inst.Start(proc, args...); err != nil {
		return nil, err
	}
	for {
		done, err := inst.StepSlice()
		if err != nil {
			return nil, err
		}
		if done {
			return inst.Results(), nil
		}
	}
}

// Start arranges a call to the named procedure — zeroed registers, stack
// pointer at the top, arguments in the a-registers, PC at the entry stub
// — without executing anything. Drive it with StepSlice; Run is exactly
// Start followed by StepSlice to completion. Each Start is a fresh run:
// the attached observer marks it, so stack replays reset there.
func (inst *Instance) Start(proc string, args ...uint64) error {
	stub, ok := inst.stubs[proc]
	if !ok {
		return fmt.Errorf("no procedure %s", proc)
	}
	if len(args) > machine.NumA {
		return fmt.Errorf("more than %d arguments", machine.NumA)
	}
	m := inst.M
	for i := range m.Regs {
		m.Regs[i] = 0
	}
	m.Regs[machine.RSP] = inst.stackTop
	for i, a := range args {
		m.Regs[machine.RA0+machine.Reg(i)] = a
	}
	m.PC = stub
	if inst.obs != nil {
		inst.obs.BeginRun(inst.stackTop)
	}
	return nil
}

// StepSlice runs the machine until the started call completes (done),
// traps (err), or exhausts one budget slice (false, nil) — the
// scheduler's unit of work. At a (false, nil) return the machine is
// flushed and suspended at a slice boundary: the caller may resume with
// another StepSlice or redirect the thread first (CancelCut).
func (inst *Instance) StepSlice() (done bool, err error) {
	err = inst.M.Run()
	if errors.Is(err, machine.ErrSlicePaused) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Paused reports whether the machine is suspended at a slice boundary.
func (inst *Instance) Paused() bool { return inst.M.Paused() }

// Results returns the contents of the result registers.
func (inst *Instance) Results() []uint64 {
	m := inst.M
	res := make([]uint64, machine.NumA)
	for j := 0; j < machine.NumA; j++ {
		res[j] = m.Regs[machine.RA0+machine.Reg(j)]
	}
	return res
}

// SetSlice changes the budget slice size (see WithSlice); it takes
// effect at the next StepSlice.
func (inst *Instance) SetSlice(n int64) { inst.M.SliceLimit = n }

// Precompile builds the native engine's closure chains eagerly
// (machine.Precompile), so clones adopt them instead of recompiling.
func (inst *Instance) Precompile() { inst.M.Precompile() }

// Clone builds an independent instance of the same loaded program: a
// fresh machine with its own memory (data image and globals re-
// initialised), registers, and counters, sharing
// only the immutable program artifacts — code, entry stubs, procedure
// tables, and the prototype's compiled engine caches (ShareArtifacts),
// which are read-only during execution and therefore safe to share
// across concurrently running clones. The observer is not inherited:
// observers are single-threaded, so attach per-clone state externally.
func (inst *Instance) Clone() (*Instance, error) {
	src := inst.M
	c := &Instance{
		P:         inst.P,
		RTS:       inst.RTS,
		stubs:     inst.stubs,
		stubStart: inst.stubStart,
		stackTop:  inst.stackTop,
		foreign:   inst.foreign,
	}
	m := machine.New(len(src.Mem))
	m.Engine = src.Engine
	m.Cost = src.Cost
	m.MaxInstrs = src.MaxInstrs
	m.SliceLimit = src.SliceLimit
	m.ContMode = src.ContMode
	m.Stack = src.Stack
	m.Code = src.Code
	c.M = m
	m.ShareArtifacts(src)
	p := inst.P
	copy(m.Mem[p.Img.Base:], p.Img.Bytes)
	for name, addr := range p.GlobalAddr {
		if err := m.StoreWord(addr, p.GlobalInit[name], 8); err != nil {
			return nil, err
		}
	}
	c.installRuntime()
	return c, nil
}

// CancelCut redirects a suspended thread through the program's own
// cancellation continuation: it reads continuation value k from the
// named global (the Figure 2 "bits32 handler" pattern) and performs the
// run-time stack cut to it, exactly as a front-end run-time system would
// during a yield. Valid whenever the machine is flushed — at a slice
// boundary or before a Start — which is what makes it the scheduler's
// cut-to-based cancellation: constant work, independent of how deep the
// in-flight handler stack is. The cut shares the in-code cut's reuse
// contract (ContMode) and its event, so a cancelled one-shot
// continuation traps deterministically like any other reuse.
func (inst *Instance) CancelCut(global string, params ...uint64) error {
	t := inst.resetThread()
	k, ok := t.GlobalWord(global)
	if !ok {
		return fmt.Errorf("no global %s", global)
	}
	if k == 0 {
		return fmt.Errorf("cancel continuation %s is unset", global)
	}
	if err := t.SetCutToCont(k); err != nil {
		return err
	}
	for i, v := range params {
		t.SetContParam(i, v)
	}
	return t.Resume()
}

// StackDepth counts live activations by walking return addresses up to
// the entry stub. Unlike the Thread walk it charges nothing: it is
// scheduler bookkeeping (cut-depth histograms), and observing a thread
// must not perturb its deterministic counters.
func (inst *Instance) StackDepth() int {
	m := inst.M
	pc, sp := m.PC, m.Regs[machine.RSP]
	depth := 0
	for depth < 1<<20 {
		pi := inst.P.ProcAt(pc)
		if pi == nil {
			break
		}
		depth++
		idx := -1
		if ra, err := m.LoadWord(sp+uint64(pi.RAOffset), 8); err == nil {
			if i, ok := machine.CodeIndex(ra); ok {
				idx = i
			}
		}
		if idx < 0 && depth == 1 {
			// A slice edge can land inside a prologue, after the frame
			// is allocated but before the return address is spilled; the
			// register still has it.
			if i, ok := machine.CodeIndex(m.Regs[machine.RRA]); ok {
				idx = i
			}
		}
		if idx < 0 || idx >= inst.stubStart {
			break
		}
		pc = idx
		sp += uint64(pi.FrameSize)
	}
	return depth
}

// Stats exposes the machine's counters.
func (inst *Instance) Stats() machine.Counters { return inst.M.Stats }

// ResetStats zeroes the counters and the engine telemetry (between
// benchmark phases).
func (inst *Instance) ResetStats() {
	inst.M.Stats = machine.Counters{}
	inst.M.Telem = machine.Telemetry{}
}

// Telemetry exposes the machine's engine-introspection counters (kernel
// activity, deopt buckets, chain dispatches). Deterministic
// per engine, all-zero under the reference engine.
func (inst *Instance) Telemetry() machine.Telemetry { return inst.M.Telem }

// ExplainKernels returns the native distiller's per-cycle report for the
// loaded program: which candidate cycles matched a closed-form kernel
// and why the rest kept their chains. Compile-time only — no execution.
func (inst *Instance) ExplainKernels() []machine.KernelCandidate {
	return inst.M.ExplainKernels()
}

// EngineName names the instance's selected engine.
func (inst *Instance) EngineName() string {
	if inst.M.Engine == machine.EngineRef {
		return "ref"
	}
	return "native"
}

// Observer returns the attached observability sink, or nil.
func (inst *Instance) Observer() *obs.Observer { return inst.obs }

// RecordObsCounters snapshots the machine counters into the attached
// observer for the metrics export (a no-op without one).
func (inst *Instance) RecordObsCounters() {
	if inst.obs == nil {
		return
	}
	s := inst.M.Stats
	inst.obs.RecordMachineCounters(obs.MachineCounters{
		Cycles: s.Cycles, Instrs: s.Instrs, Loads: s.Loads, Stores: s.Stores,
		Branches: s.Branches, Calls: s.Calls, Yields: s.Yields,
	})
}

// RecordEngineTelemetry snapshots the engine-introspection counters into
// the attached observer: the metrics export grows an "engine" section.
// Opt-in (a no-op without an observer) because the section is
// engine-dependent while the rest of the export is engine-independent.
func (inst *Instance) RecordEngineTelemetry() {
	if inst.obs == nil {
		return
	}
	t := inst.M.Telem
	inst.obs.RecordEngineTelemetry(obs.EngineTelemetry{
		Engine:          inst.EngineName(),
		KernelEntries:   t.KernelEntries,
		KernelIters:     t.KernelIters,
		KernelInstrs:    t.KernelInstrs,
		DeoptCycleExit:  t.DeoptCycleExit,
		DeoptTrap:       t.DeoptTrap,
		DeoptBudget:     t.DeoptBudget,
		DeoptObserver:   t.DeoptObserver,
		DeoptSlice:      t.DeoptSlice,
		ChainDispatches: t.ChainDispatches,
	})
}
