package cmm

import (
	"fmt"
	"strings"

	"cmm/internal/codegen"
	"cmm/internal/dispatch"
	"cmm/internal/machine"
	"cmm/internal/obs"
	"cmm/internal/rts"
	"cmm/internal/sem"
	"cmm/internal/vm"
)

// Dispatcher is a front-end run-time system: it receives control when
// the program yields (§3.3) and must arrange resumption through the
// Table 1 interface before returning.
type Dispatcher interface {
	Dispatch(t rts.Thread, args []uint64) error
}

// DispatcherFunc adapts a function to Dispatcher.
type DispatcherFunc func(t rts.Thread, args []uint64) error

// Dispatch implements Dispatcher.
func (f DispatcherFunc) Dispatch(t rts.Thread, args []uint64) error { return f(t, args) }

// NewUnwindDispatcher returns the Figure 9 dispatcher: it walks
// activations reading exception descriptors and unwinds to the first
// matching handler. Zero cost to enter a handler scope; dispatch walks
// the stack.
func NewUnwindDispatcher() Dispatcher { return &dispatch.UnwindDispatcher{} }

// NewExnStackDispatcher returns the Appendix A.2 dispatcher: it pops a
// handler continuation from the exception stack named by the global
// register and cuts to it. Constant-time dispatch.
func NewExnStackDispatcher(exnTopGlobal string) Dispatcher {
	return &dispatch.ExnStackDispatcher{ExnTopGlobal: exnTopGlobal}
}

// NewRegisterDispatcher returns the §4.2 single-handler-register
// dispatcher: raising cuts to the continuation held in the named global.
func NewRegisterDispatcher(handlerGlobal string) Dispatcher {
	return &dispatch.RegisterDispatcher{HandlerGlobal: handlerGlobal}
}

// DivZeroTag is the exception tag dispatchers use when a slow-but-solid
// primitive (§4.3) fails.
const DivZeroTag = dispatch.DivZeroTag

// Foreign implements an imported procedure in Go: it receives the
// value-passing area's contents and returns results for it.
type Foreign func(args []uint64) ([]uint64, error)

// Engine selects the simulated machine's execution loop. Both engines
// implement the cost model bit-for-bit — simulated cycles, instruction
// counts, and memory traffic are identical — and differ only in host
// wall-clock speed. The parity suite in internal/vm asserts this on
// every paper figure and on randomized programs.
type Engine = machine.Engine

const (
	// EngineNative is the host-native tier and the default: each basic
	// block becomes a compiled Go closure chained by direct calls, with
	// cycle accounting decoupled into per-block deltas aggregated at
	// compile time, and hot cycles distilled into closed-form kernels.
	EngineNative = machine.EngineNative
	// EngineRef is the reference engine and the specification: one
	// Step() per instruction.
	EngineRef = machine.EngineRef
)

// StackKind names an activation-stack representation (a stack policy).
// The machine always executes the canonical contiguous layout —
// results, traps, retired counters, and observer event streams never
// depend on the representation — and Machine.StackStats prices any of
// the four by replaying an observed run's control transfers against it.
// See STACKS.md for the catalogue.
type StackKind = obs.StackKind

const (
	// StackContig is the default contiguous descending stack: O(1)
	// push/pop/cut, one-shot continuations.
	StackContig = obs.StackContig
	// StackSeg links fixed-size chunks, paying overflow/underflow links
	// at chunk edges; one-shot continuations.
	StackSeg = obs.StackSeg
	// StackCopy snapshots a continuation's frames at first cut and
	// restores the copy on every re-cut; multi-shot.
	StackCopy = obs.StackCopy
	// StackHybrid keeps frames older than the newest handler frame
	// segmented and younger frames contiguous; multi-shot with small
	// captures.
	StackHybrid = obs.StackHybrid
)

// ParseStackKind parses a CLI spelling ("contig", "seg", "copy",
// "hybrid").
func ParseStackKind(name string) (StackKind, error) {
	return obs.StackKindByName(name)
}

// ParseDispatcher builds the run-time system a CLI or workload spec
// names: "" (none; the result is nil), "unwind", "exnstack:<global>" or
// "register:<global>".
func ParseDispatcher(spec string) (Dispatcher, error) {
	kind, global, _ := strings.Cut(spec, ":")
	switch {
	case spec == "":
		return nil, nil
	case spec == "unwind":
		return NewUnwindDispatcher(), nil
	case kind == "exnstack" && global != "":
		return NewExnStackDispatcher(global), nil
	case kind == "register" && global != "":
		return NewRegisterDispatcher(global), nil
	}
	return nil, fmt.Errorf("unknown dispatcher %q (valid dispatchers: unwind, exnstack:<global>, register:<global>)", spec)
}

// ParseExceptionPolicy parses a CLI spelling of a MiniM3 exception
// policy: "cutting", "unwinding" or "native".
func ParseExceptionPolicy(name string) (ExceptionPolicy, error) {
	switch name {
	case "cutting":
		return StackCutting, nil
	case "unwinding":
		return RuntimeUnwinding, nil
	case "native":
		return NativeUnwinding, nil
	}
	return 0, fmt.Errorf("unknown MiniM3 policy %q (valid policies: cutting, unwinding, native)", name)
}

// StackStats is a representation's ledger: the simulated-cycle overhead
// it would add (PolicyCycles), cut/capture/resume/overflow counts, and
// the capture-size and live-segment samples. It is kept apart from Stats
// so the cost model's counters stay representation-independent.
type StackStats = obs.StackStats

// ContMode is the machine-checked reuse contract on cut continuations:
// unchecked (default), one-shot (second cut to the same continuation
// traps), or multi-shot (re-cuts allowed only when the declared stack
// policy keeps a snapshot to re-resume — StackCopy or StackHybrid).
type ContMode = machine.ContMode

const (
	ContUnchecked = machine.ContUnchecked
	ContOneShot   = machine.ContOneShot
	ContMultiShot = machine.ContMultiShot
)

// ParseContMode parses a CLI spelling ("unchecked", "oneshot",
// "multishot").
func ParseContMode(name string) (ContMode, error) {
	return machine.ContModeByName(name)
}

// Observer is a structured event and metrics sink for one execution:
// control-transfer and run-time-interface events on the simulated-cycle
// timeline, named counters and histograms, and a simulated-cycle
// profiler. Attach one with WithObserver. Attaching an observer never
// changes simulated state: cost-model counters stay bit-identical, with
// or without one, under either engine.
//
// Exports: Observer.Metrics().JSON(), Observer.WriteChromeTrace,
// Observer.WriteTextTrace, Observer.Profile() (with Folded() for
// flamegraph tools).
type Observer = obs.Observer

// NewObserver returns an empty observability sink ready to attach to an
// Interp or a Machine.
func NewObserver() *Observer { return obs.New() }

// RunConfig configures an execution target.
type RunConfig struct {
	MemSize    int // simulated memory size; 0 means the default
	Engine     Engine
	Dispatcher Dispatcher
	Foreigns   map[string]Foreign
	Observer   *Observer
	Stack      StackKind // the representation ContMultiShot checks against
	Cont       ContMode
}

// RunOption configures Interp and Native.
type RunOption func(*RunConfig)

// WithMemSize sets the simulated memory size in bytes.
func WithMemSize(n int) RunOption { return func(c *RunConfig) { c.MemSize = n } }

// WithEngine selects the execution engine for Native machines
// (EngineNative is the default; Interp ignores the option).
func WithEngine(e Engine) RunOption { return func(c *RunConfig) { c.Engine = e } }

// WithDispatcher installs the front-end run-time system entered on
// yields, in place of the one a MiniM3 load installs.
func WithDispatcher(d Dispatcher) RunOption { return func(c *RunConfig) { c.Dispatcher = d } }

// WithObserver attaches an observability sink to the execution. The
// observer records typed events (calls, returns, cuts, unwind steps,
// dispatches, ...) stamped with simulated cycles, plus counters and
// histograms; it changes nothing about the simulated execution itself.
func WithObserver(o *Observer) RunOption { return func(c *RunConfig) { c.Observer = o } }

// WithStackPolicy declares the activation-stack representation of
// Native machines (StackContig by default; Interp ignores the option).
// Only the multi-shot reuse check reads it: execution is the same under
// every policy, and Machine.StackStats prices any of them.
func WithStackPolicy(k StackKind) RunOption {
	return func(c *RunConfig) { c.Stack = k }
}

// WithContMode selects the one-shot/multi-shot reuse contract on cut
// continuations for Native machines (unchecked by default; violations
// trap deterministically).
func WithContMode(mode ContMode) RunOption {
	return func(c *RunConfig) { c.Cont = mode }
}

// WithForeign implements the imported procedure name in Go.
func WithForeign(name string, f Foreign) RunOption {
	return func(c *RunConfig) {
		if c.Foreigns == nil {
			c.Foreigns = map[string]Foreign{}
		}
		c.Foreigns[name] = f
	}
}

// Interp executes the module on the abstract machine of the operational
// semantics (§5). It is the reference implementation: every transition
// follows a rule of §5.2, and programs that "go wrong" report exactly
// why.
type Interp struct {
	m *sem.Machine
}

// runConfig applies opts over the module's defaults: the run-time
// system its front end needs, if any.
func (m *Module) runConfig(opts []RunOption) RunConfig {
	c := RunConfig{Dispatcher: m.rt}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Interp builds an interpreter for the module.
func (m *Module) Interp(opts ...RunOption) (*Interp, error) {
	c := m.runConfig(opts)
	semOpts := []sem.Option{sem.WithMaxSteps(500_000_000)}
	if c.MemSize > 0 {
		semOpts = append(semOpts, sem.WithMemSize(c.MemSize))
	}
	if c.Observer != nil {
		semOpts = append(semOpts, sem.WithObserver(c.Observer))
	}
	if c.Dispatcher != nil {
		d := c.Dispatcher
		semOpts = append(semOpts, sem.WithRuntime(sem.RuntimeFunc(
			func(mm *sem.Machine, vals []sem.Value) error {
				args := make([]uint64, len(vals))
				for i, v := range vals {
					args[i] = v.Bits
				}
				return d.Dispatch(rts.SemThread{M: mm}, args)
			})))
	}
	for name, f := range c.Foreigns {
		fn := f
		semOpts = append(semOpts, sem.WithForeign(name, func(mm *sem.Machine, vals []sem.Value) ([]sem.Value, error) {
			args := make([]uint64, len(vals))
			for i, v := range vals {
				args[i] = v.Bits
			}
			res, err := fn(args)
			if err != nil {
				return nil, err
			}
			out := make([]sem.Value, len(res))
			for i, r := range res {
				out[i] = sem.Word(r)
			}
			return out, nil
		}))
	}
	mm, err := sem.New(m.sess.Program(), semOpts...)
	if err != nil {
		return nil, err
	}
	return &Interp{m: mm}, nil
}

// Run executes the named procedure and returns the values it returned.
func (i *Interp) Run(proc string, args ...uint64) ([]uint64, error) {
	vs, err := i.m.Run(proc, args...)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(vs))
	for j, v := range vs {
		out[j] = v.Bits
	}
	return out, nil
}

// Steps reports how many transitions the last runs took.
func (i *Interp) Steps() int64 { return i.m.Steps }

// Observer returns the attached observability sink, or nil. The abstract
// machine has no cycle-level cost model, so its events are stamped with
// transition counts (Steps) instead of simulated cycles.
func (i *Interp) Observer() *Observer { return i.m.Observer() }

// CompileConfig selects code-generation strategies (the paper's
// ablations).
type CompileConfig struct {
	// TestAndBranch replaces the branch-table method (Figures 3/4) with
	// an index-and-compare sequence.
	TestAndBranch bool
	// NoCalleeSaves forces every value live across a call into the
	// frame, approximating implementations without callee-saves
	// registers (§2).
	NoCalleeSaves bool
	// Opt is the codegen optimization level (0, 1, or 2); it mirrors the
	// -O flag and is usually set alongside Module.ApplyOpt. 0 is the
	// bit-identical baseline; 1 enables precise callee-saves prefixes
	// and leaf-frame elision; 2 adds the return peepholes (branch-table
	// conversion under TestAndBranch, link-time jump threading).
	Opt int
}

// Machine is the module compiled to the simulated target machine.
type Machine struct {
	inst *vm.Instance
	prog *codegen.Program
}

// Native compiles the module and loads it on a fresh simulated machine.
func (m *Module) Native(cc CompileConfig, opts ...RunOption) (*Machine, error) {
	c := m.runConfig(opts)
	// Codegen runs through the module's pipeline session: per-procedure
	// emission fans out over the session's worker pool and lands in
	// PassStats. The default configuration reuses the session's cached
	// code; ablations recompile.
	copts := codegen.Options{
		TestAndBranch:      cc.TestAndBranch,
		DisableCalleeSaves: cc.NoCalleeSaves,
		Opt:                cc.Opt,
	}
	var cp *codegen.Program
	var err error
	if cc == (CompileConfig{}) {
		cp, err = m.sess.Codegen()
	} else {
		cp, err = m.sess.CodegenWith(copts)
	}
	if err != nil {
		return nil, err
	}
	var vopts []vm.Option
	vopts = append(vopts, vm.WithEngine(c.Engine))
	if c.MemSize > 0 {
		vopts = append(vopts, vm.WithMemSize(c.MemSize))
	}
	if c.Observer != nil {
		vopts = append(vopts, vm.WithObserver(c.Observer))
	}
	vopts = append(vopts, vm.WithStackPolicy(c.Stack), vm.WithContMode(c.Cont))
	if c.Dispatcher != nil {
		d := c.Dispatcher
		vopts = append(vopts, vm.WithRuntime(vm.RuntimeFunc(
			func(t *vm.Thread, args []uint64) error {
				return d.Dispatch(rts.VMThread{T: t}, args)
			})))
	}
	for name, f := range c.Foreigns {
		fn := f
		vopts = append(vopts, vm.WithForeign(name, func(inst *vm.Instance, args []uint64) ([]uint64, error) {
			return fn(args)
		}))
	}
	inst, err := vm.NewInstance(cp, vopts...)
	if err != nil {
		return nil, err
	}
	return &Machine{inst: inst, prog: cp}, nil
}

// Run executes the named procedure; results are the contents of the
// result registers.
func (mc *Machine) Run(proc string, args ...uint64) ([]uint64, error) {
	return mc.inst.Run(proc, args...)
}

// Stats is the simulated machine's cost-model counters.
type Stats = machine.Counters

// Stats reports accumulated execution statistics.
func (mc *Machine) Stats() Stats { return mc.inst.Stats() }

// ResetStats zeroes the counters and the engine telemetry.
func (mc *Machine) ResetStats() { mc.inst.ResetStats() }

// Telemetry is the engine-introspection counter set: kernel entries and
// closed-form iterations on the native tier, deopt events bucketed by
// reason, and trampoline dispatches. Unlike Stats it is engine-DEPENDENT
// by design (the reference engine leaves it zero), but it is
// deterministic for a given (program, engine, budget) and never feeds
// back into the simulated counters.
type Telemetry = machine.Telemetry

// Telemetry reports the machine's engine-introspection counters.
func (mc *Machine) Telemetry() Telemetry { return mc.inst.Telemetry() }

// EngineName names the machine's selected engine ("ref" or "native").
func (mc *Machine) EngineName() string { return mc.inst.EngineName() }

// RecordEngineTelemetry snapshots the engine-introspection counters into
// the attached observer, adding the engine-dependent "engine" section to
// the metrics export. Opt-in — without this call the export stays
// engine-independent. A no-op without an observer.
func (mc *Machine) RecordEngineTelemetry() { mc.inst.RecordEngineTelemetry() }

// StackStats prices representation k over every run recorded by the
// attached observer, by replaying its event trace. It fails without an
// observer, and when the trace dropped events (a partial ledger would
// under-count). Observer.RecordStackStats adds the result to the
// metrics export.
func (mc *Machine) StackStats(k StackKind) (StackStats, error) {
	o := mc.inst.Observer()
	if o == nil {
		return StackStats{}, fmt.Errorf("stack stats for %s need an observer: attach one with WithObserver", k)
	}
	return o.StackStats(k)
}

// KernelCandidate is one cycle the native distiller considered: the
// kernel shape that matched (with its closed form) or the precise reason
// the cycle kept its ordinary closure chains.
type KernelCandidate = machine.KernelCandidate

// KernelReport is the distiller's compile-time explain output: one
// verdict per candidate cycle of the compiled program.
type KernelReport struct {
	Candidates []KernelCandidate
}

// Matched counts the candidates that were distilled into kernels.
func (r KernelReport) Matched() int {
	n := 0
	for _, c := range r.Candidates {
		if c.Matched {
			n++
		}
	}
	return n
}

// Format renders the report for humans, one line per candidate. The
// resolve function maps a code index to a procedure name; nil is fine.
func (r KernelReport) Format(resolve func(pc int) string) string {
	out := fmt.Sprintf("kernel report: %d of %d candidate cycles distilled\n", r.Matched(), len(r.Candidates))
	for _, c := range r.Candidates {
		where := ""
		if resolve != nil {
			if name := resolve(c.Header); name != "" {
				where = " in " + name
			}
		}
		verdict := "rejected"
		if c.Matched {
			verdict = "matched"
		}
		out += fmt.Sprintf("  pc %d..%d %s%s: %s — %s\n", c.Header, c.End, c.Shape, where, verdict, c.Reason)
	}
	return out
}

// KernelReport returns the native distiller's explain report for the
// compiled program. Compile-time introspection only: it forces the
// native-tier compile but executes nothing, so it works regardless of
// which engine will run the program.
func (mc *Machine) KernelReport() KernelReport {
	return KernelReport{Candidates: mc.inst.ExplainKernels()}
}

// ProcAt resolves a code index to the procedure containing it, or "".
func (mc *Machine) ProcAt(pc int) string {
	if pi := mc.prog.ProcAt(pc); pi != nil {
		return pi.Name
	}
	return ""
}

// Observer returns the attached observability sink, or nil.
func (mc *Machine) Observer() *Observer { return mc.inst.Observer() }

// RecordObsCounters snapshots the machine's cost-model counters into the
// attached observer so they appear in the metrics export. Call it after
// the runs of interest (a no-op without an observer).
func (mc *Machine) RecordObsCounters() { mc.inst.RecordObsCounters() }

// CodeSize reports the number of instructions generated for a procedure
// (the Figures 3/4 space comparison).
func (mc *Machine) CodeSize(proc string) int { return mc.prog.CodeSize(proc) }

// HeapStart returns the first free simulated address past static data,
// usable for run-time structures such as exception stacks.
func (mc *Machine) HeapStart() uint64 { return mc.prog.HeapStart }

// Disassemble renders a procedure's generated code.
func (mc *Machine) Disassemble(proc string) (string, error) {
	pi := mc.prog.Procs[proc]
	if pi == nil {
		return "", fmt.Errorf("no procedure %s", proc)
	}
	out := ""
	for i := pi.Entry; i < pi.End; i++ {
		out += fmt.Sprintf("%5d: %s\n", i, machine.Disasm(mc.prog.Code[i]))
	}
	return out, nil
}
