// Package obs is the observability layer for the C-- reproduction: a
// structured event tracer, a metrics registry, and a simulated-cycle
// profiler, shared by both execution engines of internal/machine (the
// reference stepper and the native tier), the VM's Table 1 run-time
// interface (internal/vm), the abstract machine (internal/sem), and the
// exception dispatchers (internal/dispatch).
//
// The package is a leaf: it imports nothing from the rest of the module,
// so every layer can emit into it without import cycles. Producers hold
// a *Observer and guard every emission with a nil check; a nil observer
// is the disabled state and costs one predictable branch on the paths
// that already leave the hot loop (calls, returns, yields, cuts,
// run-time walks). Observers are strictly passive — they never touch the
// machine's simulated counters — so enabling one changes neither cycle
// counts nor results, and every engine emits the identical event stream
// for the same program (asserted by the parity suite).
//
// Timestamps are simulated cycles (the machine cost model), not host
// time, so traces are deterministic and comparable across engines. The
// abstract machine of internal/sem has no cycle model; it stamps events
// with its transition count instead, which is likewise deterministic.
package obs

import "fmt"

// Kind classifies an event.
type Kind uint8

// Event kinds. The machine engines emit the control-transfer kinds
// (KCall..KForeign); the VM's run-time interface emits the walk and
// resume kinds; the dispatchers emit the dispatch window; KSetjmpCopy is
// emitted by harnesses that model setjmp-style buffer copies.
const (
	kInvalid Kind = iota
	// KCall: a call instruction. A = callee entry (code index).
	KCall
	// KReturn: a normal return. A = landing code index, B = table offset.
	KReturn
	// KAltReturn: a `return <m/n>` alternate return (branch-table or
	// test-and-branch method). A = landing code index, B = table offset.
	KAltReturn
	// KCutTo: an in-code `cut to` (the marked indirect jump that ends the
	// load-pc/load-sp/jump sequence). A = target code index; SP is the
	// continuation's stack pointer.
	KCutTo
	// KYield: a trap to the front-end run-time system. A = first yield
	// argument (the yield protocol code).
	KYield
	// KForeign: a call into host code. A = foreign index.
	KForeign
	// KUnwindStep: one successful NextActivation step of a run-time stack
	// walk. A = depth of the activation reached.
	KUnwindStep
	// KDescLookup: a GetDescriptor call. A = descriptor index requested.
	KDescLookup
	// KResumeCut: Resume via SetCutToCont (run-time stack cut). A = the
	// continuation value k; SP is the continuation's stack pointer.
	KResumeCut
	// KResumeUnwind: Resume at an also-unwinds-to continuation.
	// A = continuation index.
	KResumeUnwind
	// KResumeReturn: Resume at a return continuation (alternate return
	// selected by the run-time system, or the normal return).
	// A = continuation index.
	KResumeReturn
	// KDispatch: a dispatcher accepted a raise. A = mechanism (Mech*),
	// B = exception tag.
	KDispatch
	// KDispatchEnd: the dispatcher arranged resumption (or gave up).
	// A = mechanism, B = activations walked.
	KDispatchEnd
	// KSetjmpCopy: a modeled setjmp buffer copy. B = bytes copied.
	KSetjmpCopy
	// KDeopt: a native-tier distilled kernel handed control back to the
	// ordinary closure chains. A = deopt reason (Deopt*), B = closed-form
	// iterations the kernel charged before handing back. Engine-specific,
	// so it is emitted only when Observer.EngineEvents is set.
	KDeopt

	kindCount
)

var kindNames = [kindCount]string{
	KCall:         "call",
	KReturn:       "return",
	KAltReturn:    "alt-return",
	KCutTo:        "cut",
	KYield:        "yield",
	KForeign:      "foreign",
	KUnwindStep:   "unwind-step",
	KDescLookup:   "descriptor-lookup",
	KResumeCut:    "resume-cut",
	KResumeUnwind: "resume-unwind",
	KResumeReturn: "resume-return",
	KDispatch:     "dispatch",
	KDispatchEnd:  "dispatch-end",
	KSetjmpCopy:   "setjmp-copy",
	KDeopt:        "deopt",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Exception-dispatch mechanisms, for KDispatch/KDispatchEnd payloads and
// the per-mechanism dispatch counters.
const (
	MechUnwind   = 1 // Figure 9 stack walk (SetActivation + SetUnwindCont)
	MechExnStack = 2 // Appendix A.2 exception stack (SetCutToCont)
	MechRegister = 3 // §4.2 handler register (SetCutToCont)
)

// MechName names a dispatch mechanism.
func MechName(mech uint64) string {
	switch mech {
	case MechUnwind:
		return "unwind"
	case MechExnStack:
		return "exnstack"
	case MechRegister:
		return "register"
	}
	return fmt.Sprintf("mech(%d)", mech)
}

// Deopt reasons, for KDeopt's A payload and the per-reason telemetry
// buckets: why a distilled kernel handed control back to the chains.
const (
	DeoptCycleExit = 1 // the cycle's own exit condition was reached
	DeoptTrap      = 2 // stopped at a memory bound so a potential trap runs on the chains
	DeoptBudget    = 3 // stopped at the instruction-budget edge
	DeoptObserver  = 4 // kernel refused to run: an observer needs the cycle's events
	DeoptSlice     = 6 // stopped at a budget-slice edge: the scheduler preempts here
)

// DeoptName names a deopt reason.
func DeoptName(r uint64) string {
	switch r {
	case DeoptCycleExit:
		return "cycle-exit"
	case DeoptTrap:
		return "trap-edge"
	case DeoptBudget:
		return "budget-edge"
	case DeoptObserver:
		return "observer"
	case DeoptSlice:
		return "slice-edge"
	}
	return fmt.Sprintf("deopt(%d)", r)
}

// Event is one observed occurrence. Ts is the simulated-cycle timestamp
// (the abstract machine uses its transition count); Instr is the number
// of instructions retired at emission; PC is the code index of the
// emitting instruction, or -1 when the emitter runs outside generated
// code (dispatchers, the abstract machine); SP is the simulated stack
// pointer where one is meaningful. A and B are kind-specific payloads.
type Event struct {
	Kind  Kind
	Ts    int64
	Instr int64
	PC    int32
	SP    uint64
	A, B  uint64
}

// DefaultMaxEvents bounds the trace buffer; past it, events still feed
// the counters but are dropped from the trace (Dropped counts them).
const DefaultMaxEvents = 1 << 21

// Observer collects events and metrics for one execution. It is not
// safe for concurrent use; the simulated machine is single-threaded.
type Observer struct {
	// Trace is the retained event stream, in emission order.
	Trace []Event
	// MaxEvents bounds Trace (DefaultMaxEvents if left 0 by a literal).
	MaxEvents int
	// Dropped counts events not retained in Trace once MaxEvents was
	// reached. Counters below keep counting dropped events.
	Dropped int64

	// EngineEvents opts in to engine-specific events (KDeopt). Off by
	// default: the parity suites require identical event streams across
	// engines, and deopt points exist only on the native tier.
	EngineEvents bool

	// Clock supplies (cycles, instrs) timestamps for emitters that do not
	// carry the machine state themselves (the dispatchers, via EmitNow).
	// Installed by whoever attaches the observer to an execution.
	Clock func() (cycles, instrs int64)
	// ProcName resolves a code index to a procedure name, for the
	// profiler and the trace exporters. Installed by the loader.
	ProcName func(pc int) string

	counts      [kindCount]int64
	dispatch    [4]int64 // indexed by Mech*
	setjmpBytes int64
	spans       []Span
	mc          MachineCounters
	haveMC      bool
	et          EngineTelemetry
	haveET      bool
	stack       *StackStats
	runs        []RunMark
	ss          SchedStats
	haveSS      bool
}

// New returns an enabled observer with the default trace bound.
func New() *Observer {
	return &Observer{MaxEvents: DefaultMaxEvents}
}

// Emit records one event. It is the single hot-path entry point: one
// array increment and one bounded append.
func (o *Observer) Emit(ev Event) {
	if ev.Kind < kindCount {
		o.counts[ev.Kind]++
	}
	switch ev.Kind {
	case KDispatch:
		if ev.A < uint64(len(o.dispatch)) {
			o.dispatch[ev.A]++
		}
	case KSetjmpCopy:
		o.setjmpBytes += int64(ev.B)
	}
	max := o.MaxEvents
	if max == 0 {
		max = DefaultMaxEvents
	}
	if len(o.Trace) < max {
		o.Trace = append(o.Trace, ev)
	} else {
		o.Dropped++
	}
}

// EmitNow records an event stamped from the observer's Clock. It is the
// entry point for emitters that do not see the machine directly (the
// dispatchers, which speak only the Table 1 interface).
func (o *Observer) EmitNow(k Kind, pc int32, a, b uint64) {
	var cyc, ins int64
	if o.Clock != nil {
		cyc, ins = o.Clock()
	}
	o.Emit(Event{Kind: k, Ts: cyc, Instr: ins, PC: pc, A: a, B: b})
}

// Count reports how many events of kind k were emitted (including ones
// dropped from the trace).
func (o *Observer) Count(k Kind) int64 {
	if k < kindCount {
		return o.counts[k]
	}
	return 0
}

// DispatchCount reports how many raises the given mechanism dispatched.
func (o *Observer) DispatchCount(mech uint64) int64 {
	if mech < uint64(len(o.dispatch)) {
		return o.dispatch[mech]
	}
	return 0
}

// MachineCounters mirrors the simulated machine's cost-model counters so
// exporters can derive per-opcode-class instruction counts without obs
// importing the machine.
type MachineCounters struct {
	Cycles   int64
	Instrs   int64
	Loads    int64
	Stores   int64
	Branches int64
	Calls    int64
	Yields   int64
}

// RecordMachineCounters snapshots the machine's counters into the
// observer, for the metrics export. Call it after the run.
func (o *Observer) RecordMachineCounters(c MachineCounters) {
	o.mc = c
	o.haveMC = true
}

// EngineTelemetry mirrors the machine's engine-introspection counters
// (machine.Telemetry) so exporters can render them without obs importing
// the machine. Unlike MachineCounters these are engine-DEPENDENT: the
// same program produces different telemetry under ref and native.
type EngineTelemetry struct {
	Engine          string // "ref" or "native"
	KernelEntries   int64
	KernelIters     int64
	KernelInstrs    int64
	DeoptCycleExit  int64
	DeoptTrap       int64
	DeoptBudget     int64
	DeoptObserver   int64
	DeoptSlice      int64
	ChainDispatches int64
}

// RecordEngineTelemetry snapshots the engine-introspection counters into
// the observer. They surface as the metrics export's "engine" section,
// which is present only after this call — keeping the default metrics
// JSON engine-independent (and byte-identical to pre-telemetry goldens).
func (o *Observer) RecordEngineTelemetry(t EngineTelemetry) {
	o.et = t
	o.haveET = true
}

// SchedWorker is one worker's share of an M:N scheduler run: how many
// slices it executed, how many tasks it retired, how often it stole, and
// the simulated instructions it advanced. The split across workers is
// timing-dependent; the totals are not.
type SchedWorker struct {
	Slices    int64
	Tasks     int64
	Steals    int64
	Stolen    int64
	SimInstrs int64
}

// SchedStats mirrors internal/sched's aggregate report of one scheduler
// run, so exporters can render a "sched" section without obs importing
// the scheduler. Totals (tasks, outcomes, simulated work) are
// deterministic for a given task set and slice size regardless of the
// worker count; the per-worker split and the steal counts describe how
// the host divided the work.
type SchedStats struct {
	Workers   int
	Slice     int64
	Tasks     int64
	Completed int64
	Cancelled int64
	Trapped   int64
	Slices    int64
	Steals    int64
	SimInstrs int64
	SimCycles int64
	PerWorker []SchedWorker
	// QueueDepths holds one sample of the dequeuing worker's local queue
	// depth per scheduling decision; CutDepths one sample per
	// cancellation cut (the activations the cut discarded).
	QueueDepths []int64
	CutDepths   []int64
}

// RecordSched snapshots a scheduler run's aggregate stats into the
// observer: the metrics export grows a "sched" section plus queue-depth
// and cancellation cut-depth histograms. Opt-in like the engine and
// stack sections, for the same reason: single-execution exports have no
// scheduler, and their goldens must stay byte-identical.
func (o *Observer) RecordSched(s SchedStats) {
	o.ss = s
	o.haveSS = true
}

// RecordStackStats snapshots a stack-representation ledger (from
// StackStats) into the observer. It surfaces as the metrics export's
// "stack" section plus capture_words/segments histograms, present only
// after this call — keeping the default metrics JSON representation-
// independent (and byte-identical to pre-stack-model goldens).
func (o *Observer) RecordStackStats(s StackStats) {
	o.stack = &s
}

// Span is one compile-pass interval on the observer's compile timeline,
// in host microseconds relative to the first pass.
type Span struct {
	Name  string
	Start int64 // µs from the first pass's start
	Dur   int64 // µs, at least 1
}

// AddSpan appends a compile-pass span (internal/pipeline feeds these so
// compile passes and the simulated run share one Chrome trace).
func (o *Observer) AddSpan(s Span) {
	if s.Dur < 1 {
		s.Dur = 1
	}
	o.spans = append(o.spans, s)
}

// Spans returns the recorded compile-pass spans.
func (o *Observer) Spans() []Span { return append([]Span{}, o.spans...) }

// procName resolves a code index through the installed resolver.
func (o *Observer) procName(pc int32) string {
	if o.ProcName != nil {
		if n := o.ProcName(int(pc)); n != "" {
			return n
		}
	}
	return fmt.Sprintf("pc%d", pc)
}
