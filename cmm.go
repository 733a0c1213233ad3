// Package cmm is a Go implementation of C-- as described in
// "A Single Intermediate Language That Supports Multiple Implementations
// of Exceptions" (Ramsey & Peyton Jones, PLDI 2000).
//
// The library contains the complete pipeline of the paper:
//
//	C-- source ──Load──▶ Abstract C-- (Table 2 flow graphs)
//	    │                     │
//	    │                Optimize (§6: standard dataflow, no special
//	    │                     │    cases for exceptions)
//	    │                     ├──Interp──▶ the §5 operational semantics
//	    │                     └──Native──▶ compiled code on a simulated
//	    │                                  target machine with callee-
//	    │                                  saves registers, branch-table
//	    │                                  returns, and cuttable stacks
//	    │
//	MiniM3 (a Modula-3-flavoured source language) compiles to C-- under
//	three exception policies: stack cutting, run-time unwinding, and
//	native-code unwinding via alternate returns.
//
// Both execution targets implement the C-- run-time interface of
// Table 1 (FirstActivation, NextActivation, SetActivation,
// SetUnwindCont, SetCutToCont, FindContParam, GetDescriptor, Resume), so
// a front-end run-time system — such as the exception dispatchers in
// this package — runs unchanged on either.
package cmm

import (
	"fmt"

	"cmm/internal/dataflow"
	"cmm/internal/diag"
	"cmm/internal/minim3"
	"cmm/internal/opt"
	"cmm/internal/pipeline"
)

// Module is a checked and translated C-- compilation unit: one Abstract
// C-- graph per procedure plus the static data it runs against. Every
// module is backed by a pipeline session — a declared, ordered list of
// named passes — so per-pass timings (PassStats), structured
// diagnostics (Diagnostics), and IR snapshots (DumpAfter) are available
// for any load.
type Module struct {
	sess *pipeline.Session
	rt   Dispatcher // the front end's run-time system, installed unless WithDispatcher overrides it
}

// PassStat records one pass execution: wall time, procedures visited,
// and IR size before/after (flow-graph nodes for Abstract C-- passes,
// machine instructions for codegen and link).
type PassStat = pipeline.PassStat

// Diagnostic is a structured compiler message: severity, source span
// (file:line:col), and the pass that produced it.
type Diagnostic = diag.Diagnostic

// Diagnostics is an ordered list of compiler messages.
type Diagnostics = diag.List

// LoadConfig configures Load beyond the defaults.
type LoadConfig struct {
	// File names the source in diagnostics.
	File string
	// Workers bounds procedure-level parallelism in per-procedure
	// passes; 0 means NumCPU, 1 forces serial. Output is byte-identical
	// for every value.
	Workers int
	// DumpAfter lists pass names (see PassNames) whose IR should be
	// snapshotted; retrieve with Module.DumpAfter.
	DumpAfter []string
	// DumpProc restricts snapshots to one procedure (empty: all).
	DumpProc string
	// Verify runs the §4 well-formedness verifier during the load:
	// verifier errors fail the load, verifier warnings appear in
	// Module.Diagnostics (pass "verify"). See VERIFIER.md.
	Verify bool
	// VerifyStrict additionally flags provably useless annotations.
	VerifyStrict bool
}

// Load parses, checks, and translates C-- source into Abstract C--.
func Load(src string) (*Module, error) {
	return LoadWith(src, LoadConfig{})
}

// LoadWith is Load with configuration.
func LoadWith(src string, lc LoadConfig) (*Module, error) {
	return load(lc, func(pc pipeline.Config) (*pipeline.Session, error) { return pipeline.New(src, pc), nil })
}

// LoadMiniM3 compiles MiniM3 source to C-- under the given policy and
// loads the result, recording the front-end stages (m3-parse, m3-check,
// m3-infer when pruning, m3-emit) in the module's pass stats. Interp and
// Native install the run-time system the policy needs (the exception-
// stack dispatcher for StackCutting, the Figure 9 unwinder for
// RuntimeUnwinding) unless WithDispatcher overrides it.
func LoadMiniM3(src string, policy ExceptionPolicy) (*Module, error) {
	return LoadMiniM3With(src, policy, LoadConfig{})
}

// LoadMiniM3With is LoadMiniM3 with configuration.
func LoadMiniM3With(src string, policy ExceptionPolicy, lc LoadConfig) (*Module, error) {
	m, err := load(lc, func(pc pipeline.Config) (*pipeline.Session, error) {
		return minim3.NewSession(src, policy, minim3.CompileOptions{Prune: true}, pc)
	})
	if err != nil {
		return nil, err
	}
	if d := minim3.DispatcherFor(policy); d != nil {
		m.rt = DispatcherFunc(d)
	}
	return m, nil
}

// load validates lc, opens a session with newSession and runs the
// front-end passes.
func load(lc LoadConfig, newSession func(pipeline.Config) (*pipeline.Session, error)) (*Module, error) {
	pc := pipeline.Config{File: lc.File, Workers: lc.Workers, DumpAfter: lc.DumpAfter, DumpProc: lc.DumpProc,
		Verify: lc.Verify, VerifyStrict: lc.VerifyStrict}
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	sess, err := newSession(pc)
	if err != nil {
		return nil, err
	}
	if err := sess.Frontend(); err != nil {
		return nil, err
	}
	return &Module{sess: sess}, nil
}

// PassNames lists the back-end pass names valid for LoadConfig.DumpAfter.
func PassNames() []string { return pipeline.PassNames() }

// PassStats reports wall time and IR-size deltas for every pass that has
// run so far, in execution order.
func (m *Module) PassStats() []PassStat { return m.sess.Stats() }

// FormatPassStats renders a stats table (the cmmc -timings output).
func FormatPassStats(stats []PassStat) string { return pipeline.FormatStats(stats) }

// Diagnostics returns every structured message the passes produced,
// notes included.
func (m *Module) Diagnostics() Diagnostics { return m.sess.Diagnostics() }

// Verify runs the §4 well-formedness verifier (see VERIFIER.md) over
// the module and returns its findings — errors for conditions that make
// a run-time trap reachable, warnings for imprecision — without failing
// the module. strict additionally flags provably useless annotations.
func (m *Module) Verify(strict bool) Diagnostics {
	ds, _ := m.sess.Verify(strict) // Frontend already ran in Load; no error possible
	return ds
}

// Verify loads C-- source and reports the §4 well-formedness verifier's
// findings. The error is non-nil when the source does not load (parse,
// check, or translate failure); verifier findings — including errors —
// are returned in the list.
func Verify(src string) (Diagnostics, error) {
	m, err := Load(src)
	if err != nil {
		return nil, err
	}
	return m.Verify(false), nil
}

// ObserveCompile feeds the module's per-pass timings into an observer as
// compile spans, so the compile pipeline and the simulated run land on
// one Chrome-trace timeline (the trace shows compile passes on one
// track and the simulated machine on another).
func (m *Module) ObserveCompile(o *Observer) { m.sess.ObserveInto(o) }

// DumpAfter returns the snapshot of proc captured after the named pass,
// if LoadConfig.DumpAfter requested it.
func (m *Module) DumpAfter(pass, proc string) (string, bool) { return m.sess.Snapshot(pass, proc) }

// DumpAfterProcs lists the procedures snapshotted after the named pass.
func (m *Module) DumpAfterProcs(pass string) []string { return m.sess.SnapshotProcs(pass) }

// Source returns the C-- source backing the module (for MiniM3 loads,
// the generated C--).
func (m *Module) Source() string { return m.sess.Source() }

// Procedures lists the module's procedures in source order (synthesized
// slow-but-solid primitives last).
func (m *Module) Procedures() []string {
	return append([]string{}, m.sess.Program().Order...)
}

// OptStats reports what the optimizer did.
type OptStats struct {
	ConstantsFolded  int
	CopiesPropagated int
	AssignsRemoved   int
	BranchesResolved int
	CSEHits          int
}

func (s OptStats) String() string {
	return fmt.Sprintf("folded %d constants, propagated %d copies, removed %d dead assignments, resolved %d branches, %d CSE hits",
		s.ConstantsFolded, s.CopiesPropagated, s.AssignsRemoved, s.BranchesResolved, s.CSEHits)
}

// Optimize runs the §6 optimizer — constant propagation and folding,
// copy propagation, dead-code elimination, branch resolution, local
// CSE — over every procedure. Exceptional control flow needs no special
// treatment: the also-annotations appear as ordinary flow edges.
// Optimize is idempotent: it drives every procedure to a fixpoint, so a
// second call finds nothing left to do and reports all-zero stats.
func (m *Module) Optimize() OptStats {
	return m.optimize(opt.Options{})
}

// OptimizeUnsoundWithoutExceptionEdges runs the same passes with the
// unwind and cut edges hidden from every analysis. It exists ONLY to
// reproduce the classic miscompilation (Hennessy 1981) that the paper's
// annotations prevent; never use it to run real programs.
func (m *Module) OptimizeUnsoundWithoutExceptionEdges() OptStats {
	return m.optimize(opt.Options{WithoutExceptionEdges: true})
}

// InterprocStats reports what the summary-driven interprocedural pass
// did: how many call sites it proved quiet, which annotation edges it
// removed there, and how many continuation bindings became unreferenced
// and were dropped.
type InterprocStats struct {
	SitesQuieted       int
	CutEdgesRemoved    int
	UnwindEdgesRemoved int
	AbortsRemoved      int
	ContsRemoved       int
}

func (s InterprocStats) String() string {
	return fmt.Sprintf("quieted %d call sites (removed %d cut edges, %d unwind edges, %d aborts), dropped %d continuations",
		s.SitesQuieted, s.CutEdgesRemoved, s.UnwindEdgesRemoved, s.AbortsRemoved, s.ContsRemoved)
}

// OptimizeInterproc runs the summary-driven interprocedural pass: call
// sites whose callee provably neither cuts nor yields lose their "also
// cuts to"/"also unwinds to"/"also aborts" annotations, and
// continuations nothing references afterwards are dropped. It preserves
// observable behaviour for every engine and dispatcher; run it before
// Optimize so the scalar passes see the pruned edges.
func (m *Module) OptimizeInterproc() InterprocStats {
	r, _ := m.sess.Interproc() // Frontend already ran in Load; no error possible
	return InterprocStats{
		SitesQuieted:       r.SitesQuieted,
		CutEdgesRemoved:    r.CutEdges,
		UnwindEdgesRemoved: r.UnwindEdges,
		AbortsRemoved:      r.Aborts,
		ContsRemoved:       r.ContsRemoved,
	}
}

// ApplyOpt runs the IR-level optimization stack for the -O levels and
// returns a printable summary. Level 0 does nothing. Level 1 runs the
// scalar optimizer (Optimize). Level 2 first runs the interprocedural
// pass (OptimizeInterproc), then the scalar optimizer over the pruned
// graphs. Pair it with CompileConfig.Opt, which enables the codegen-side
// optimizations of the same levels.
func (m *Module) ApplyOpt(level int) (string, error) {
	switch level {
	case 0:
		return "", nil
	case 1:
		return m.Optimize().String(), nil
	case 2:
		ip := m.OptimizeInterproc()
		sc := m.Optimize()
		return fmt.Sprintf("interproc: %s; opt: %s", ip, sc), nil
	}
	return "", fmt.Errorf("unknown optimization level -O%d (want 0, 1, or 2)", level)
}

func (m *Module) optimize(o opt.Options) OptStats {
	r, _ := m.sess.OptimizeWith(o) // Frontend already ran in Load; no error possible
	return OptStats{
		ConstantsFolded:  r.ConstantsFolded,
		CopiesPropagated: r.CopiesPropagated,
		AssignsRemoved:   r.AssignsRemoved,
		BranchesResolved: r.BranchesResolved,
		CSEHits:          r.CSEHits,
	}
}

// DumpGraph renders a procedure's Abstract C-- flow graph (Table 2).
func (m *Module) DumpGraph(proc string) (string, error) {
	g := m.sess.Program().Graph(proc)
	if g == nil {
		return "", fmt.Errorf("no procedure %s", proc)
	}
	return g.String(), nil
}

// DumpSSA renders the Figure 6 presentation of a procedure: its SSA
// numbering over the Table 3 dataflow.
func (m *Module) DumpSSA(proc string) (string, error) {
	g := m.sess.Program().Graph(proc)
	if g == nil {
		return "", fmt.Errorf("no procedure %s", proc)
	}
	s := dataflow.BuildSSA(g)
	if err := s.Verify(); err != nil {
		return "", err
	}
	return s.String(), nil
}

// DumpLiveness renders per-node live-variable sets.
func (m *Module) DumpLiveness(proc string) (string, error) {
	g := m.sess.Program().Graph(proc)
	if g == nil {
		return "", fmt.Errorf("no procedure %s", proc)
	}
	lv, err := m.sess.Liveness(proc)
	if err != nil {
		return "", err
	}
	out := ""
	for i, n := range g.Nodes() {
		out += fmt.Sprintf("n%d %s: in=%v out=%v\n", i, n.Kind, lv.In(n), lv.Out(n))
	}
	return out, nil
}

// ExceptionPolicy selects how the MiniM3 front end implements
// exceptions (§2's design space).
type ExceptionPolicy = minim3.Policy

// The MiniM3 exception policies.
const (
	// StackCutting: handler continuations on a dynamic exception stack;
	// RAISE pops and cuts (Appendix A.2, Figure 10).
	StackCutting = minim3.PolicyCutting
	// RuntimeUnwinding: descriptors plus a run-time stack walk
	// (Appendix A.1, Figures 8/9). Zero normal-case overhead.
	RuntimeUnwinding = minim3.PolicyUnwinding
	// NativeUnwinding: compiled unwinding via alternate returns and the
	// branch-table method (§4.2, Figures 3/4).
	NativeUnwinding = minim3.PolicyNativeUnwind
)

// CompileMiniM3 compiles MiniM3 source to C-- under the given policy.
// For every procedure P the result exports a wrapper run_P returning
// (status, value): status 0 on normal return, or the escaped exception's
// tag with its argument.
func CompileMiniM3(src string, policy ExceptionPolicy) (string, error) {
	return minim3.Compile(src, policy)
}
