// Package pipeline runs the compiler as a declared, ordered list of
// named passes over a compilation session. Each pass operates on the
// session's Abstract C-- program and declares what it reads and what it
// invalidates; the session uses the declarations to keep cached results
// (liveness, the compiled code) valid, recomputing them only when a
// transform pass has destroyed them.
//
// Per-procedure passes fan their work out across a worker pool:
// compilation of independent procedures is embarrassingly parallel, and
// no mutable state is shared across procedures — a worker writes only
// its own procedure's graph, and an expression node it builds carries
// its own type. Results are byte-identical to serial mode by
// construction: every worker writes only into its own index of a
// result slice, and every serial phase (linking, stat aggregation)
// consumes those slices in declaration order. The determinism test in
// this package enforces the property over randomized programs.
//
// The session records wall time and IR-size deltas for every pass
// (Stats) and can snapshot the IR after any pass (Config.DumpAfter),
// which backs cmmc -passes/-timings/-dump-after.
package pipeline

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cmm/internal/cfg"
	"cmm/internal/check"
	"cmm/internal/codegen"
	"cmm/internal/dataflow"
	"cmm/internal/diag"
	"cmm/internal/machine"
	"cmm/internal/obs"
	"cmm/internal/opt"
	"cmm/internal/syntax"
	"cmm/internal/verify"
)

// Pass names, in pipeline order. "liveness" may appear twice in a
// session's stats: once as the post-translate analysis and once
// recomputed after opt invalidates it.
const (
	PassParse     = "parse"
	PassCheck     = "check"
	PassTranslate = "translate"
	PassVerify    = "verify"
	PassLiveness  = "liveness"
	PassInterproc = "interproc"
	PassOpt       = "opt"
	PassCodegen   = "codegen"
	PassLink      = "link"
)

// passDef declares one pass: what it reads and what cached analyses it
// invalidates. The declarations drive the analysis cache; they are also
// surfaced by Passes() for documentation and tooling.
type passDef struct {
	Name        string
	PerProc     bool
	Reads       []string
	Invalidates []string
}

var passTable = []passDef{
	{Name: PassParse, Reads: []string{"source"}, Invalidates: []string{"ast", "types", "cfg", PassLiveness, "code"}},
	{Name: PassCheck, Reads: []string{"ast"}, Invalidates: []string{"types"}},
	{Name: PassTranslate, Reads: []string{"ast", "types"}, Invalidates: []string{"cfg", PassLiveness}},
	{Name: PassVerify, Reads: []string{"cfg", "types"}},
	{Name: PassLiveness, PerProc: true, Reads: []string{"cfg"}},
	{Name: PassInterproc, Reads: []string{"cfg", "types"}, Invalidates: []string{PassLiveness, "code"}},
	{Name: PassOpt, PerProc: true, Reads: []string{"cfg", "types", PassLiveness}, Invalidates: []string{PassLiveness, "code"}},
	{Name: PassCodegen, PerProc: true, Reads: []string{"cfg", "types", PassLiveness}},
	{Name: PassLink, Reads: []string{"code"}},
}

// Passes returns the declared pass list: name, per-procedure flag, and
// the reads/invalidates sets, in pipeline order.
func Passes() []PassDecl {
	out := make([]PassDecl, len(passTable))
	for i, p := range passTable {
		out[i] = PassDecl{
			Name:        p.Name,
			PerProc:     p.PerProc,
			Reads:       append([]string{}, p.Reads...),
			Invalidates: append([]string{}, p.Invalidates...),
		}
	}
	return out
}

// PassDecl is the public form of a pass declaration.
type PassDecl struct {
	Name        string
	PerProc     bool
	Reads       []string
	Invalidates []string
}

// PassNames lists the pass names valid for Config.DumpAfter and
// cmmc -dump-after.
func PassNames() []string {
	var out []string
	for _, p := range passTable {
		out = append(out, p.Name)
	}
	return out
}

// PassStat records one pass execution: wall time, how many procedures it
// visited (0 for whole-program passes), and the IR size before and
// after. IR size is measured in flow-graph nodes for Abstract C--
// passes and in machine instructions for codegen and link.
type PassStat struct {
	Name     string
	Wall     time.Duration
	Procs    int
	IRBefore int
	IRAfter  int
	// Start is the host time at which the pass began; it anchors the pass
	// on a shared trace timeline. Zero for stats recorded directly via
	// Record (ObserveInto then synthesizes back-to-back offsets).
	Start time.Time
}

func (s PassStat) String() string {
	delta := ""
	if s.IRAfter != s.IRBefore {
		delta = fmt.Sprintf(" (%+d)", s.IRAfter-s.IRBefore)
	}
	procs := ""
	if s.Procs > 0 {
		procs = fmt.Sprintf(" procs=%d", s.Procs)
	}
	return fmt.Sprintf("%-10s %12v%s ir=%d%s", s.Name, s.Wall.Round(time.Microsecond), procs, s.IRAfter, delta)
}

// Config configures a Session.
type Config struct {
	// File names the source in diagnostics (may be empty).
	File string
	// Workers bounds procedure-level parallelism for per-procedure
	// passes. 0 means runtime.NumCPU(); 1 forces serial execution.
	// Output is byte-identical for every value.
	Workers int
	// Opt configures the optimizer pass.
	Opt opt.Options
	// Codegen configures code generation. LivenessFor is overwritten by
	// the session with its cached analysis.
	Codegen codegen.Options
	// DumpAfter lists pass names to snapshot the IR after; see
	// Session.Snapshot. Unknown names are reported by Validate.
	DumpAfter []string
	// DumpProc restricts snapshots to one procedure (empty: all).
	DumpProc string
	// Verify runs the well-formedness verifier (internal/verify) as part
	// of Frontend: verifier errors fail the load, verifier warnings are
	// appended to the session's diagnostics.
	Verify bool
	// VerifyStrict additionally reports provably useless annotations
	// (implies nothing unless Verify is set or Session.Verify is called).
	VerifyStrict bool
}

// Validate reports an error naming the available passes if DumpAfter
// mentions an unknown pass.
func (c Config) Validate() error {
	for _, want := range c.DumpAfter {
		ok := false
		for _, p := range passTable {
			if p.Name == want {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("unknown pass %q; available passes: %s", want, strings.Join(PassNames(), ", "))
		}
	}
	return nil
}

// Session carries one compilation unit through the pass list. Passes run
// lazily in stages — Frontend, Optimize, Codegen — so callers that only
// need the Abstract C-- program never pay for code generation, mirroring
// the root API it backs.
type Session struct {
	cfg   Config
	src   string
	diags diag.List
	stats []PassStat

	parsed *syntax.Program
	info   *check.Info
	prog   *cfg.Program

	liveness      map[string]*dataflow.Liveness
	livenessValid bool

	code *codegen.Program

	// snapshots[pass][proc] is the IR dump captured after pass.
	snapshots map[string]map[string]string

	frontendDone bool
}

// New creates a session over C-- source. No pass runs until a stage is
// requested.
func New(src string, cfg Config) *Session {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.NumCPU()
	}
	return &Session{cfg: cfg, src: src, snapshots: map[string]map[string]string{}}
}

// Record appends an externally timed pass to the session's stats. Front
// ends that run before parse (the MiniM3 stages) use it so their wall
// time appears in the same report.
func (s *Session) Record(stat PassStat) { s.stats = append(s.stats, stat) }

// AddDiagnostics appends externally produced diagnostics (front-end
// notes) to the session's list.
func (s *Session) AddDiagnostics(ds diag.List) { s.diags = append(s.diags, ds...) }

// ObserveInto feeds the session's per-pass stats to an observability
// sink as compile spans, so compile passes and the simulated run share
// one Chrome trace. Spans are placed relative to the first pass's start;
// stats recorded without a Start time (via Record) are laid end to end
// after the last anchored pass.
func (s *Session) ObserveInto(o *obs.Observer) {
	if o == nil || len(s.stats) == 0 {
		return
	}
	var epoch time.Time
	for _, st := range s.stats {
		if !st.Start.IsZero() && (epoch.IsZero() || st.Start.Before(epoch)) {
			epoch = st.Start
		}
	}
	var cursor int64 // synthetic offset for unanchored stats
	for _, st := range s.stats {
		dur := st.Wall.Microseconds()
		if dur < 1 {
			dur = 1
		}
		var start int64
		if !st.Start.IsZero() && !epoch.IsZero() {
			start = st.Start.Sub(epoch).Microseconds()
		} else {
			start = cursor
		}
		if end := start + dur; end > cursor {
			cursor = end
		}
		o.AddSpan(obs.Span{Name: st.Name, Start: start, Dur: dur})
	}
}

// Stats returns per-pass wall time and IR-size deltas for every pass
// that has run, in execution order.
func (s *Session) Stats() []PassStat { return append([]PassStat{}, s.stats...) }

// Diagnostics returns everything the passes reported, errors and notes.
func (s *Session) Diagnostics() diag.List { return append(diag.List{}, s.diags...) }

// Source returns the C-- source the session compiles.
func (s *Session) Source() string { return s.src }

// Program returns the Abstract C-- program (after Frontend).
func (s *Session) Program() *cfg.Program { return s.prog }

// Info returns the checker's result (after Frontend).
func (s *Session) Info() *check.Info { return s.info }

// Snapshot returns the IR dump of proc captured after the named pass,
// if Config.DumpAfter requested it.
func (s *Session) Snapshot(pass, proc string) (string, bool) {
	m, ok := s.snapshots[pass]
	if !ok {
		return "", false
	}
	d, ok := m[proc]
	return d, ok
}

// SnapshotProcs lists the procedures captured after the named pass.
func (s *Session) SnapshotProcs(pass string) []string {
	m := s.snapshots[pass]
	var out []string
	for p := range m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// fail converts err into diagnostics attributed to pass, records them,
// and returns the list as the stage error.
func (s *Session) fail(pass string, err error) error {
	ds := diag.AsList(err, pass)
	s.diags = append(s.diags, ds...)
	return ds
}

// irNodes measures the Abstract C-- program in flow-graph nodes.
func (s *Session) irNodes() int {
	if s.prog == nil {
		return 0
	}
	total := 0
	for _, name := range s.prog.Order {
		total += len(s.prog.Graphs[name].Nodes())
	}
	return total
}

// timePass runs fn and records a PassStat around it.
func (s *Session) timePass(name string, procs int, before int, after func() int, fn func() error) error {
	start := time.Now()
	err := fn()
	stat := PassStat{Name: name, Wall: time.Since(start), Procs: procs, IRBefore: before, Start: start}
	if err == nil {
		stat.IRAfter = after()
	} else {
		stat.IRAfter = before
	}
	s.stats = append(s.stats, stat)
	return err
}

// forEachProc fans fn out over the program's procedures. Workers write
// only into their own index of any result slice, and the caller
// aggregates in index order, so the observable result is independent of
// scheduling. The first error in declaration order wins.
func (s *Session) forEachProc(fn func(i int, name string) error) error {
	names := s.prog.Order
	errs := make([]error, len(names))
	if s.cfg.Workers <= 1 || len(names) <= 1 {
		for i, name := range names {
			errs[i] = fn(i, name)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		workers := s.cfg.Workers
		if workers > len(names) {
			workers = len(names)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					errs[i] = fn(i, names[i])
				}
			}()
		}
		for i := range names {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// snapshotGraphs captures graph dumps after pass if requested.
func (s *Session) snapshotGraphs(pass string) {
	if !s.wantDump(pass) || s.prog == nil {
		return
	}
	m := map[string]string{}
	for _, name := range s.prog.Order {
		if s.cfg.DumpProc != "" && name != s.cfg.DumpProc {
			continue
		}
		m[name] = s.prog.Graphs[name].String()
	}
	s.snapshots[pass] = m
}

func (s *Session) wantDump(pass string) bool {
	for _, p := range s.cfg.DumpAfter {
		if p == pass {
			return true
		}
	}
	return false
}

// Frontend runs parse, check, translate, and the initial liveness
// analysis. It is idempotent: later stages call it implicitly.
func (s *Session) Frontend() error {
	if s.frontendDone {
		if s.diags.HasErrors() {
			return s.diags.Errors()
		}
		return nil
	}
	s.frontendDone = true

	err := s.timePass(PassParse, 0, 0, func() int { return len(s.src) }, func() error {
		parsed, err := syntax.ParseFile(s.cfg.File, s.src)
		if err != nil {
			return err
		}
		s.parsed = parsed
		return nil
	})
	if err != nil {
		return s.fail(PassParse, err)
	}

	err = s.timePass(PassCheck, 0, 0, func() int { return len(s.parsed.Procs) }, func() error {
		info, err := check.Check(s.parsed)
		if err != nil {
			return err
		}
		s.info = info
		return nil
	})
	if err != nil {
		return s.fail(PassCheck, err)
	}

	err = s.timePass(PassTranslate, 0, 0, s.irNodes, func() error {
		prog, err := cfg.Build(s.parsed, s.info)
		if err != nil {
			return err
		}
		s.prog = prog
		return nil
	})
	if err != nil {
		return s.fail(PassTranslate, err)
	}
	s.snapshotGraphs(PassTranslate)

	if s.cfg.Verify {
		var vds diag.List
		s.timePass(PassVerify, 0, s.irNodes(), s.irNodes, func() error {
			vds = verify.Run(s.prog, verify.Options{Strict: s.cfg.VerifyStrict})
			return nil
		})
		if vds.HasErrors() {
			s.diags = append(s.diags, vds...)
			return s.diags.Errors()
		}
		s.diags = append(s.diags, vds...)
	}

	return s.ensureLiveness()
}

// Verify runs the well-formedness verifier over the translated program
// and returns its findings without failing the session (unlike
// Config.Verify, which makes verifier errors fail Frontend). The
// returned diagnostics are not added to the session's list.
func (s *Session) Verify(strict bool) (diag.List, error) {
	if err := s.Frontend(); err != nil {
		return nil, err
	}
	var vds diag.List
	s.timePass(PassVerify, 0, s.irNodes(), s.irNodes, func() error {
		vds = verify.Run(s.prog, verify.Options{Strict: strict})
		return nil
	})
	return vds, nil
}

// ensureLiveness recomputes the cached liveness analysis when a
// transform pass has invalidated it (the reads/invalidates declarations
// in passTable).
func (s *Session) ensureLiveness() error {
	if s.livenessValid {
		return nil
	}
	results := make([]*dataflow.Liveness, len(s.prog.Order))
	nodes := s.irNodes()
	err := s.timePass(PassLiveness, len(s.prog.Order), nodes, func() int { return nodes }, func() error {
		return s.forEachProc(func(i int, name string) error {
			results[i] = dataflow.ComputeLiveness(s.prog.Graphs[name])
			return nil
		})
	})
	if err != nil {
		return s.fail(PassLiveness, err)
	}
	s.liveness = map[string]*dataflow.Liveness{}
	for i, name := range s.prog.Order {
		s.liveness[name] = results[i]
	}
	s.livenessValid = true
	s.snapshotGraphs(PassLiveness)
	return nil
}

// Liveness returns the cached analysis for proc, recomputing the cache
// if it is stale.
func (s *Session) Liveness(proc string) (*dataflow.Liveness, error) {
	if err := s.Frontend(); err != nil {
		return nil, err
	}
	if err := s.ensureLiveness(); err != nil {
		return nil, err
	}
	return s.liveness[proc], nil
}

// Interproc runs the summary-driven interprocedural pass: annotation
// pruning at provably quiet call sites and removal of the continuations
// nothing references afterwards (opt.Interproc). It is a whole-program
// pass — the summaries cross procedure boundaries — so it does not fan
// out. It invalidates the liveness and code caches like any transform.
func (s *Session) Interproc() (opt.InterprocResult, error) {
	var res opt.InterprocResult
	if err := s.Frontend(); err != nil {
		return res, err
	}
	err := s.timePass(PassInterproc, 0, s.irNodes(), s.irNodes, func() error {
		res = *opt.Interproc(s.prog)
		return nil
	})
	if err != nil {
		return res, s.fail(PassInterproc, err)
	}
	s.invalidate()
	s.snapshotGraphs(PassInterproc)
	return res, nil
}

// Optimize runs the §6 optimizer over every procedure (in parallel for
// Workers > 1) and aggregates the per-procedure results in declaration
// order. The pass invalidates the liveness and code caches: the graphs
// it rewrote no longer match either.
func (s *Session) Optimize() (opt.Result, error) {
	return s.OptimizeWith(s.cfg.Opt)
}

// OptimizeWith is Optimize with explicit optimizer options (the unsound
// no-exception-edges ablation uses it).
func (s *Session) OptimizeWith(o opt.Options) (opt.Result, error) {
	var total opt.Result
	if err := s.Frontend(); err != nil {
		return total, err
	}
	results := make([]*opt.Result, len(s.prog.Order))
	err := s.timePass(PassOpt, len(s.prog.Order), s.irNodes(), s.irNodes, func() error {
		return s.forEachProc(func(i int, name string) error {
			results[i] = opt.Optimize(s.prog.Graphs[name], o)
			return nil
		})
	})
	if err != nil {
		return total, s.fail(PassOpt, err)
	}
	for _, r := range results {
		total.ConstantsFolded += r.ConstantsFolded
		total.CopiesPropagated += r.CopiesPropagated
		total.AssignsRemoved += r.AssignsRemoved
		total.BranchesResolved += r.BranchesResolved
		total.CSEHits += r.CSEHits
		if r.Rounds > total.Rounds {
			total.Rounds = r.Rounds
		}
	}
	s.invalidate()
	s.snapshotGraphs(PassOpt)
	return total, nil
}

// invalidate drops what a graph-rewriting pass makes stale, as passTable
// declares: the liveness analysis and the code Codegen cached.
func (s *Session) invalidate() {
	s.livenessValid = false
	s.code = nil
}

// Codegen compiles the program to machine code: the liveness analysis is
// (re)validated, every procedure is emitted as a relocatable chunk (in
// parallel for Workers > 1), and a serial link phase places the chunks
// in declaration order. The result is byte-identical to serial
// codegen.Compile because both run exactly the same per-procedure and
// link code. The result is cached until interproc or opt rewrites the
// graphs.
func (s *Session) Codegen() (*codegen.Program, error) {
	if s.code != nil {
		return s.code, nil
	}
	cp, err := s.CodegenWith(s.cfg.Codegen)
	if err != nil {
		return nil, err
	}
	s.code = cp
	return cp, nil
}

// CodegenWith is Codegen with explicit code-generation options (the
// paper's branch-table and callee-saves ablations use it). The result is
// not cached: every call re-runs emit and link.
func (s *Session) CodegenWith(base codegen.Options) (*codegen.Program, error) {
	if err := s.Frontend(); err != nil {
		return nil, err
	}
	if err := s.ensureLiveness(); err != nil {
		return nil, err
	}

	opts := base
	opts.LivenessFor = func(name string) *dataflow.Liveness { return s.liveness[name] }

	var lay *codegen.Layout
	chunks := make([]*codegen.ProcChunk, len(s.prog.Order))
	nodes := s.irNodes()
	instrs := 0
	err := s.timePass(PassCodegen, len(s.prog.Order), nodes, func() int { return instrs }, func() error {
		var err error
		lay, err = codegen.NewLayout(s.prog, opts)
		if err != nil {
			return err
		}
		if err := s.forEachProc(func(i int, name string) error {
			ch, err := lay.EmitProc(name)
			if err != nil {
				return err
			}
			chunks[i] = ch
			return nil
		}); err != nil {
			return err
		}
		for _, ch := range chunks {
			instrs += len(ch.Code)
		}
		return nil
	})
	if err != nil {
		return nil, s.fail(PassCodegen, err)
	}

	var code *codegen.Program
	err = s.timePass(PassLink, 0, instrs, func() int { return len(code.Code) }, func() error {
		cp, err := lay.Link(chunks)
		if err != nil {
			return err
		}
		code = cp
		return nil
	})
	if err != nil {
		return nil, s.fail(PassLink, err)
	}
	s.snapshotCode(code)
	return code, nil
}

// snapshotCode captures disassembly after codegen/link if requested.
// Both names snapshot the final linked code: chunk-relative pcs would
// not be meaningful to a reader.
func (s *Session) snapshotCode(code *codegen.Program) {
	for _, pass := range []string{PassCodegen, PassLink} {
		if !s.wantDump(pass) {
			continue
		}
		m := map[string]string{}
		for _, name := range code.Source.Order {
			if s.cfg.DumpProc != "" && name != s.cfg.DumpProc {
				continue
			}
			pi := code.Procs[name]
			var sb strings.Builder
			for i := pi.Entry; i < pi.End; i++ {
				fmt.Fprintf(&sb, "%5d: %s\n", i, machine.Disasm(code.Code[i]))
			}
			m[name] = sb.String()
		}
		s.snapshots[pass] = m
	}
}

// FormatStats renders the stats table for -timings.
func FormatStats(stats []PassStat) string {
	var sb strings.Builder
	var total time.Duration
	for _, st := range stats {
		sb.WriteString(st.String())
		sb.WriteByte('\n')
		total += st.Wall
	}
	fmt.Fprintf(&sb, "%-10s %12v\n", "total", total.Round(time.Microsecond))
	return sb.String()
}
