package sem

import (
	"encoding/binary"
	"fmt"
	"math"

	"cmm/internal/cfg"
	"cmm/internal/obs"
	"cmm/internal/syntax"
)

// Address-space layout of the abstract machine. Ordinary memory occupies
// [0, memSize); procedure addresses and continuation handles live in
// reserved ranges that are never valid load/store targets, so that code
// and continuation values can round-trip through memory as plain words.
const (
	DefaultMemSize = 1 << 20    // 1 MiB of simulated memory
	procBase       = 0x00400000 // procedure handles: procBase + 16*i
	foreignBase    = 0x00600000 // foreign-procedure handles
	contBase       = 0x7F000000 // continuation handles
)

type contKey struct {
	node *cfg.Node
	uid  int
}

// Machine is the C-- abstract machine of §5.2.
type Machine struct {
	Prog    *cfg.Program
	Img     *cfg.Image
	Mem     []byte
	Foreign map[string]ForeignFunc
	RTS     RuntimeSystem

	// MaxSteps bounds the transitions of a single Run; 0 means no bound.
	// Exceeding it returns an error (useful against accidental
	// divergence in tests). Steps accumulates across runs.
	MaxSteps int64
	Steps    int64
	runStart int64

	procVals    map[string]Value
	handles     map[uint64]Value // handle word -> rich value
	contHandles map[contKey]uint64
	nextContH   uint64
	graphOf     map[*cfg.Node]*cfg.Graph

	globals []Value // the global registers, by slot (source order)

	// The seven components of the machine state. ρ is env's first
	// len(cur.Locals) values, indexed by local slot; the continuations
	// Entry binds follow, indexed by continuation slot. σ is saved,
	// indexed by local slot, and nil when empty.
	ctrl  *cfg.Node
	env   []Value
	saved []bool
	uid   int
	// Mem is M; A and stack follow.
	A     []Value
	stack []Frame

	cur     *cfg.Graph // graph containing ctrl (nil inside the runtime)
	nextUID int
	halted  bool
	results []Value

	pending *resumption // set by the Table 1 interface during a yield

	obs *obs.Observer // optional observability sink (nil when disabled)
}

// Option configures a Machine.
type Option func(*Machine)

// WithMemSize sets the simulated memory size in bytes.
func WithMemSize(n int) Option { return func(m *Machine) { m.Mem = make([]byte, n) } }

// WithRuntime sets the front-end run-time system invoked on yields.
func WithRuntime(r RuntimeSystem) Option { return func(m *Machine) { m.RTS = r } }

// WithForeign registers an imported procedure implemented in Go.
func WithForeign(name string, f ForeignFunc) Option {
	return func(m *Machine) { m.Foreign[name] = f }
}

// WithMaxSteps bounds the number of transitions.
func WithMaxSteps(n int64) Option { return func(m *Machine) { m.MaxSteps = n } }

// WithObserver attaches an observability sink. The abstract machine has
// no cycle model, so events are stamped with the transition count; the
// run-time-interface and dispatcher events still appear, which is what
// makes interp traces comparable in shape to compiled ones.
func WithObserver(o *obs.Observer) Option {
	return func(m *Machine) {
		m.obs = o
		o.Clock = func() (int64, int64) { return m.Steps, m.Steps }
		o.ProcName = func(pc int) string {
			if v, ok := m.handles[uint64(pc)]; ok && (v.Kind == KCode || v.Kind == KForeign) {
				return v.Name
			}
			return ""
		}
	}
}

// semSPBase anchors the synthetic stack pointer the abstract machine
// reports in events. It has no memory stack, but the observer's
// frame-tracking pop rule ("pop while top.sp <= event.sp", stacks grow
// down) needs a descending coordinate: we use base minus the suspended-
// activation count, so deeper activations get smaller values exactly as
// real frame pointers would.
const semSPBase = uint64(1) << 32

func (m *Machine) semSP(depth int) uint64 { return semSPBase - uint64(depth) }

// Observer returns the attached observability sink, or nil.
func (m *Machine) Observer() *obs.Observer { return m.obs }

// emitObs records a run-time-interface event stamped with the current
// transition count.
func (m *Machine) emitObs(k obs.Kind, a, b uint64) {
	if m.obs != nil {
		m.obs.Emit(obs.Event{Kind: k, Ts: m.Steps, Instr: m.Steps, PC: -1, A: a, B: b})
	}
}

// emitCtl records a control-transfer event (call, return, cut, yield)
// carrying the synthetic stack pointer, so traces from the abstract
// machine reconstruct call stacks the same way compiled ones do.
func (m *Machine) emitCtl(k obs.Kind, sp, a, b uint64) {
	if m.obs != nil {
		m.obs.Emit(obs.Event{Kind: k, Ts: m.Steps, Instr: m.Steps, PC: -1, SP: sp, A: a, B: b})
	}
}

// New creates a machine for prog, loads its data image, and initializes
// global registers.
func New(prog *cfg.Program, opts ...Option) (*Machine, error) {
	m := &Machine{
		Prog:        prog,
		globals:     make([]Value, len(prog.Globals)),
		Foreign:     map[string]ForeignFunc{},
		procVals:    map[string]Value{},
		handles:     map[uint64]Value{},
		contHandles: map[contKey]uint64{},
		nextContH:   contBase,
		graphOf:     map[*cfg.Node]*cfg.Graph{},
		nextUID:     1,
	}
	for i, name := range prog.Order {
		g := prog.Graphs[name]
		v := Value{Kind: KCode, Bits: procBase + uint64(16*i), Node: g.Entry, Name: name}
		m.procVals[name] = v
		m.handles[v.Bits] = v
		for _, n := range g.AllNodes() {
			m.graphOf[n] = g
		}
	}
	fi := 0
	for _, imp := range prog.Imports {
		if _, isProc := m.procVals[imp]; isProc {
			continue
		}
		v := Value{Kind: KForeign, Bits: foreignBase + uint64(16*fi), Name: imp}
		fi++
		m.procVals[imp] = v
		m.handles[v.Bits] = v
	}
	img, err := cfg.BuildImage(prog, func(name string) (uint64, bool) {
		if v, ok := m.procVals[name]; ok {
			return v.Bits, true
		}
		return 0, false
	})
	if err != nil {
		return nil, err
	}
	m.Img = img
	for _, opt := range opts {
		opt(m)
	}
	if m.Mem == nil {
		m.Mem = make([]byte, DefaultMemSize)
	}
	if img.End() > uint64(len(m.Mem)) {
		return nil, fmt.Errorf("data image (%d bytes at %#x) exceeds memory size %d", len(img.Bytes), img.Base, len(m.Mem))
	}
	copy(m.Mem[img.Base:], img.Bytes)
	for i, g := range prog.Globals {
		m.globals[i] = Word(g.Init)
	}
	return m, nil
}

// ProcValue returns the code value for a procedure or registered import.
func (m *Machine) ProcValue(name string) (Value, bool) {
	v, ok := m.procVals[name]
	return v, ok
}

// ContHandle interns Cont(node, uid) and returns its handle value.
func (m *Machine) contValue(node *cfg.Node, uid int) Value {
	key := contKey{node, uid}
	h, ok := m.contHandles[key]
	if !ok {
		h = m.nextContH
		m.nextContH += 16
		m.contHandles[key] = h
		m.handles[h] = Value{Kind: KCont, Bits: h, Node: node, UID: uid}
	}
	return m.handles[h]
}

// valueOfWord recovers the rich value a word denotes: a registered handle
// resolves to its code or continuation value; anything else is bits.
func (m *Machine) valueOfWord(w uint64) Value {
	if v, ok := m.handles[w]; ok {
		return v
	}
	return Word(w)
}

func (m *Machine) wrongf(format string, args ...any) error {
	return &Wrong{Msg: fmt.Sprintf(format, args...), Node: m.ctrl}
}

// Run executes the named procedure with the given arguments until the
// machine terminates normally, returning the values it returned. A
// non-nil error means the program went wrong (§5.2) or exceeded MaxSteps.
func (m *Machine) Run(proc string, args ...uint64) ([]Value, error) {
	v, ok := m.procVals[proc]
	if !ok || v.Kind != KCode {
		return nil, fmt.Errorf("no procedure %s", proc)
	}
	m.ctrl = v.Node
	m.cur = m.graphOf[v.Node]
	m.env, m.saved = nil, nil
	m.uid = m.freshUID()
	m.A = make([]Value, len(args))
	for i, a := range args {
		m.A[i] = Word(a)
	}
	m.stack = nil
	m.halted = false
	m.results = nil
	m.runStart = m.Steps
	m.emitCtl(obs.KCall, m.semSP(0), v.Bits, 0)
	for !m.halted {
		if err := m.Step(); err != nil {
			return nil, err
		}
	}
	return m.results, nil
}

func (m *Machine) freshUID() int {
	m.nextUID++
	return m.nextUID
}

// Step performs one transition of the abstract machine.
func (m *Machine) Step() error {
	m.Steps++
	if m.MaxSteps > 0 && m.Steps-m.runStart > m.MaxSteps {
		return fmt.Errorf("exceeded %d steps (possible divergence)", m.MaxSteps)
	}
	n := m.ctrl
	switch n.Kind {
	case cfg.KindEntry:
		// Entry binds the procedure's continuations into an empty
		// environment; the incoming environment is discarded.
		nl := len(m.cur.Locals)
		env := make([]Value, nl+len(n.Conts))
		for i := range nl {
			env[i] = unset
		}
		for i, cb := range n.Conts {
			env[nl+i] = m.contValue(cb.Node, m.uid)
		}
		m.env, m.saved = env, nil
		m.ctrl = n.Succ[0]
		return nil

	case cfg.KindCopyIn:
		if len(m.A) != len(n.Vars) {
			return m.wrongf("CopyIn expects %d values, but the value-passing area holds %d", len(n.Vars), len(m.A))
		}
		for i, v := range n.Vars {
			if err := m.set(v, m.A[i]); err != nil {
				return err
			}
		}
		m.A = nil // CopyIn replaces A by the empty list
		m.ctrl = n.Succ[0]
		return nil

	case cfg.KindCopyOut:
		vals := make([]Value, len(n.Exprs))
		for i, e := range n.Exprs {
			v, err := m.eval(e)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		m.A = vals
		m.ctrl = n.Succ[0]
		return nil

	case cfg.KindCalleeSaves:
		m.saved = make([]bool, len(m.cur.Locals))
		for _, v := range n.Saved {
			m.saved[v.Slot] = true
		}
		m.ctrl = n.Succ[0]
		return nil

	case cfg.KindAssign:
		v, err := m.eval(n.RHS)
		if err != nil {
			return err
		}
		if n.LHSMem != nil {
			addr, err := m.eval(n.LHSMem.Addr)
			if err != nil {
				return err
			}
			return m.store(addr.Bits, v.Bits, n.LHSMem.Ty.Bytes(), n)
		}
		if err := m.set(n.LHSVar, v); err != nil {
			return err
		}
		m.ctrl = n.Succ[0]
		return nil

	case cfg.KindBranch:
		v, err := m.eval(n.Cond)
		if err != nil {
			return err
		}
		if v.Bits != 0 {
			m.ctrl = n.Succ[0]
		} else {
			m.ctrl = n.Succ[1]
		}
		return nil

	case cfg.KindGoto:
		if n.Target == nil {
			m.ctrl = n.Succ[0]
			return nil
		}
		v, err := m.eval(n.Target)
		if err != nil {
			return err
		}
		// A computed goto must transfer to one of its declared targets.
		for _, s := range n.Succ {
			if lbl, ok := m.labelAddr(s); ok && lbl == v.Bits {
				m.ctrl = s
				return nil
			}
		}
		return m.wrongf("computed goto to %#x, which is not one of its declared targets", v.Bits)

	case cfg.KindCall:
		return m.call(n)

	case cfg.KindJump:
		callee, err := m.eval(n.Callee)
		if err != nil {
			return err
		}
		return m.jump(callee)

	case cfg.KindCutTo:
		target, err := m.eval(n.Callee)
		if err != nil {
			return err
		}
		target = m.valueOfWord(target.Bits)
		if target.Kind != KCont {
			return m.wrongf("cut to a value that is not a continuation (%s)", target)
		}
		return m.cutTo(target, n.Bundle)

	case cfg.KindExit:
		return m.exit(n)

	case cfg.KindYield:
		return m.yield()
	}
	return m.wrongf("no transition for node kind %s", n.Kind)
}

// labelAddr gives a stable word for a label node used as a computed-goto
// target. Labels are values (§3.2); we use the node's interned handle.
func (m *Machine) labelAddr(n *cfg.Node) (uint64, bool) {
	// Label values arise only from computed gotos, which our checker
	// restricts to label names resolved within the procedure. We intern
	// them as continuation-style handles with uid 0.
	v := m.contValue(n, 0)
	return v.Bits, true
}

func (m *Machine) call(n *cfg.Node) error {
	if n.IsYield {
		// A call to the special run-time procedure yield (§3.3): push the
		// frame and enter the Yield node.
		m.stack = append(m.stack, Frame{
			Bundle: n.Bundle, Env: m.env, Saved: m.saved, UID: m.uid,
			Graph: m.cur, Site: n,
		})
		m.ctrl = m.Prog.YieldNode
		m.cur = nil
		m.env, m.saved = nil, nil
		m.uid = m.freshUID()
		return nil
	}
	callee, err := m.eval(n.Callee)
	if err != nil {
		return err
	}
	callee = m.valueOfWord(callee.Bits)
	switch callee.Kind {
	case KCode:
		m.stack = append(m.stack, Frame{
			Bundle: n.Bundle, Env: m.env, Saved: m.saved, UID: m.uid,
			Graph: m.cur, Site: n,
		})
		m.emitCtl(obs.KCall, m.semSP(len(m.stack)), callee.Bits, 0)
		m.ctrl = callee.Node
		m.cur = m.graphOf[callee.Node]
		m.env, m.saved = nil, nil
		m.uid = m.freshUID()
		return nil
	case KForeign:
		f, ok := m.Foreign[callee.Name]
		if !ok {
			return m.wrongf("imported procedure %s has no implementation", callee.Name)
		}
		m.emitCtl(obs.KForeign, m.semSP(len(m.stack)), callee.Bits, 0)
		results, err := f(m, m.A)
		if err != nil {
			return err
		}
		m.A = results
		m.ctrl = n.Bundle.NormalReturn()
		return nil
	case KCont:
		return m.wrongf("called a continuation value; use cut to")
	}
	return m.wrongf("called a value that is not code (%s)", callee)
}

func (m *Machine) jump(callee Value) error {
	callee = m.valueOfWord(callee.Bits)
	switch callee.Kind {
	case KCode:
		// A tail call replaces the running activation: the event carries
		// the same synthetic sp, so the observer's pop rule collapses both
		// when the callee eventually returns.
		m.emitCtl(obs.KCall, m.semSP(len(m.stack)), callee.Bits, 0)
		m.ctrl = callee.Node
		m.cur = m.graphOf[callee.Node]
		m.env, m.saved = nil, nil
		m.uid = m.freshUID()
		return nil
	case KForeign:
		f, ok := m.Foreign[callee.Name]
		if !ok {
			return m.wrongf("imported procedure %s has no implementation", callee.Name)
		}
		m.emitCtl(obs.KForeign, m.semSP(len(m.stack)), callee.Bits, 0)
		results, err := f(m, m.A)
		if err != nil {
			return err
		}
		// A tail call to foreign code returns directly to the caller.
		m.A = results
		return m.returnTo(0, 0)
	}
	return m.wrongf("jumped to a value that is not code (%s)", callee)
}

func (m *Machine) exit(n *cfg.Node) error {
	if len(m.stack) == 0 {
		if n.RetIndex == 0 && n.RetArity == 0 {
			// Terminated normally: control is Exit 0 0 and the stack is
			// empty. The return event closes the entry activation, giving
			// profiles their end-of-run timestamp.
			m.emitCtl(obs.KReturn, m.semSP(0), 0, 0)
			m.halted = true
			m.results = m.A
			return nil
		}
		return m.wrongf("alternate return <%d/%d> with an empty stack", n.RetIndex, n.RetArity)
	}
	return m.returnTo(n.RetIndex, n.RetArity)
}

// returnTo pops a frame and transfers to return continuation j of a call
// site that must have exactly n alternate return continuations.
func (m *Machine) returnTo(j, n int) error {
	if n > 0 && j < n {
		m.emitCtl(obs.KAltReturn, m.semSP(len(m.stack)), uint64(j), uint64(n))
	} else {
		m.emitCtl(obs.KReturn, m.semSP(len(m.stack)), uint64(j), 0)
	}
	fr := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	if fr.Bundle.AlternateCount() != n {
		return m.wrongf("return <%d/%d> to a call site with %d alternate return continuations",
			j, n, fr.Bundle.AlternateCount())
	}
	m.ctrl = fr.Bundle.Returns[j]
	m.env = fr.Env
	m.saved = fr.Saved
	m.uid = fr.UID
	m.cur = fr.Graph
	return nil
}

// cutTo implements the CutTo transition rules: unwind frames one at a
// time (each popped frame's suspended call must be annotated also
// aborts) until the activation owning the continuation is on top, then
// transfer without restoring callee-saves registers. ownBundle is the cut
// site's own bundle, used when cutting to a continuation of the current
// activation.
func (m *Machine) cutTo(target Value, ownBundle *cfg.Bundle) error {
	if target.UID == m.uid {
		// Cut to a continuation in the same procedure: legal only when
		// the cut site names it in also cuts to.
		if ownBundle == nil || !containsNode(ownBundle.Cuts, target.Node) {
			return m.wrongf("cut to continuation in the same activation without also cuts to")
		}
		m.emitCtl(obs.KCutTo, m.semSP(len(m.stack)+1), target.Bits, 0)
		m.ctrl = target.Node
		return nil
	}
	for {
		if len(m.stack) == 0 {
			return m.wrongf("cut to dead continuation (uid %d not on the stack)", target.UID)
		}
		fr := m.stack[len(m.stack)-1]
		if fr.UID == target.UID {
			if !containsNode(fr.Bundle.Cuts, target.Node) {
				return m.wrongf("cut to continuation not listed in the suspended call's also cuts to")
			}
			m.stack = m.stack[:len(m.stack)-1]
			// Callee-saves registers are not restored: remove them from
			// the saved environment (ρ′ \ σ′). The popped frame's
			// environment is no one else's, so it is edited in place.
			for s, inReg := range fr.Saved {
				if inReg {
					fr.Env[s] = unset
				}
			}
			m.ctrl = target.Node
			m.env = fr.Env
			m.saved = nil
			m.uid = fr.UID
			m.cur = fr.Graph
			// sp one below the landing activation: the pop rule discards
			// every activation the cut flew past, but not the landing one.
			m.emitCtl(obs.KCutTo, m.semSP(len(m.stack)+1), target.Bits, 0)
			return nil
		}
		if !fr.Bundle.Abort {
			return m.wrongf("cut past a call site in %s without also aborts", fr.Graph.Name)
		}
		m.stack = m.stack[:len(m.stack)-1]
	}
}

func containsNode(ns []*cfg.Node, n *cfg.Node) bool {
	for _, x := range ns {
		if x == n {
			return true
		}
	}
	return false
}

func (m *Machine) yield() error {
	if m.RTS == nil {
		return m.wrongf("yield with no run-time system installed")
	}
	m.pending = newResumption()
	args := m.A
	var tag uint64
	if len(args) > 0 {
		tag = args[0].Bits
	}
	m.emitCtl(obs.KYield, m.semSP(len(m.stack)), tag, uint64(len(args)))
	if err := m.RTS.Yield(m, args); err != nil {
		return err
	}
	if m.pending != nil && !m.pending.done {
		return m.wrongf("run-time system returned without arranging resumption")
	}
	m.pending = nil
	return nil
}

// --- Memory ---

// Load reads a size-byte little-endian value; it makes the machine go
// wrong on an out-of-range address.
func (m *Machine) Load(addr uint64, size int) (uint64, error) {
	if addr+uint64(size) > uint64(len(m.Mem)) || addr+uint64(size) < addr {
		return 0, m.wrongf("load of %d bytes at %#x is outside memory", size, addr)
	}
	var buf [8]byte
	copy(buf[:], m.Mem[addr:addr+uint64(size)])
	return binary.LittleEndian.Uint64(buf[:]) & widthMask(size*8), nil
}

func (m *Machine) store(addr, v uint64, size int, at *cfg.Node) error {
	if addr+uint64(size) > uint64(len(m.Mem)) || addr+uint64(size) < addr {
		return m.wrongf("store of %d bytes at %#x is outside memory", size, addr)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	copy(m.Mem[addr:addr+uint64(size)], buf[:size])
	if at != nil {
		m.ctrl = at.Succ[0]
	}
	return nil
}

// Store writes a size-byte little-endian value (for foreign code and
// run-time systems).
func (m *Machine) Store(addr, v uint64, size int) error { return m.store(addr, v, size, nil) }

func widthMask(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}

// set assigns val to the variable v names.
func (m *Machine) set(v *syntax.VarExpr, val Value) error {
	switch v.Ref {
	case syntax.RefLocal:
		m.env[v.Slot] = val
	case syntax.RefGlobal:
		m.globals[v.Slot] = val
	default:
		return m.wrongf("assignment to undeclared variable %s", v.Name)
	}
	return nil
}

// --- Expression evaluation (E[[e]]ρM, §5.1) ---

func (m *Machine) eval(e syntax.Expr) (Value, error) {
	switch e := e.(type) {
	case *syntax.IntLit:
		return Word(e.Val), nil
	case *syntax.FloatLit:
		if e.Ty.Width == 32 {
			return Word(uint64(math.Float32bits(float32(e.Val)))), nil
		}
		return Word(math.Float64bits(e.Val)), nil
	case *syntax.StrLit:
		addr, ok := m.Img.Strings[e.Val]
		if !ok {
			return Value{}, m.wrongf("string literal %q not interned", e.Val)
		}
		return Word(addr), nil
	case *syntax.VarExpr:
		return m.lookup(e)
	case *syntax.MemExpr:
		addr, err := m.eval(e.Addr)
		if err != nil {
			return Value{}, err
		}
		v, err := m.Load(addr.Bits, e.Ty.Bytes())
		if err != nil {
			return Value{}, err
		}
		return Word(v), nil
	case *syntax.UnExpr:
		x, err := m.eval(e.X)
		if err != nil {
			return Value{}, err
		}
		t := e.Ty
		if t.Kind == syntax.FloatType {
			f := m.toFloat(x.Bits, t.Width)
			switch e.Op {
			case syntax.MINUS:
				return Word(m.fromFloat(-f, t.Width)), nil
			}
			return Value{}, m.wrongf("float operator %s unsupported", e.Op)
		}
		switch e.Op {
		case syntax.MINUS:
			return Word((-x.Bits) & widthMask(t.Width)), nil
		case syntax.TILDE:
			return Word(^x.Bits & widthMask(t.Width)), nil
		case syntax.NOT:
			if x.Bits == 0 {
				return Word(1), nil
			}
			return Word(0), nil
		}
		return Value{}, m.wrongf("unary operator %s unsupported", e.Op)
	case *syntax.BinExpr:
		x, err := m.eval(e.X)
		if err != nil {
			return Value{}, err
		}
		y, err := m.eval(e.Y)
		if err != nil {
			return Value{}, err
		}
		xt := e.X.Type()
		if xt.Kind == syntax.FloatType {
			return m.evalFloatBin(e.Op, x.Bits, y.Bits, xt.Width)
		}
		w := xt.Width
		if w == 0 {
			w = 64
		}
		v, ok := cfg.EvalWordOp(e.Op, x.Bits, y.Bits, w)
		if !ok {
			return Value{}, m.wrongf("operator %s failed (division by zero?)", e.Op)
		}
		return Word(v), nil
	case *syntax.PrimExpr:
		args := make([]uint64, len(e.Args))
		var w int
		for i, a := range e.Args {
			v, err := m.eval(a)
			if err != nil {
				return Value{}, err
			}
			args[i] = v.Bits
			if i == 0 {
				w = a.Type().Width
			}
		}
		if w == 0 {
			w = syntax.Word.Width
		}
		v, ok := cfg.EvalPrim(e.Name, args, w)
		if !ok {
			// The fast-but-dangerous variant's behavior is unspecified on
			// failure (§4.3); this implementation chooses to go wrong,
			// the moral equivalent of a hardware trap.
			return Value{}, m.wrongf("primitive %%%s failed (unspecified behavior)", e.Name)
		}
		return Word(v), nil
	}
	return Value{}, m.wrongf("cannot evaluate %T", e)
}

func (m *Machine) toFloat(bits uint64, width int) float64 {
	if width == 32 {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

func (m *Machine) fromFloat(f float64, width int) uint64 {
	if width == 32 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

func (m *Machine) evalFloatBin(op syntax.Kind, x, y uint64, width int) (Value, error) {
	a, b := m.toFloat(x, width), m.toFloat(y, width)
	boolVal := func(c bool) (Value, error) {
		if c {
			return Word(1), nil
		}
		return Word(0), nil
	}
	switch op {
	case syntax.PLUS:
		return Word(m.fromFloat(a+b, width)), nil
	case syntax.MINUS:
		return Word(m.fromFloat(a-b, width)), nil
	case syntax.STAR:
		return Word(m.fromFloat(a*b, width)), nil
	case syntax.SLASH:
		return Word(m.fromFloat(a/b, width)), nil
	case syntax.EQ:
		return boolVal(a == b)
	case syntax.NE:
		return boolVal(a != b)
	case syntax.LT:
		return boolVal(a < b)
	case syntax.LE:
		return boolVal(a <= b)
	case syntax.GT:
		return boolVal(a > b)
	case syntax.GE:
		return boolVal(a >= b)
	}
	return Value{}, m.wrongf("float operator %s unsupported", op)
}

// lookup reads the value v names, as the checker resolved it: a local
// or a continuation of the running activation, a global register, or a
// procedure, import or data-label address.
func (m *Machine) lookup(v *syntax.VarExpr) (Value, error) {
	switch v.Ref {
	case syntax.RefLocal:
		if x := m.env[v.Slot]; x.Kind != kUnset {
			return x, nil
		}
		return Value{}, m.wrongf("read of uninitialized variable %s", v.Name)
	case syntax.RefCont:
		return m.env[len(m.cur.Locals)+v.Slot], nil
	case syntax.RefGlobal:
		return m.globals[v.Slot], nil
	case syntax.RefProc, syntax.RefImport:
		if x, ok := m.procVals[v.Name]; ok {
			return x, nil
		}
	case syntax.RefData:
		if a, ok := m.Img.Labels[v.Name]; ok {
			return Word(a), nil
		}
	}
	return Value{}, m.wrongf("undefined name %s", v.Name)
}
