package sem

import (
	"cmm/internal/cfg"
	"cmm/internal/obs"
	"cmm/internal/syntax"
)

// This file implements the C-- run-time interface of Table 1 over the
// abstract machine. A front-end run-time system receives the machine in
// its Yield hook and uses these operations to inspect the stack of
// activations and to arrange how the suspended computation resumes, just
// as the paper's dispatcher (Figure 9) does in C.
//
// One deviation from the letter of Table 1: FindContParam returns a
// pointer in C; here the pair FindContParam/assignment is fused into
// SetContParam(n, v), which stores the n'th parameter the continuation
// will receive.

// Activation is a handle on one activation of the suspended C-- thread
// (the paper's "activation" abstraction). FirstActivation yields the
// topmost one; Next moves toward older activations. It is one pointer,
// to a record the machine reuses, so a run-time system can walk a deep
// stack through an interface without allocating; it is valid only during
// the yield that produced it.
type Activation struct{ r *actRec }

type actRec struct {
	m     *Machine
	index int // index into m.stack; len(stack)-1 is the topmost frame
}

// activation returns the record for stack index i.
func (m *Machine) activation(i int) Activation {
	for len(m.acts) < len(m.stack) {
		m.acts = append(m.acts, actRec{m: m, index: len(m.acts)})
	}
	return Activation{&m.acts[i]}
}

// resumption records what the run-time system arranged during a yield.
type resumption struct {
	done      bool
	target    int // stack index of the chosen activation, -1 if unset
	haveT     bool
	unwindIdx int // index into the unwinds-to list, -1 if unset
	returnIdx int // index into the returns list, -1 if unset
	cutK      uint64
	haveCut   bool
	params    []Value
}

// newPending resets the machine's one resumption record, keeping its
// parameter buffer, and returns it.
func (m *Machine) newPending() *resumption {
	m.res = resumption{target: -1, unwindIdx: -1, returnIdx: -1, params: m.res.params[:0]}
	return &m.res
}

// FirstActivation returns the topmost suspended activation ("currently
// executing" from the run-time system's point of view). ok is false when
// the stack is empty.
func (m *Machine) FirstActivation() (Activation, bool) {
	if len(m.stack) == 0 {
		return Activation{}, false
	}
	return m.activation(len(m.stack) - 1), true
}

// NextActivation mutates a to point at the activation to which a will
// return (normally a's caller). ok is false at the bottom of the stack.
func (a Activation) NextActivation() (Activation, bool) {
	r := a.r
	if r.index == 0 {
		return Activation{}, false
	}
	r.m.emitObs(obs.KUnwindStep, uint64(len(r.m.stack)-r.index), 0)
	return r.m.activation(r.index - 1), true
}

// ProcName reports the name of the procedure whose activation this is.
func (a Activation) ProcName() string {
	fr := a.r.m.stack[a.r.index]
	if fr.Graph != nil {
		return fr.Graph.Name
	}
	return "?"
}

// DescriptorCount reports how many descriptors the front end deposited at
// the suspended call site.
func (a Activation) DescriptorCount() int {
	return len(a.r.m.stack[a.r.index].Bundle.Descriptors)
}

// GetDescriptor returns the n'th descriptor associated with the
// activation's suspended call site: the address (or constant) the front
// end attached. ok is false when there is no n'th descriptor.
func (a Activation) GetDescriptor(n int) (uint64, bool) {
	a.r.m.emitObs(obs.KDescLookup, uint64(n), 0)
	b := a.r.m.stack[a.r.index].Bundle
	if n < 0 || n >= len(b.Descriptors) {
		return 0, false
	}
	v, err := a.r.m.evalStatic(b.Descriptors[n])
	if err != nil {
		return 0, false
	}
	return v, true
}

// UnwindContCount reports how many continuations the suspended call site
// lists in also unwinds to.
func (a Activation) UnwindContCount() int {
	return len(a.r.m.stack[a.r.index].Bundle.Unwinds)
}

// evalStatic evaluates a descriptor expression, which the checker
// restricts to constants and names: a data label, procedure, import or
// global register, as the checker resolved it.
func (m *Machine) evalStatic(e syntax.Expr) (uint64, error) {
	switch e := e.(type) {
	case *syntax.IntLit:
		return e.Val, nil
	case *syntax.VarExpr:
		switch e.Ref {
		case syntax.RefData, syntax.RefProc, syntax.RefImport, syntax.RefGlobal:
			v, err := m.lookup(e)
			return v.Bits, err
		}
	case *syntax.StrLit:
		if a, ok := m.Img.Strings[e.Val]; ok {
			return a, nil
		}
	}
	return 0, m.wrongf("descriptor expression is not static")
}

// SetActivation arranges for the thread to resume execution with
// activation a: every younger activation is discarded when Resume runs.
func (m *Machine) SetActivation(a Activation) {
	if m.pending == nil {
		m.pending = m.newPending()
	}
	m.pending.target = a.r.index
	m.pending.haveT = true
}

// SetUnwindCont arranges for the thread to resume by unwinding to the
// n'th continuation in the also unwinds to list of the call site at which
// the chosen activation is suspended.
func (m *Machine) SetUnwindCont(n int) {
	if m.pending == nil {
		m.pending = m.newPending()
	}
	m.pending.unwindIdx = n
	m.pending.returnIdx = -1
}

// SetReturnCont arranges for the thread to resume at return continuation
// n of the chosen activation's call site (the normal return is the last).
func (m *Machine) SetReturnCont(n int) {
	if m.pending == nil {
		m.pending = m.newPending()
	}
	m.pending.returnIdx = n
	m.pending.unwindIdx = -1
}

// SetContParam stores the n'th parameter that will be passed to the
// continuation chosen by SetUnwindCont/SetReturnCont/SetCutToCont
// (the FindContParam operation of Table 1, fused with the store).
func (m *Machine) SetContParam(n int, v uint64) {
	if m.pending == nil {
		m.pending = m.newPending()
	}
	for len(m.pending.params) <= n {
		m.pending.params = append(m.pending.params, Word(0))
	}
	m.pending.params[n] = Word(v)
}

// SetCutToCont arranges for the thread to resume by cutting the stack to
// continuation k (a continuation value, §4.2). The cut happens when
// Resume is called; callee-saves registers are NOT restored, matching the
// third Yield rule.
func (m *Machine) SetCutToCont(k uint64) error {
	if m.pending == nil {
		m.pending = m.newPending()
	}
	target := m.valueOfWord(k)
	if target.Kind != KCont {
		return m.wrongf("SetCutToCont: %#x is not a continuation value", k)
	}
	m.pending.cutK = k
	m.pending.haveCut = true
	return nil
}

// Resume transfers control back to generated code as arranged by
// SetCutToCont, or by SetActivation and SetUnwindCont/SetReturnCont. It
// enforces the Yield rules: discarded activations must be suspended at
// call sites annotated also aborts, the chosen continuation must be
// listed at the chosen call site, and the parameter count must match
// what the continuation expects.
func (m *Machine) Resume() error {
	p := m.pending
	if p == nil || (!p.haveT && !p.haveCut) {
		return m.wrongf("Resume without SetActivation or SetCutToCont")
	}
	if p.haveCut {
		return m.resumeCut(p)
	}
	if p.target < 0 || p.target >= len(m.stack) {
		return m.wrongf("Resume: activation no longer exists")
	}
	// Discard younger activations; each must be suspended at a call site
	// that may abort (first Yield rule).
	for len(m.stack)-1 > p.target {
		fr := m.stack[len(m.stack)-1]
		if !fr.Bundle.Abort {
			return m.wrongf("unwinding past a call site in %s without also aborts", frameName(fr))
		}
		m.stack = m.stack[:len(m.stack)-1]
	}
	fr := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]

	var dest *cfg.Node
	switch {
	case p.unwindIdx >= 0:
		if p.unwindIdx >= len(fr.Bundle.Unwinds) {
			return m.wrongf("SetUnwindCont(%d) but the call site lists %d unwind continuations",
				p.unwindIdx, len(fr.Bundle.Unwinds))
		}
		dest = fr.Bundle.Unwinds[p.unwindIdx]
	case p.returnIdx >= 0:
		if p.returnIdx >= len(fr.Bundle.Returns) {
			return m.wrongf("SetReturnCont(%d) but the call site has %d return continuations",
				p.returnIdx, len(fr.Bundle.Returns))
		}
		dest = fr.Bundle.Returns[p.returnIdx]
	default:
		// Plain resumption: the normal return continuation.
		dest = fr.Bundle.NormalReturn()
	}

	// "This transition restores callee-saves registers": the full saved
	// environment comes back.
	m.ctrl = dest
	m.env = fr.Env
	m.saved = fr.Saved
	m.uid = fr.UID
	m.cur = fr.Graph

	// The run-time system passes parameters A′ to the continuation; there
	// must be exactly as many as the continuation expects.
	want := 0
	if dest.Kind == cfg.KindCopyIn {
		want = len(dest.Vars)
	}
	params := p.params
	for len(params) < want {
		params = append(params, Word(0))
	}
	if len(params) != want {
		return m.wrongf("continuation expects %d parameters, run-time system supplied %d", want, len(params))
	}
	m.A = params
	p.done = true
	switch {
	case p.unwindIdx >= 0:
		m.emitObs(obs.KResumeUnwind, uint64(p.unwindIdx), 0)
	case p.returnIdx >= 0:
		m.emitObs(obs.KResumeReturn, uint64(p.returnIdx), 0)
	default:
		m.emitObs(obs.KResumeReturn, uint64(len(fr.Bundle.Returns)), 0)
	}
	return nil
}

// resumeCut performs the cut arranged by SetCutToCont: it pops the
// yield's own frame (the run-time cut starts from the computation that
// yielded) and then applies the CutTo rules, which kill callee-saves
// registers and require also-aborts on every discarded call site.
func (m *Machine) resumeCut(p *resumption) error {
	target := m.valueOfWord(p.cutK)
	if target.Kind != KCont {
		return m.wrongf("SetCutToCont: %#x is not a continuation value", p.cutK)
	}
	if len(m.stack) == 0 {
		return m.wrongf("SetCutToCont with an empty stack")
	}
	// The continuation expects exactly as many parameters as its CopyIn
	// names. A continuation of an earlier run has no known node; cutTo
	// reports it dead.
	params := p.params
	if target.node != nil {
		want := len(target.node.Vars)
		for len(params) < want {
			params = append(params, Word(0))
		}
		if len(params) != want {
			return m.wrongf("continuation expects %d parameters, run-time system supplied %d", want, len(params))
		}
	}
	yf := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	m.env, m.saved, m.uid, m.cur = yf.Env, yf.Saved, yf.UID, yf.Graph
	m.A = params
	if err := m.cutTo(target, yf.Bundle); err != nil {
		return err
	}
	p.done = true
	m.emitObs(obs.KResumeCut, p.cutK, 0)
	return nil
}

func frameName(fr Frame) string {
	if fr.Graph != nil {
		return fr.Graph.Name
	}
	return "?"
}

// StackDepth reports the number of suspended activations (for tests and
// cost-model experiments).
func (m *Machine) StackDepth() int { return len(m.stack) }

// GlobalWord reads a global register as a word (for run-time systems and
// tests).
func (m *Machine) GlobalWord(name string) (uint64, bool) {
	for i, g := range m.Prog.Globals {
		if g.Name == name {
			return m.globals[i].Bits, true
		}
	}
	return 0, false
}

// SetGlobalWord writes a global register (for run-time systems and
// tests); a name that is not a global is ignored.
func (m *Machine) SetGlobalWord(name string, v uint64) {
	for i, g := range m.Prog.Globals {
		if g.Name == name {
			m.globals[i] = Word(v)
		}
	}
}
