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
// (the paper's "activation" abstraction). Index 0 is the activation an
// initial FirstActivation yields; Next moves toward older activations.
type Activation struct {
	m     *Machine
	index int // index into m.stack; len(stack)-1 is the topmost frame
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

func newResumption() *resumption {
	return &resumption{target: -1, unwindIdx: -1, returnIdx: -1}
}

// FirstActivation returns the topmost suspended activation ("currently
// executing" from the run-time system's point of view). ok is false when
// the stack is empty.
func (m *Machine) FirstActivation() (Activation, bool) {
	if len(m.stack) == 0 {
		return Activation{}, false
	}
	return Activation{m: m, index: len(m.stack) - 1}, true
}

// NextActivation mutates a to point at the activation to which a will
// return (normally a's caller). ok is false at the bottom of the stack.
func (a Activation) NextActivation() (Activation, bool) {
	if a.index == 0 {
		return Activation{}, false
	}
	a.m.emitObs(obs.KUnwindStep, uint64(len(a.m.stack)-a.index), 0)
	return Activation{m: a.m, index: a.index - 1}, true
}

// ProcName reports the name of the procedure whose activation this is.
func (a Activation) ProcName() string {
	fr := a.m.stack[a.index]
	if fr.Graph != nil {
		return fr.Graph.Name
	}
	return "?"
}

// DescriptorCount reports how many descriptors the front end deposited at
// the suspended call site.
func (a Activation) DescriptorCount() int {
	return len(a.m.stack[a.index].Bundle.Descriptors)
}

// GetDescriptor returns the n'th descriptor associated with the
// activation's suspended call site: the address (or constant) the front
// end attached. ok is false when there is no n'th descriptor.
func (a Activation) GetDescriptor(n int) (uint64, bool) {
	a.m.emitObs(obs.KDescLookup, uint64(n), 0)
	b := a.m.stack[a.index].Bundle
	if n < 0 || n >= len(b.Descriptors) {
		return 0, false
	}
	v, err := a.m.evalStatic(b.Descriptors[n])
	if err != nil {
		return 0, false
	}
	return v, true
}

// UnwindContCount reports how many continuations the suspended call site
// lists in also unwinds to.
func (a Activation) UnwindContCount() int {
	return len(a.m.stack[a.index].Bundle.Unwinds)
}

// evalStatic evaluates a descriptor expression, which the checker
// restricts to constants and names.
func (m *Machine) evalStatic(e syntax.Expr) (uint64, error) {
	switch e := e.(type) {
	case *syntax.IntLit:
		return e.Val, nil
	case *syntax.VarExpr:
		if a, ok := m.Img.Labels[e.Name]; ok {
			return a, nil
		}
		if v, ok := m.procVals[e.Name]; ok {
			return v.Bits, nil
		}
		if v, ok := m.GlobalWord(e.Name); ok {
			return v, nil
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
		m.pending = newResumption()
	}
	m.pending.target = a.index
	m.pending.haveT = true
}

// SetUnwindCont arranges for the thread to resume by unwinding to the
// n'th continuation in the also unwinds to list of the call site at which
// the chosen activation is suspended.
func (m *Machine) SetUnwindCont(n int) {
	if m.pending == nil {
		m.pending = newResumption()
	}
	m.pending.unwindIdx = n
	m.pending.returnIdx = -1
}

// SetReturnCont arranges for the thread to resume at return continuation
// n of the chosen activation's call site (the normal return is the last).
func (m *Machine) SetReturnCont(n int) {
	if m.pending == nil {
		m.pending = newResumption()
	}
	m.pending.returnIdx = n
	m.pending.unwindIdx = -1
}

// SetContParam stores the n'th parameter that will be passed to the
// continuation chosen by SetUnwindCont/SetReturnCont/SetCutToCont
// (the FindContParam operation of Table 1, fused with the store).
func (m *Machine) SetContParam(n int, v uint64) {
	if m.pending == nil {
		m.pending = newResumption()
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
		m.pending = newResumption()
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
	// names.
	want := len(target.Node.Vars)
	params := p.params
	for len(params) < want {
		params = append(params, Word(0))
	}
	if len(params) != want {
		return m.wrongf("continuation expects %d parameters, run-time system supplied %d", want, len(params))
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

// ContValueFor exposes the continuation value Cont(node, uid) interning
// for tests that need to fabricate continuation words.
func (m *Machine) ContValueFor(node *cfg.Node, uid int) Value { return m.contValue(node, uid) }
