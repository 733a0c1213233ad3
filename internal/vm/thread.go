package vm

import (
	"fmt"

	"cmm/internal/codegen"
	"cmm/internal/machine"
	"cmm/internal/obs"
)

// Thread is the Table 1 view of the suspended C-- computation, valid
// during a yield. It is the compiled-code analogue of the interface the
// abstract machine exposes in internal/sem. Each Instance owns one
// Thread and resets it on every yield, so entering the run-time system
// allocates nothing.
type Thread struct {
	inst    *Instance
	resumed bool

	// pending resumption
	target    *frame
	unwindIdx int
	returnIdx int
	haveIdx   bool
	cutK      uint64
	haveCut   bool
	params    []uint64

	// args holds the yield's a-registers for the run-time system.
	args [machine.NumA]uint64
	// root heads the walk's activation records, linked by depth and
	// kept across yields. The record at depth d is only ever written
	// with depth d's activation, so a handle stays valid until Resume
	// returns, however deep the walk goes after it was taken.
	root *frame
	// walked counts the records this yield's walk has filled, from the
	// root down; stored reports a memory write by the run-time system,
	// after which memory may no longer match them.
	walked int32
	stored bool
}

// state is what the walk knows of one suspended activation: the return
// pc of its suspended call site, its frame base, the callee-saves
// register values in force when it was suspended (reconstructed by the
// walk, exactly as NextActivation "restores the values of callee-saves
// registers as it unwinds the stack"), and its depth below the yield.
// pc and depth are int32, as in obs.Event, so that a frame is 96 bytes.
type state struct {
	pc    int32
	depth int32
	sp    uint64
	sregs [machine.NumS]uint64
}

// frame is the thread's record of the activation at one depth.
type frame struct {
	state
	t    *Thread
	next *frame // the record one depth further down, once made
}

// Activation is a handle on one suspended activation, valid until the
// yield's Resume returns. It is a single pointer, so passing it by value
// or boxing it in an interface copies no frame and allocates nothing.
type Activation struct{ f *frame }

// reset clears the pending resumption for a new yield, keeping the
// parameter buffer and the activation records.
func (t *Thread) reset() {
	*t = Thread{inst: t.inst, params: t.params[:0], root: t.root}
}

// charge adds simulated cycles for work the run-time system does on the
// thread's behalf: walking frames and restoring registers is real work
// in a real implementation ("typically by interpreting tables deposited
// by the back end"), so it must appear in the cost model.
func (t *Thread) charge(cycles int64) { t.inst.M.Stats.Cycles += cycles }

// Observer returns the instance's observability sink, or nil. The
// machine is fully flushed during a yield, so events emitted here are
// identical under every engine.
func (t *Thread) Observer() *obs.Observer { return t.inst.obs }

// emit records a run-time-interface event stamped with the current
// (flushed) machine counters.
func (t *Thread) emit(k obs.Kind, pc int32, sp, a, b uint64) {
	o := t.inst.obs
	if o == nil {
		return
	}
	m := t.inst.M
	o.Emit(obs.Event{Kind: k, Ts: m.Stats.Cycles, Instr: m.Stats.Instrs, PC: pc, SP: sp, A: a, B: b})
}

// loadCharged reads memory, charging a load's cost.
func (t *Thread) loadCharged(addr uint64, size int) (uint64, error) {
	t.inst.M.Stats.Loads++
	t.charge(t.inst.M.Cost.Load)
	return t.inst.M.LoadWord(addr, size)
}

// walkOverhead is the interpretive cost of mapping one activation to its
// frame descriptor (the run-time procedure table lookup).
const walkOverhead = 8

// FirstActivation returns the activation that yielded: its suspended
// "call site" is the yield itself.
func (t *Thread) FirstActivation() (Activation, bool) {
	if t.root == nil {
		t.root = &frame{t: t}
	}
	if !t.first(&t.root.state) {
		return Activation{}, false
	}
	t.walked = max(t.walked, 1)
	return Activation{t.root}, true
}

// first loads the yielding activation from the machine registers into s.
// It charges nothing; it is false when the pc is in no procedure.
func (t *Thread) first(s *state) bool {
	m := t.inst.M
	s.pc, s.depth, s.sp = int32(m.PC), 0, m.Regs[machine.RSP]
	copy(s.sregs[:], m.Regs[machine.RS0:])
	return t.inst.P.ProcAt(m.PC) != nil
}

// NextActivation returns the activation to which a will return. ok is
// false at the bottom of the stack (the entry stub).
func (a Activation) NextActivation() (Activation, bool) {
	f := a.f
	if f.next == nil {
		f.next = &frame{t: f.t}
	}
	next := f.next
	next.state = f.state
	if !f.t.advance(&next.state) {
		return Activation{}, false
	}
	f.t.walked = max(f.t.walked, next.depth+1)
	return Activation{next}, true
}

// advance steps s in place to the activation it will return to,
// charging the descriptor lookup and the loads and emitting the
// KUnwindStep event. It is false at the bottom of the stack.
func (t *Thread) advance(s *state) bool {
	pi := t.inst.P.ProcAt(int(s.pc))
	if pi == nil {
		return false
	}
	t.charge(walkOverhead)
	// Restore the callee-saves registers this procedure saved: they hold
	// the caller's values.
	for _, sr := range pi.SavedRegs {
		v, err := t.loadCharged(s.sp+uint64(sr.Offset), 8)
		if err != nil {
			return false
		}
		s.sregs[sr.Reg-machine.RS0] = v
	}
	ra, err := t.loadCharged(s.sp+uint64(pi.RAOffset), 8)
	if err != nil {
		return false
	}
	idx, ok := machine.CodeIndex(ra)
	if !ok || idx >= t.inst.stubStart {
		return false // returned to the entry stub: bottom
	}
	s.pc = int32(idx)
	s.sp += uint64(pi.FrameSize)
	s.depth++
	t.emit(obs.KUnwindStep, s.pc, s.sp, uint64(s.depth), 0)
	return true
}

// ProcName reports the procedure whose activation this is.
func (a Activation) ProcName() string { return a.f.t.procName(a.f.pc) }

func (t *Thread) procName(pc int32) string {
	if pi := t.inst.P.ProcAt(int(pc)); pi != nil {
		return pi.Name
	}
	return "?"
}

func (f *frame) site() *codegen.CallSite { return f.t.inst.P.SiteAt(int(f.pc)) }

// DescriptorCount reports how many descriptors the front end deposited
// at the suspended call site.
func (a Activation) DescriptorCount() int {
	if s := a.f.site(); s != nil {
		return len(s.Descriptors)
	}
	return 0
}

// GetDescriptor returns the n'th descriptor of the suspended call site.
func (a Activation) GetDescriptor(n int) (uint64, bool) {
	f := a.f
	f.t.charge(walkOverhead / 2)
	f.t.emit(obs.KDescLookup, f.pc, f.sp, uint64(n), 0)
	s := f.site()
	if s == nil || n < 0 || n >= len(s.Descriptors) {
		return 0, false
	}
	return s.Descriptors[n], true
}

// UnwindContCount reports how many continuations the suspended call site
// lists in also unwinds to.
func (a Activation) UnwindContCount() int {
	if s := a.f.site(); s != nil {
		return len(s.UnwindPCs)
	}
	return 0
}

// SetActivation arranges for the thread to resume with activation a.
func (t *Thread) SetActivation(a Activation) { t.target = a.f }

// SetUnwindCont arranges resumption at the n'th also-unwinds-to
// continuation of the chosen activation's call site.
func (t *Thread) SetUnwindCont(n int) {
	t.unwindIdx = n
	t.returnIdx = -1
	t.haveIdx = true
}

// SetReturnCont arranges resumption at return continuation n (the normal
// return is the last).
func (t *Thread) SetReturnCont(n int) {
	t.returnIdx = n
	t.unwindIdx = -1
	t.haveIdx = true
}

// SetContParam stores the n'th parameter the chosen continuation will
// receive (FindContParam fused with its store, as in internal/sem).
func (t *Thread) SetContParam(n int, v uint64) {
	for len(t.params) <= n {
		t.params = append(t.params, 0)
	}
	t.params[n] = v
}

// SetCutToCont arranges for the thread to resume by cutting the stack to
// continuation value k (the address of a (pc, sp) pair).
func (t *Thread) SetCutToCont(k uint64) error {
	t.cutK = k
	t.haveCut = true
	return nil
}

// LoadWord lets run-time systems read simulated memory.
func (t *Thread) LoadWord(addr uint64, size int) (uint64, error) {
	return t.inst.M.LoadWord(addr, size)
}

// StoreWord lets run-time systems write simulated memory.
func (t *Thread) StoreWord(addr, v uint64, size int) error {
	t.stored = true
	return t.inst.M.StoreWord(addr, v, size)
}

// GlobalWord reads a global register.
func (t *Thread) GlobalWord(name string) (uint64, bool) {
	addr, ok := t.inst.P.GlobalAddr[name]
	if !ok {
		return 0, false
	}
	v, err := t.inst.M.LoadWord(addr, 8)
	if err != nil {
		return 0, false
	}
	return v, true
}

// SetGlobalWord writes a global register.
func (t *Thread) SetGlobalWord(name string, v uint64) {
	if addr, ok := t.inst.P.GlobalAddr[name]; ok {
		t.stored = true
		_ = t.inst.M.StoreWord(addr, v, 8)
	}
}

// validateAborts checks the abort chain: every activation younger than
// the target must be suspended at a call site annotated also aborts. It
// is priced as a second walk from the yield to the target, charges and
// events included. When the dispatcher's own walk filled the records down
// to the target and memory has not changed since, the walk would read
// exactly what they hold, so the records are replayed; otherwise the
// stack is walked again on a cursor of its own, leaving the records the
// dispatcher holds alone.
func (t *Thread) validateAborts() error {
	if t.target.t == t && !t.stored && t.target.depth < t.walked {
		for f := t.root; f != t.target; f = f.next {
			if err := t.checkAborts(f.pc); err != nil {
				return err
			}
			t.replayAdvance(f)
		}
		return nil
	}
	var cur state
	if !t.first(&cur) {
		return fmt.Errorf("Resume: no activations")
	}
	for cur.depth < t.target.depth {
		if err := t.checkAborts(cur.pc); err != nil {
			return err
		}
		if !t.advance(&cur) {
			return fmt.Errorf("Resume: target activation not found")
		}
	}
	return nil
}

func (t *Thread) checkAborts(pc int32) error {
	if s := t.inst.P.SiteAt(int(pc)); s == nil || !s.Abort {
		return fmt.Errorf("unwinding past a call site in %s without also aborts", t.procName(pc))
	}
	return nil
}

// replayAdvance charges and emits what advance did when it stepped from
// f to f.next, without reading memory again.
func (t *Thread) replayAdvance(f *frame) {
	m := t.inst.M
	loads := int64(len(t.inst.P.ProcAt(int(f.pc)).SavedRegs)) + 1
	t.charge(walkOverhead)
	m.Stats.Loads += loads
	t.charge(loads * m.Cost.Load)
	n := f.next
	t.emit(obs.KUnwindStep, n.pc, n.sp, uint64(n.depth), 0)
}

// Resume transfers control back to generated code as arranged. It
// enforces the same legality rules as the abstract machine: activations
// discarded on the way to an unwind target must be suspended at also-
// aborts call sites, and the parameter count must match.
func (t *Thread) Resume() error {
	m := t.inst.M
	if t.haveCut {
		// Run-time stack cut (SetCutToCont, Figure 2's bottom-left):
		// constant work, independent of stack depth.
		pc, err := t.loadCharged(t.cutK, 8)
		if err != nil {
			return fmt.Errorf("SetCutToCont: %v", err)
		}
		sp, err := t.loadCharged(t.cutK+8, 8)
		if err != nil {
			return fmt.Errorf("SetCutToCont: %v", err)
		}
		idx, ok := machine.CodeIndex(pc)
		if !ok {
			return fmt.Errorf("SetCutToCont: %#x is not a continuation", t.cutK)
		}
		// The run-time cut shares the in-code cut's reuse contract; a
		// one-shot/multi-shot violation traps here deterministically
		// (the yield already flushed the counters).
		if err := m.NoteCut(idx, sp); err != nil {
			return err
		}
		for i, v := range t.params {
			if i < machine.NumA {
				m.Regs[machine.RA0+machine.Reg(i)] = v
			}
		}
		m.Regs[machine.RSP] = sp
		m.PC = idx
		t.resumed = true
		t.emit(obs.KResumeCut, int32(idx), sp, t.cutK, 0)
		return nil
	}
	if t.target == nil {
		return fmt.Errorf("Resume without SetActivation or SetCutToCont")
	}
	if err := t.validateAborts(); err != nil {
		return err
	}
	a := t.target
	site := a.site()
	if site == nil {
		return fmt.Errorf("Resume: activation has no call-site record")
	}
	var pc int
	var wantParams int
	switch {
	case t.haveIdx && t.unwindIdx >= 0:
		if t.unwindIdx >= len(site.UnwindPCs) {
			return fmt.Errorf("SetUnwindCont(%d) but the call site lists %d unwind continuations",
				t.unwindIdx, len(site.UnwindPCs))
		}
		pc = site.UnwindPCs[t.unwindIdx]
		wantParams = site.UnwindVars[t.unwindIdx]
	case t.haveIdx && t.returnIdx >= 0:
		if t.returnIdx >= len(site.ReturnPCs) {
			return fmt.Errorf("SetReturnCont(%d) but the call site has %d return continuations",
				t.returnIdx, len(site.ReturnPCs))
		}
		pc = site.ReturnPCs[t.returnIdx]
		wantParams = -1 // return continuations take the callee's results
	default:
		pc = site.ReturnPCs[len(site.ReturnPCs)-1]
		wantParams = -1
	}
	if wantParams >= 0 && len(t.params) > wantParams {
		return fmt.Errorf("continuation expects %d parameters, run-time system supplied %d",
			wantParams, len(t.params))
	}
	// "This transition restores callee-saves registers."
	t.charge(int64(machine.NumS) * m.Cost.ALU)
	for i := 0; i < machine.NumS; i++ {
		m.Regs[machine.RS0+machine.Reg(i)] = a.sregs[i]
	}
	for i, v := range t.params {
		if i < machine.NumA {
			m.Regs[machine.RA0+machine.Reg(i)] = v
		}
	}
	m.Regs[machine.RSP] = a.sp
	m.PC = pc
	t.resumed = true
	switch {
	case t.haveIdx && t.unwindIdx >= 0:
		t.emit(obs.KResumeUnwind, int32(pc), a.sp, uint64(t.unwindIdx), 0)
	case t.haveIdx && t.returnIdx >= 0:
		t.emit(obs.KResumeReturn, int32(pc), a.sp, uint64(t.returnIdx), 0)
	default:
		t.emit(obs.KResumeReturn, int32(pc), a.sp, uint64(len(site.ReturnPCs)-1), 0)
	}
	return nil
}
