package vm

import (
	"fmt"

	"cmm/internal/codegen"
	"cmm/internal/machine"
	"cmm/internal/obs"
)

// Thread is the Table 1 view of the suspended C-- computation, valid
// during a yield. It is the compiled-code analogue of the interface the
// abstract machine exposes in internal/sem.
type Thread struct {
	inst    *Instance
	resumed bool

	// pending resumption
	target    *Activation
	unwindIdx int
	returnIdx int
	haveIdx   bool
	cutK      uint64
	haveCut   bool
	params    []uint64
}

// Activation is one suspended activation: the return pc of its suspended
// call site, its frame base, and the callee-saves register values in
// force when it was suspended (reconstructed by the walk, exactly as
// NextActivation "restores the values of callee-saves registers as it
// unwinds the stack").
type Activation struct {
	t     *Thread
	pc    int
	sp    uint64
	sregs [machine.NumS]uint64
	depth int
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
	m := t.inst.M
	a := Activation{t: t, pc: m.PC, sp: m.Regs[machine.RSP]}
	for i := 0; i < machine.NumS; i++ {
		a.sregs[i] = m.Regs[machine.RS0+machine.Reg(i)]
	}
	if t.inst.P.ProcAt(a.pc) == nil {
		return Activation{}, false
	}
	return a, true
}

// NextActivation returns the activation to which a will return. ok is
// false at the bottom of the stack (the entry stub).
func (a Activation) NextActivation() (Activation, bool) {
	pi := a.t.inst.P.ProcAt(a.pc)
	if pi == nil {
		return Activation{}, false
	}
	next := Activation{t: a.t, sregs: a.sregs, depth: a.depth + 1}
	a.t.charge(walkOverhead)
	// Restore the callee-saves registers this procedure saved: they hold
	// the caller's values.
	for _, sr := range pi.SavedRegs {
		v, err := a.t.loadCharged(a.sp+uint64(sr.Offset), 8)
		if err != nil {
			return Activation{}, false
		}
		next.sregs[sr.Reg-machine.RS0] = v
	}
	ra, err := a.t.loadCharged(a.sp+uint64(pi.RAOffset), 8)
	if err != nil {
		return Activation{}, false
	}
	idx, ok := machine.CodeIndex(ra)
	if !ok {
		return Activation{}, false
	}
	if idx >= a.t.inst.stubStart {
		return Activation{}, false // returned to the entry stub: bottom
	}
	next.pc = idx
	next.sp = a.sp + uint64(pi.FrameSize)
	a.t.emit(obs.KUnwindStep, int32(next.pc), next.sp, uint64(next.depth), 0)
	return next, true
}

// ProcName reports the procedure whose activation this is.
func (a Activation) ProcName() string {
	if pi := a.t.inst.P.ProcAt(a.pc); pi != nil {
		return pi.Name
	}
	return "?"
}

func (a Activation) site() *codegen.CallSite { return a.t.inst.P.CallSites[a.pc] }

// DescriptorCount reports how many descriptors the front end deposited
// at the suspended call site.
func (a Activation) DescriptorCount() int {
	if s := a.site(); s != nil {
		return len(s.Descriptors)
	}
	return 0
}

// GetDescriptor returns the n'th descriptor of the suspended call site.
func (a Activation) GetDescriptor(n int) (uint64, bool) {
	a.t.charge(walkOverhead / 2)
	a.t.emit(obs.KDescLookup, int32(a.pc), a.sp, uint64(n), 0)
	s := a.site()
	if s == nil || n < 0 || n >= len(s.Descriptors) {
		return 0, false
	}
	return s.Descriptors[n], true
}

// UnwindContCount reports how many continuations the suspended call site
// lists in also unwinds to.
func (a Activation) UnwindContCount() int {
	if s := a.site(); s != nil {
		return len(s.UnwindPCs)
	}
	return 0
}

// SetActivation arranges for the thread to resume with activation a.
func (t *Thread) SetActivation(a Activation) {
	aa := a
	t.target = &aa
}

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
		_ = t.inst.M.StoreWord(addr, v, 8)
	}
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
	// Validate the abort chain: every activation younger than the target
	// must be suspended at a call site annotated also aborts.
	cur, ok := t.FirstActivation()
	if !ok {
		return fmt.Errorf("Resume: no activations")
	}
	for cur.depth < t.target.depth {
		s := cur.site()
		if s == nil || !s.Abort {
			return fmt.Errorf("unwinding past a call site in %s without also aborts", cur.ProcName())
		}
		cur, ok = cur.NextActivation()
		if !ok {
			return fmt.Errorf("Resume: target activation not found")
		}
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
