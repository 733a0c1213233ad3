package vm_test

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"cmm/internal/cfg"
	"cmm/internal/codegen"
	"cmm/internal/dispatch"
	"cmm/internal/machine"
	"cmm/internal/minim3"
	"cmm/internal/obs"
	"cmm/internal/paper"
	"cmm/internal/pipeline"
	"cmm/internal/progen"
	"cmm/internal/rts"
	"cmm/internal/vm"
)

// The walk oracle: the run-time stack walk over the dense per-pc tables
// and the thread's reused activation records must find, charge and emit
// exactly what the walk it replaced did. That walk searched a sorted
// procedure slice, looked call sites up in a map and copied one value
// per activation; it is kept here, built from the linked chunks rather
// than from Program's tables.

// refTables is the replaced lookup: procedures sorted by entry pc and
// found with sort.Search, call sites in a map keyed by return pc.
type refTables struct {
	procs []*codegen.ProcInfo
	sites map[int]*codegen.CallSite
}

func (r *refTables) procAt(pc int) *codegen.ProcInfo {
	i := sort.Search(len(r.procs), func(i int) bool { return r.procs[i].End > pc })
	if i < len(r.procs) && pc >= r.procs[i].Entry {
		return r.procs[i]
	}
	return nil
}

// link compiles src through the relocatable phases and returns the
// program together with reference tables built from its linked chunks.
func link(t *testing.T, src *cfg.Program, opts codegen.Options) (*codegen.Program, *refTables) {
	t.Helper()
	lay, err := codegen.NewLayout(src, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	chunks := make([]*codegen.ProcChunk, len(src.Procs))
	for i := range src.Procs {
		if chunks[i], err = lay.EmitProc(i); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := lay.Link(chunks)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refTables{sites: map[int]*codegen.CallSite{}}
	for _, ch := range chunks {
		ref.procs = append(ref.procs, ch.Info)
		for _, s := range ch.Sites {
			ref.sites[s.RetPC] = s
		}
	}
	sort.Slice(ref.procs, func(i, j int) bool { return ref.procs[i].Entry < ref.procs[j].Entry })
	return cp, ref
}

func frontend(t *testing.T, src string) *cfg.Program {
	t.Helper()
	sess := pipeline.New(src, pipeline.Config{})
	if err := sess.Frontend(); err != nil {
		t.Fatal(err)
	}
	return sess.Program()
}

// walkFrame is what a run-time system sees of one activation.
type walkFrame struct {
	pc    int
	sp    uint64
	sregs [machine.NumS]uint64
	depth int
	descs []uint64
}

// newWalker is the run-time system under test. At each yield it walks
// every activation through Table 1, reading each one's descriptors, then
// dispatches with the Figure 9 dispatcher through the rts adapter, and
// finally checks that every handle it took still names its activation.
func newWalker(seen *[]walkFrame) vm.RuntimeFunc {
	d := &dispatch.UnwindDispatcher{}
	return func(t *vm.Thread, args []uint64) error {
		*seen = (*seen)[:0]
		var held []vm.Activation
		for a, ok := t.FirstActivation(); ok; a, ok = a.NextActivation() {
			var f walkFrame
			f.pc, f.sp, f.sregs, f.depth = a.Frame()
			for n := 0; n < a.DescriptorCount(); n++ {
				v, _ := a.GetDescriptor(n)
				f.descs = append(f.descs, v)
			}
			*seen = append(*seen, f)
			held = append(held, a)
		}
		if err := d.Dispatch(rts.VMThread{T: t}, args); err != nil {
			return err
		}
		for i, a := range held {
			pc, sp, sregs, depth := a.Frame()
			if f := (*seen)[i]; pc != f.pc || sp != f.sp || sregs != f.sregs || depth != f.depth {
				return fmt.Errorf("the handle to activation %d changed before the yield ended", i)
			}
		}
		return nil
	}
}

// refThread is the replaced walk, charge for charge and event for event.
// With unlink set, its dispatcher rewrites the yielding activation's
// return address to the entry stub just before it resumes.
type refThread struct {
	inst   *vm.Instance
	tab    *refTables
	unlink bool
}

type refAct struct {
	pc    int
	sp    uint64
	sregs [machine.NumS]uint64
	depth int
}

const refWalkOverhead = 8

func (r *refThread) charge(c int64) { r.inst.M.Stats.Cycles += c }

func (r *refThread) emit(k obs.Kind, pc int32, sp, a, b uint64) {
	o := r.inst.Observer()
	if o == nil {
		return
	}
	m := r.inst.M
	o.Emit(obs.Event{Kind: k, Ts: m.Stats.Cycles, Instr: m.Stats.Instrs, PC: pc, SP: sp, A: a, B: b})
}

func (r *refThread) loadCharged(addr uint64) (uint64, error) {
	r.inst.M.Stats.Loads++
	r.charge(r.inst.M.Cost.Load)
	return r.inst.M.LoadWord(addr, 8)
}

func (r *refThread) first() (refAct, bool) {
	m := r.inst.M
	a := refAct{pc: m.PC, sp: m.Regs[machine.RSP]}
	for i := 0; i < machine.NumS; i++ {
		a.sregs[i] = m.Regs[machine.RS0+machine.Reg(i)]
	}
	return a, r.tab.procAt(a.pc) != nil
}

func (r *refThread) next(a refAct) (refAct, bool) {
	pi := r.tab.procAt(a.pc)
	if pi == nil {
		return refAct{}, false
	}
	next := refAct{sregs: a.sregs, depth: a.depth + 1}
	r.charge(refWalkOverhead)
	for _, sr := range pi.SavedRegs {
		v, err := r.loadCharged(a.sp + uint64(sr.Offset))
		if err != nil {
			return refAct{}, false
		}
		next.sregs[sr.Reg-machine.RS0] = v
	}
	ra, err := r.loadCharged(a.sp + uint64(pi.RAOffset))
	if err != nil {
		return refAct{}, false
	}
	// The entry stubs follow the program text.
	idx, ok := machine.CodeIndex(ra)
	if !ok || idx >= len(r.inst.P.Code) {
		return refAct{}, false
	}
	next.pc = idx
	next.sp = a.sp + uint64(pi.FrameSize)
	r.emit(obs.KUnwindStep, int32(next.pc), next.sp, uint64(next.depth), 0)
	return next, true
}

func (r *refThread) descriptor(a refAct, n int) (uint64, bool) {
	r.charge(refWalkOverhead / 2)
	r.emit(obs.KDescLookup, int32(a.pc), a.sp, uint64(n), 0)
	s := r.tab.sites[a.pc]
	if s == nil || n < 0 || n >= len(s.Descriptors) {
		return 0, false
	}
	return s.Descriptors[n], true
}

// yield mirrors newWalker over the reference walk.
func (r *refThread) yield(seen *[]walkFrame) vm.RuntimeFunc {
	return func(t *vm.Thread, args []uint64) error {
		*seen = (*seen)[:0]
		for a, ok := r.first(); ok; a, ok = r.next(a) {
			f := walkFrame{pc: a.pc, sp: a.sp, sregs: a.sregs, depth: a.depth}
			if s := r.tab.sites[a.pc]; s != nil {
				for n := range s.Descriptors {
					v, _ := r.descriptor(a, n)
					f.descs = append(f.descs, v)
				}
			}
			*seen = append(*seen, f)
		}
		if err := r.dispatch(args); err != nil {
			return err
		}
		t.MarkResumed()
		return nil
	}
}

// dispatch is dispatch.UnwindDispatcher over the reference walk: the
// same events, descriptor reads and resumption.
func (r *refThread) dispatch(args []uint64) error {
	tag, arg := args[1], args[2]
	o := r.inst.Observer()
	o.EmitNow(obs.KDispatch, -1, obs.MechUnwind, tag)
	a, ok := r.first()
	if !ok {
		return dispatch.ErrUnhandled
	}
	walked := uint64(1)
	for {
		if desc, ok := r.descriptor(a, 0); ok {
			if cont, takes, found := r.handler(desc, tag); found {
				var params []uint64
				switch takes {
				case dispatch.ArgsValue:
					params = []uint64{arg}
				case dispatch.ArgsTagAndValue:
					params = []uint64{tag, arg}
				}
				o.EmitNow(obs.KDispatchEnd, -1, obs.MechUnwind, walked)
				if r.unlink {
					top, _ := r.first()
					_ = r.inst.M.StoreWord(top.sp+uint64(r.tab.procAt(top.pc).RAOffset), stubAddr(r.inst), 8)
				}
				return r.resume(a, cont, params)
			}
		}
		if a, ok = r.next(a); !ok {
			o.EmitNow(obs.KDispatchEnd, -1, obs.MechUnwind, walked)
			return dispatch.ErrUnhandled
		}
		walked++
	}
}

// handler scans a Figure 9 exn_descriptor with uncharged reads, as the
// dispatcher does through Thread.LoadWord.
func (r *refThread) handler(desc, tag uint64) (cont, takes int, found bool) {
	m := r.inst.M
	count, _ := m.LoadWord(desc, 4)
	for i := uint64(0); i < count; i++ {
		base := desc + 4 + 12*i
		htag, _ := m.LoadWord(base, 4)
		if htag != tag && htag != dispatch.WildcardTag {
			continue
		}
		c, _ := m.LoadWord(base+4, 4)
		ta, _ := m.LoadWord(base+8, 4)
		return int(c), int(ta), true
	}
	return 0, 0, false
}

// resume is the replaced Resume for an unwind continuation: it re-walks
// from the yield to validate the abort chain, then restores the
// target's callee-saves registers and enters the continuation.
func (r *refThread) resume(target refAct, unwindIdx int, params []uint64) error {
	m := r.inst.M
	cur, ok := r.first()
	if !ok {
		return fmt.Errorf("Resume: no activations")
	}
	for cur.depth < target.depth {
		if s := r.tab.sites[cur.pc]; s == nil || !s.Abort {
			return fmt.Errorf("unwinding past a call site without also aborts")
		}
		if cur, ok = r.next(cur); !ok {
			return fmt.Errorf("Resume: target activation not found")
		}
	}
	site := r.tab.sites[target.pc]
	if site == nil || unwindIdx >= len(site.UnwindPCs) || len(params) > site.UnwindVars[unwindIdx] {
		return fmt.Errorf("Resume: no unwind continuation %d", unwindIdx)
	}
	pc := site.UnwindPCs[unwindIdx]
	r.charge(int64(machine.NumS) * m.Cost.ALU)
	for i, v := range target.sregs {
		m.Regs[machine.RS0+machine.Reg(i)] = v
	}
	for i, v := range params {
		m.Regs[machine.RA0+machine.Reg(i)] = v
	}
	m.Regs[machine.RSP] = target.sp
	m.PC = pc
	r.emit(obs.KResumeUnwind, int32(pc), target.sp, uint64(unwindIdx), 0)
	return nil
}

func TestWalkMatchesReference(t *testing.T) {
	t.Run("tables", func(t *testing.T) {
		type program struct {
			name string
			src  *cfg.Program
		}
		var progs []program
		for _, p := range []struct{ name, src string }{
			{"fig2_cut", paper.Fig2Cut},
			{"fig2_runtime_cut", paper.Fig2RuntimeCut},
			{"fig2_runtime_unwind", paper.Fig2RuntimeUnwind},
			{"fig2_native_unwind", paper.Fig2NativeUnwind},
			{"fig2_cps", paper.Fig2CPS},
		} {
			progs = append(progs, program{p.name, frontend(t, p.src)})
		}
		game, err := os.ReadFile("../../testdata/game.m3")
		if err != nil {
			t.Fatal(err)
		}
		sess, err := minim3.NewSession(string(game), minim3.PolicyUnwinding, minim3.CompileOptions{}, pipeline.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Frontend(); err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{"game.m3/unwinding", sess.Program()})
		for seed := int64(0); seed < 20; seed++ {
			for _, exc := range []bool{false, true} {
				src := progen.Generate(seed, progen.Config{Exceptions: exc})
				progs = append(progs, program{fmt.Sprintf("progen seed=%d exc=%v", seed, exc), frontend(t, src)})
			}
		}
		for _, p := range progs {
			for _, opt := range []int{0, 2} {
				cp, ref := link(t, p.src, codegen.Options{Opt: opt})
				sites := 0
				for pc := -1; pc <= len(cp.Code)+1; pc++ {
					if got, want := cp.ProcAt(pc), ref.procAt(pc); got != want {
						t.Fatalf("%s -O%d: ProcAt(%d) = %v, want %v", p.name, opt, pc, got, want)
					}
					if got, want := cp.SiteAt(pc), ref.sites[pc]; got != want {
						t.Fatalf("%s -O%d: SiteAt(%d) = %v, want %v", p.name, opt, pc, got, want)
					}
					if ref.sites[pc] != nil {
						sites++
					}
				}
				if sites != len(ref.sites) {
					t.Fatalf("%s -O%d: %d of %d call sites lie inside the code", p.name, opt, sites, len(ref.sites))
				}
			}
		}
	})

	t.Run("dispatch", func(t *testing.T) {
		cp, tab := link(t, frontend(t, paper.Fig2RuntimeUnwind), codegen.Options{})
		var got, want []walkFrame
		gotObs, wantObs := obs.New(), obs.New()
		inst, err := vm.NewInstance(cp, vm.WithObserver(gotObs), vm.WithRuntime(newWalker(&got)))
		if err != nil {
			t.Fatal(err)
		}
		ref := &refThread{tab: tab}
		if ref.inst, err = vm.NewInstance(cp, vm.WithObserver(wantObs), vm.WithRuntime(ref.yield(&want))); err != nil {
			t.Fatal(err)
		}
		step := func(d uint64) uint64 {
			if testing.Short() && d >= 32 {
				return 2 * d // 1..32, then powers of two to 1024
			}
			return d + 1
		}
		for depth := uint64(1); depth <= 1024; depth = step(depth) {
			gotObs.Trace, wantObs.Trace = gotObs.Trace[:0], wantObs.Trace[:0]
			inst.ResetStats()
			ref.inst.ResetStats()
			gres, err := inst.Run("f", depth)
			if err != nil {
				t.Fatalf("depth %d: %v", depth, err)
			}
			wres, err := ref.inst.Run("f", depth)
			if err != nil {
				t.Fatalf("depth %d: reference: %v", depth, err)
			}
			if gres[0] != 42 || !reflect.DeepEqual(gres, wres) {
				t.Fatalf("depth %d: results %v, reference %v", depth, gres, wres)
			}
			if uint64(len(got)) != depth+2 || !reflect.DeepEqual(got, want) {
				t.Fatalf("depth %d: walked %d activations\n got %+v\nwant %+v", depth, len(got), got, want)
			}
			if g, w := inst.Stats(), ref.inst.Stats(); g != w {
				t.Fatalf("depth %d: counters\n got %+v\nwant %+v", depth, g, w)
			}
			if !reflect.DeepEqual(gotObs.Trace, wantObs.Trace) {
				for i := range wantObs.Trace {
					if i >= len(gotObs.Trace) || gotObs.Trace[i] != wantObs.Trace[i] {
						t.Fatalf("depth %d: event %d differs", depth, i)
					}
				}
				t.Fatalf("depth %d: %d events, reference %d", depth, len(gotObs.Trace), len(wantObs.Trace))
			}
		}
	})
}

// stubAddr is the code address of the first entry stub: a return there
// ends the walk.
func stubAddr(inst *vm.Instance) uint64 { return machine.CodeAddr(len(inst.P.Code)) }

// unlinkingThread rewrites the yielding activation's return address at
// ret to the entry stub when the dispatcher chooses its activation, after
// the dispatcher's walk and before Resume.
type unlinkingThread struct {
	rts.Thread
	ret, stub uint64
}

func (u unlinkingThread) SetActivation(a rts.Activation) {
	_ = u.StoreWord(u.ret, u.stub, 8)
	u.Thread.SetActivation(a)
}

// TestResumeSeesRewrittenStack: a run-time system that writes the stack
// between its walk and Resume has Resume validate the stack as it now
// is. Here the rewritten return address ends the stack above the
// handler's activation, so both walks report it missing.
func TestResumeSeesRewrittenStack(t *testing.T) {
	cp, tab := link(t, frontend(t, paper.Fig2RuntimeUnwind), codegen.Options{})
	d := &dispatch.UnwindDispatcher{}
	var inst *vm.Instance
	inst, err := vm.NewInstance(cp, vm.WithRuntime(vm.RuntimeFunc(func(t *vm.Thread, args []uint64) error {
		a, _ := t.FirstActivation()
		pc, sp, _, _ := a.Frame()
		ret := sp + uint64(cp.ProcAt(pc).RAOffset)
		return d.Dispatch(unlinkingThread{rts.VMThread{T: t}, ret, stubAddr(inst)}, args)
	})))
	if err != nil {
		t.Fatal(err)
	}
	var seen []walkFrame
	ref := &refThread{tab: tab, unlink: true}
	if ref.inst, err = vm.NewInstance(cp, vm.WithObserver(obs.New()), vm.WithRuntime(ref.yield(&seen))); err != nil {
		t.Fatal(err)
	}
	_, err = inst.Run("f", 8)
	_, want := ref.inst.Run("f", 8)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("got %v, want %v", err, want)
	}
}

// TestRuntimeUnwindAllocsFlatInDepth: a run-time unwind allocates per
// run, not per frame. One Figure 2 SetUnwindCont run through the rts
// adapter allocates as often at depth 1024 as at depth 16.
func TestRuntimeUnwindAllocsFlatInDepth(t *testing.T) {
	cp, _ := link(t, frontend(t, paper.Fig2RuntimeUnwind), codegen.Options{})
	d := &dispatch.UnwindDispatcher{}
	inst, err := vm.NewInstance(cp, vm.WithRuntime(vm.RuntimeFunc(func(t *vm.Thread, args []uint64) error {
		return d.Dispatch(rts.VMThread{T: t}, args)
	})))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(depth uint64) float64 {
		return testing.AllocsPerRun(10, func() {
			if res, err := inst.Run("f", depth); err != nil || res[0] != 42 {
				t.Fatalf("depth %d: %v, %v", depth, res, err)
			}
		})
	}
	if shallow, deep := allocs(16), allocs(1024); shallow != deep {
		t.Errorf("allocations per run: %v at depth 16, %v at depth 1024", shallow, deep)
	}
}
