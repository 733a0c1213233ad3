// Package codegen compiles Abstract C-- to code for the simulated target
// machine (internal/machine). It implements the pieces of the paper's
// story that live between the optimizer and the run-time system:
//
//   - a calling convention with argument/result registers (the concrete
//     realization of the value-passing area A, §5.4),
//   - callee-saves registers allocated to values live across calls —
//     EXCEPT across calls annotated "also cuts to", whose flow edges kill
//     callee-saves registers (§4.2); such values live in the frame,
//   - continuation values as two words (pc, sp) materialized in the
//     activation record (§5.4),
//   - the branch-table method of Figures 3 and 4 for alternate returns,
//     with the test-and-branch alternative available for the ablation
//     experiment,
//   - frame descriptors ("run-time procedure tables") that let the
//     run-time system walk the stack, restore callee-saves registers,
//     and find each call site's continuations and descriptors — the
//     machinery behind Table 1.
package codegen

import (
	"fmt"

	"cmm/internal/cfg"
	"cmm/internal/dataflow"
	"cmm/internal/machine"
	"cmm/internal/syntax"
)

// Options selects code-generation strategies.
type Options struct {
	// TestAndBranch replaces the branch-table method for alternate
	// returns with an index-register-and-compare sequence (the
	// alternative Figures 3/4 argue against). Used by the ablation
	// benchmark.
	TestAndBranch bool
	// DisableCalleeSaves forces every value live across a call into the
	// frame, approximating "implementations that use no callee-saves
	// registers" (§2, stack cutting discussion).
	DisableCalleeSaves bool
	// Opt selects the codegen optimization level. 0 is the baseline
	// (bit-identical to the pre-optimizer compiler). 1 enables the
	// summary-driven frame optimizations: precise callee-saves prefixes
	// for cut targets and leaf-frame elision (ipo.go). 2 additionally
	// enables the return peepholes: branch-table conversion of eligible
	// procedures under TestAndBranch, and jump threading at link time.
	Opt int
}

// SavedReg records where a prologue saved a callee-saves register.
type SavedReg struct {
	Reg    machine.Reg
	Offset int64 // from sp (frame base) after prologue
}

// CallSite describes one suspended call or yield site, keyed by the
// return pc (the instruction index the callee returns to). It is the
// compiled analogue of a continuation bundle plus the static descriptors
// of §3.3.
type CallSite struct {
	RetPC       int
	Proc        *ProcInfo
	NumAlt      int   // alternate return continuations (branch-table size)
	ReturnPCs   []int // entry pcs: alternates then normal landing
	UnwindPCs   []int
	UnwindVars  []int // parameter count of each unwind continuation
	CutPCs      []int // for validation/reporting only
	Abort       bool
	Descriptors []uint64
	IsYield     bool
}

// ProcInfo is the frame descriptor of one compiled procedure.
type ProcInfo struct {
	Name       string
	Entry      int
	End        int // one past the last instruction
	FrameSize  int64
	RAOffset   int64
	SavedRegs  []SavedReg
	ContBlocks map[string]int64 // continuation name -> frame offset of its (pc,sp) pair
}

// Program is a fully compiled program ready to load into a machine.
type Program struct {
	Code       []machine.Instr
	Procs      map[string]*ProcInfo
	Img        *cfg.Image
	GlobalAddr map[string]uint64
	GlobalInit map[string]uint64
	Foreigns   []string // foreign index -> import name
	HeapStart  uint64   // first free address past globals
	Source     *cfg.Program
	Opts       Options

	// The run-time procedure tables, dense by instruction index: the
	// procedure containing each pc, and the call site whose return pc it
	// is (nil elsewhere). Link builds them once; the stack walk reads
	// them with one index per frame, and clones share them read-only.
	procAt []*ProcInfo
	siteAt []*CallSite
}

// ProcAt finds the procedure containing instruction index pc.
func (p *Program) ProcAt(pc int) *ProcInfo {
	if uint(pc) < uint(len(p.procAt)) {
		return p.procAt[pc]
	}
	return nil
}

// SiteAt finds the call site whose return pc is pc: the suspended call
// or yield of an activation stopped there. It is nil for any other pc.
func (p *Program) SiteAt(pc int) *CallSite {
	if uint(pc) < uint(len(p.siteAt)) {
		return p.siteAt[pc]
	}
	return nil
}

// CodeSize reports the number of instructions generated for a procedure,
// for the Figures 3/4 space-overhead comparison.
func (p *Program) CodeSize(proc string) int {
	pi := p.Procs[proc]
	if pi == nil {
		return 0
	}
	return pi.End - pi.Entry
}

const wordSlot = 8 // every frame slot is 8 bytes in the simulated machine

// Compile translates a program to machine code. It is the serial
// composition of the relocatable phases: NewLayout, EmitProc for every
// procedure in declaration order, then Link. Parallel drivers (the
// pipeline) call the phases directly; both paths run the same code, so
// their output is byte-identical by construction.
func Compile(src *cfg.Program, opts Options) (*Program, error) {
	lay, err := NewLayout(src, opts, nil)
	if err != nil {
		return nil, err
	}
	chunks := make([]*ProcChunk, len(src.Procs))
	for i := range src.Procs {
		if chunks[i], err = lay.EmitProc(i); err != nil {
			return nil, err
		}
	}
	return lay.Link(chunks)
}

// Layout holds the pre-codegen facts every procedure compiles against:
// data-label and string addresses, global-register addresses, and each
// procedure's liveness. A foreign import's index is its slot in
// src.Foreign. All of it is fixed before any code is emitted and
// read-only afterwards, so EmitProc calls for different procedures may
// run concurrently on one Layout.
type Layout struct {
	src        *cfg.Program
	opts       Options
	labels     map[string]uint64
	strings    map[string]uint64
	globalAddr map[string]uint64
	globalInit map[string]uint64
	heapStart  uint64
	liveness   []*dataflow.Liveness // by procedure slot
	facts      []procFacts          // by procedure slot; nil below -O1
}

// NewLayout computes the data layout of src: the image addresses and the
// global-register block past it. live holds each procedure's liveness
// by slot (the pipeline's cached analysis); when it is nil, NewLayout
// computes it.
func NewLayout(src *cfg.Program, opts Options, live []*dataflow.Liveness) (*Layout, error) {
	lay := &Layout{
		src:        src,
		opts:       opts,
		globalAddr: map[string]uint64{},
		globalInit: map[string]uint64{},
		liveness:   live,
	}
	if lay.liveness == nil {
		lay.liveness = make([]*dataflow.Liveness, len(src.Procs))
		for i, g := range src.Procs {
			lay.liveness[i] = dataflow.ComputeLiveness(g)
		}
	}
	// Data layout first: label and string addresses are independent of
	// the values stored, so a dummy resolver gives the final addresses.
	// The real image (whose initializers may hold code addresses) is
	// rebuilt by Link.
	img, err := cfg.BuildImage(src, func(*syntax.VarExpr) (uint64, bool) { return 0, true })
	if err != nil {
		return nil, err
	}
	lay.labels, lay.strings = img.Labels, img.Strings
	// Globals live in memory just past the data image; their addresses
	// are needed while compiling.
	addr := align8(img.End())
	for _, gv := range src.Globals {
		lay.globalAddr[gv.Name] = addr
		lay.globalInit[gv.Name] = gv.Init
		addr += wordSlot
	}
	lay.heapStart = align8(addr)
	if opts.Opt >= 1 {
		lay.facts = computeFacts(src, opts, lay.liveness)
	}
	return lay, nil
}

// ProcChunk is the relocatable compilation of one procedure: its code
// with every pc relative to the chunk's own start, the instruction
// indices whose operands must be shifted when the chunk is placed, and
// the references to other procedures and globals only the linker can
// resolve.
type ProcChunk struct {
	Name  string
	Code  []machine.Instr
	Info  *ProcInfo   // Entry 0; End chunk-relative
	Sites []*CallSite // RetPC and continuation pcs chunk-relative

	slot   int     // the procedure's slot
	pcRel  []int   // indices whose Target is a chunk-relative pc
	liRel  []int   // indices whose Imm is CodeAddr(chunk-relative pc)
	fixups []fixup // fixProc/fixLIProc/fixGlobalLoad/fixGlobalStore, at chunk-relative
}

// EmitProc allocates registers and emits relocatable code for the
// procedure in slot. It only reads the Layout, so distinct procedures
// may be emitted concurrently.
func (lay *Layout) EmitProc(slot int) (*ProcChunk, error) {
	gen := &generator{lay: lay, src: lay.src, opts: lay.opts,
		labels: lay.labels, strings: lay.strings}
	return gen.compileProc(slot)
}

// Link places chunks in order, shifts their relative pcs, resolves
// references to procedures and globals, and rebuilds the data image with
// final code addresses. The chunk order determines the code layout;
// Compile and the pipeline both pass one chunk per procedure, in slot
// order.
func (lay *Layout) Link(chunks []*ProcChunk) (*Program, error) {
	n := 0
	for _, ch := range chunks {
		n += len(ch.Code)
	}
	cp := &Program{
		Code:       make([]machine.Instr, 0, n),
		Procs:      map[string]*ProcInfo{},
		GlobalAddr: lay.globalAddr,
		GlobalInit: lay.globalInit,
		Foreigns:   lay.src.Foreign,
		HeapStart:  lay.heapStart,
		Source:     lay.src,
		Opts:       lay.opts,
		procAt:     make([]*ProcInfo, n),
		siteAt:     make([]*CallSite, n),
	}
	var linkFixups []fixup
	entry := make([]int, len(lay.src.Procs)) // by procedure slot
	for _, ch := range chunks {
		base := len(cp.Code)
		cp.Code = append(cp.Code, ch.Code...)
		for _, at := range ch.pcRel {
			cp.Code[base+at].Target += base
		}
		for _, at := range ch.liRel {
			// CodeAddr is base-plus-index, so shifting the index shifts
			// the address by the same amount.
			cp.Code[base+at].Imm += int64(base)
		}
		for _, fx := range ch.fixups {
			fx.at += base
			linkFixups = append(linkFixups, fx)
		}
		pi := ch.Info
		pi.Entry += base
		pi.End += base
		entry[ch.slot] = pi.Entry
		cp.Procs[ch.Name] = pi
		for pc := pi.Entry; pc < pi.End; pc++ {
			cp.procAt[pc] = pi
		}
		for _, site := range ch.Sites {
			site.RetPC += base
			for i := range site.ReturnPCs {
				site.ReturnPCs[i] += base
			}
			for i := range site.UnwindPCs {
				site.UnwindPCs[i] += base
			}
			for i := range site.CutPCs {
				site.CutPCs[i] += base
			}
			if site.RetPC < n {
				cp.siteAt[site.RetPC] = site
			}
		}
	}
	for _, fx := range linkFixups {
		switch fx.kind {
		case fixProc:
			cp.Code[fx.at].Target = entry[fx.slot]
		case fixLIProc:
			cp.Code[fx.at].Imm = int64(machine.CodeAddr(entry[fx.slot]))
		case fixGlobalLoad, fixGlobalStore:
			cp.Code[fx.at].Imm = int64(lay.globalAddr[fx.name])
		}
	}

	img, err := cfg.BuildImage(lay.src, func(v *syntax.VarExpr) (uint64, bool) {
		if v.Ref == syntax.RefImport {
			return machine.ForeignAddr(v.Slot), true
		}
		return machine.CodeAddr(entry[v.Slot]), true
	})
	if err != nil {
		return nil, err
	}
	cp.Img = img

	if lay.opts.Opt >= 2 {
		threadJumps(cp.Code)
	}
	return cp, nil
}

func align8(a uint64) uint64 { return (a + 7) &^ 7 }

// --- generator ---

type fixupKind int

const (
	fixNode        fixupKind = iota // Target := pc of node
	fixProc                         // Target := entry of proc
	fixLINode                       // Imm := code address of node
	fixLIProc                       // Imm := code address of proc
	fixGlobalLoad                   // Imm := address of global register
	fixGlobalStore                  // Imm := address of global register
)

type fixup struct {
	at   int
	kind fixupKind
	node *cfg.Node
	slot int    // fixProc, fixLIProc: the procedure
	name string // fixGlobalLoad, fixGlobalStore: the global
}

type generator struct {
	lay          *Layout
	src          *cfg.Program
	opts         Options
	code         []machine.Instr
	fixupsGlobal []fixup           // procedure and global references, resolved by Link
	pcRel        []int             // instruction indices with chunk-relative Targets
	liRel        []int             // instruction indices with chunk-relative CodeAddr Imms
	labels       map[string]uint64 // data label/string layout, known pre-codegen
	strings      map[string]uint64

	// per-proc state
	f *funcState
}

type home struct {
	reg   machine.Reg // valid when inReg
	off   int64       // frame offset when !inReg
	inReg bool
}

type funcState struct {
	slot     int
	g        *cfg.Graph
	pi       *ProcInfo
	homes    []home // by local slot
	placed   map[*cfg.Node]int
	pending  []*cfg.Node
	fixups   []fixup
	liveness *dataflow.Liveness
	sites    []*siteFix
}

// siteFix is a call site whose continuation pcs need resolving.
type siteFix struct {
	site    *CallSite
	returns []*cfg.Node
	unwinds []*cfg.Node
	cuts    []*cfg.Node
}

func (gen *generator) emit(in machine.Instr) int {
	gen.code = append(gen.code, in)
	return len(gen.code) - 1
}

func (gen *generator) errf(n *cfg.Node, format string, args ...any) error {
	where := ""
	if n != nil {
		where = fmt.Sprintf(" (node n%d at %s)", n.ID, n.Pos)
	}
	return fmt.Errorf("codegen %s%s: %s", gen.f.pi.Name, where, fmt.Sprintf(format, args...))
}

// compileProc allocates registers and emits relocatable code for the
// procedure in slot; every pc in the result is relative to the chunk
// start.
func (gen *generator) compileProc(slot int) (*ProcChunk, error) {
	g := gen.src.Procs[slot]
	pi := &ProcInfo{
		Name:       g.Name,
		Entry:      0,
		ContBlocks: map[string]int64{},
	}
	gen.f = &funcState{
		slot:     slot,
		g:        g,
		pi:       pi,
		placed:   map[*cfg.Node]int{},
		liveness: gen.lay.liveness[slot],
	}

	if err := gen.allocate(); err != nil {
		return nil, err
	}
	if err := gen.emitBody(); err != nil {
		return nil, err
	}
	pi.End = len(gen.code)

	// Resolve intra-procedural call-site continuation pcs now that the
	// body is placed.
	var sites []*CallSite
	for _, sf := range gen.f.sites {
		for _, n := range sf.returns {
			sf.site.ReturnPCs = append(sf.site.ReturnPCs, gen.f.placed[n])
		}
		for _, n := range sf.unwinds {
			sf.site.UnwindPCs = append(sf.site.UnwindPCs, gen.f.placed[n])
			sf.site.UnwindVars = append(sf.site.UnwindVars, len(n.Vars))
		}
		for _, n := range sf.cuts {
			sf.site.CutPCs = append(sf.site.CutPCs, gen.f.placed[n])
		}
		sites = append(sites, sf.site)
	}
	// Local jump fixups: resolved to chunk-relative pcs here, shifted to
	// absolute ones when Link places the chunk.
	for _, fx := range gen.f.fixups {
		switch fx.kind {
		case fixNode:
			gen.code[fx.at].Target = gen.f.placed[fx.node]
			gen.pcRel = append(gen.pcRel, fx.at)
		case fixLINode:
			gen.code[fx.at].Imm = int64(machine.CodeAddr(gen.f.placed[fx.node]))
			gen.liRel = append(gen.liRel, fx.at)
		default:
			// procedure and global references, resolved by Link
			gen.fixupsGlobal = append(gen.fixupsGlobal, fx)
		}
	}
	return &ProcChunk{
		Name:   g.Name,
		Code:   gen.code,
		Info:   pi,
		Sites:  sites,
		slot:   slot,
		pcRel:  gen.pcRel,
		liRel:  gen.liRel,
		fixups: gen.fixupsGlobal,
	}, nil
}
