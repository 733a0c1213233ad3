package codegen

import (
	"sort"

	"cmm/internal/cfg"
	"cmm/internal/dataflow"
	"cmm/internal/machine"
	"cmm/internal/syntax"
)

// classifyHomes runs the §4.2 classification and assigns a home to every
// local variable of g. The classification:
//
//   - A variable live into a continuation reachable by also-cuts-to must
//     live in the frame: a cut does not restore callee-saves registers,
//     so no register can carry it.
//   - A variable live across any call (including into unwind and
//     alternate-return continuations, which the run-time system or the
//     branch table reaches with callee-saves registers intact) goes into
//     a callee-saves register, falling back to the frame when the bank
//     is full or when the DisableCalleeSaves ablation is on.
//   - Everything else gets a caller-saves temporary, falling back to the
//     frame.
//
// It returns the homes by local slot (frame homes not yet assigned
// offsets), the slots of the frame-resident variables in layout order,
// and the number of callee-saves registers handed out (always the dense
// prefix s0..s(n-1), which is what makes the precise-save accounting in
// ipo.go a prefix computation). Variables are visited in slot order.
func classifyHomes(g *cfg.Graph, lv *dataflow.Liveness, disableCS bool) ([]home, []int, int) {
	liveIntoCut := make([]bool, len(g.Locals))
	liveAcross := make([]bool, len(g.Locals))
	for _, n := range g.Nodes() {
		if n.Bundle == nil {
			continue
		}
		if n.Kind == cfg.KindCall {
			for _, s := range lv.LiveAcross(n) {
				liveAcross[s] = true
			}
		}
		for _, t := range n.Bundle.Cuts {
			for s := range g.Locals {
				if lv.LiveIn(t, s) && !t.Binds(s) {
					liveIntoCut[s] = true
				}
			}
		}
	}

	homes := make([]home, len(g.Locals))
	var frameVars []int
	nextS := 0
	nextT := 4 // t0..t3 are expression scratch; homes start at t4
	for v := range g.Locals {
		switch {
		case liveIntoCut[v]:
			frameVars = append(frameVars, v)
		case liveAcross[v]:
			if disableCS || nextS >= machine.NumS {
				frameVars = append(frameVars, v)
			} else {
				homes[v] = home{reg: machine.RS0 + machine.Reg(nextS), inReg: true}
				nextS++
			}
		default:
			if nextT >= machine.NumT {
				frameVars = append(frameVars, v)
			} else {
				homes[v] = home{reg: machine.RT0 + machine.Reg(nextT), inReg: true}
				nextT++
			}
		}
	}
	return homes, frameVars, nextS
}

// allocate assigns a home to every local variable of the current
// procedure and lays out its frame.
//
// Frame layout, offsets from sp after the prologue:
//
//	[0 ..)              frame-resident variables (8-byte slots)
//	[..]                continuation (pc, sp) pairs, 16 bytes each
//	[..]                saved callee-saves registers
//	[RAOffset]          saved return address
//
// At -O0 the saved-register count follows the whole-bank rule below; at
// -O1 and above the precomputed facts (ipo.go) replace it with the
// precise prefix, and frames proved unobservable are elided entirely
// (FrameSize 0 — the prologue and epilogue then emit nothing).
func (gen *generator) allocate() error {
	f := gen.f
	g := f.g

	homes, frameVars, nextS := classifyHomes(g, f.liveness, gen.opts.DisableCalleeSaves)
	f.homes = homes

	off := int64(0)
	for _, v := range frameVars {
		f.homes[v] = home{off: off}
		off += wordSlot
	}
	// Continuation blocks.
	contNames := make([]string, 0, len(g.ContMap))
	for name := range g.ContMap {
		contNames = append(contNames, name)
	}
	sort.Strings(contNames)
	for _, name := range contNames {
		f.pi.ContBlocks[name] = off
		off += 2 * wordSlot
	}
	// Saved callee-saves. A procedure whose continuations may be cut to
	// must save and restore the ENTIRE callee-saves bank: a cut discards
	// the frames between the raise point and the handler, and with them
	// whatever callee-saves values those frames had spilled — including
	// values owned by this procedure's own callers. Restoring the full
	// bank from this frame at exit is what keeps the calling convention
	// intact below the handler ("these values may be distributed
	// throughout the stack", §2; "killed by flow edges from the call to
	// any cut-to continuations", §4.2). This is the per-scope cost of the
	// stack-cutting technique — and what the -O1 precise accounting
	// shrinks to the prefix actually at risk.
	nSaved := nextS
	if pf := gen.facts(); pf != nil {
		nSaved = pf.nSaved
	} else if isCutTarget(g) && !gen.opts.DisableCalleeSaves {
		// (When DisableCalleeSaves is on, no procedure anywhere uses the
		// bank, so there is nothing to preserve across a cut — exactly
		// the "no callee-saves registers" configuration the paper pairs
		// with stack cutting.)
		nSaved = machine.NumS
	}
	for i := 0; i < nSaved; i++ {
		f.pi.SavedRegs = append(f.pi.SavedRegs, SavedReg{Reg: machine.RS0 + machine.Reg(i), Offset: off})
		off += wordSlot
	}
	f.pi.RAOffset = off
	off += wordSlot
	f.pi.FrameSize = off
	if pf := gen.facts(); pf != nil && pf.leaf {
		// Leaf elision: no call, no yield, no frame-resident value, no
		// continuation block, no saved register — the frame is dead on
		// every execution and the run-time system can never observe it
		// (the procedure is never suspended). FrameSize 0 makes the
		// prologue and epilogue vanish.
		f.pi.FrameSize = 0
		f.pi.RAOffset = 0
	}
	return nil
}

// facts returns the optimization facts for the current procedure, or nil
// below -O1.
func (gen *generator) facts() *procFacts {
	if gen.lay.facts == nil {
		return nil
	}
	return &gen.lay.facts[gen.f.slot]
}

// isCutTarget reports whether any continuation of g can be entered by a
// cut: it appears in an also-cuts-to list, or its value escapes as data
// (stored, passed, or compared), in which case any holder might cut to
// it.
func isCutTarget(g *cfg.Graph) bool {
	if len(g.ContMap) == 0 {
		return false
	}
	for _, n := range g.AllNodes() {
		if n.Bundle != nil && len(n.Bundle.Cuts) > 0 {
			return true
		}
		escaped := false
		cfg.WalkNodeExprs(n, func(e syntax.Expr) {
			if v, ok := e.(*syntax.VarExpr); ok {
				if _, isCont := g.ContMap[v.Name]; isCont {
					escaped = true
				}
			}
		})
		if escaped {
			return true
		}
	}
	return false
}
