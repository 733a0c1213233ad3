// The shared cost model: the native engine's simulated-counter
// bookkeeping, kept in one place.
//
// The reference engine charges counters one instruction at a time
// (machine.go). The native engine pre-computes, once at compile time,
// the aggregate counter delta of every straight-line run, paying a
// single add per run at execution time (native.go). Both must leave
// bit-identical Counters, so the arithmetic lives here:
//
//   - instrDelta resolves one instruction's counter contribution from
//     the cost model (the single source of per-op costs),
//   - suffixAggregates folds deltas backward over straight-line runs,
//     giving each pc the total delta from it through its run's
//     terminator — what the native engine adds on run entry, and what it
//     subtracts back out to reconstruct the exact partial state at a
//     mid-run trap,
//   - chunkAcct is the batched-counter state itself: begin/flush/ts
//     define what partial counters are visible at yield points, foreign
//     calls, and traps, identically to the reference engine.
package machine

// costDelta is the counter contribution of one instruction, or the sum
// over a straight-line run. Yields are absent deliberately: the native
// engine fully flushes before touching Stats.Yields, so the yield counter
// never rides in chunk-local state.
type costDelta struct {
	cyc      int64
	instrs   int64
	loads    int64
	stores   int64
	branches int64
	calls    int64
}

func (d costDelta) plus(o costDelta) costDelta {
	return costDelta{
		cyc:      d.cyc + o.cyc,
		instrs:   d.instrs + o.instrs,
		loads:    d.loads + o.loads,
		stores:   d.stores + o.stores,
		branches: d.branches + o.branches,
		calls:    d.calls + o.calls,
	}
}

// instrDelta is the counter delta a successfully executed instruction
// contributes under cost model c. A trapping instruction contributes
// only instrs (both engines count the fetch, then charge nothing) — the
// native engine reconstructs that case by subtracting the full delta
// and re-adding the bare instruction count.
//
// OpForeign's delta is the opcode's own Cost.Foreign; callForeign
// charges a second Cost.Foreign directly on Stats for the callout
// itself, under every engine.
func instrDelta(in *Instr, c Costs) costDelta {
	d := costDelta{instrs: 1}
	switch in.Op {
	case OpNop, OpLI, OpMov, OpALU, OpALUI, OpFPU:
		d.cyc = c.ALU
	case OpLoad:
		d.cyc = c.Load
		d.loads = 1
	case OpStore:
		d.cyc = c.Store
		d.stores = 1
	case OpBZ, OpBNZ:
		d.cyc = c.Branch
		d.branches = 1
	case OpJmp, OpJmpR:
		d.cyc = c.Jump
		d.branches = 1
	case OpCall, OpCallR:
		d.cyc = c.Call
		d.calls = 1
	case OpRetOff:
		d.cyc = c.Ret
		d.branches = 1
	case OpYield:
		d.cyc = c.Yield
	case OpForeign:
		d.cyc = c.Foreign
	case OpHalt, OpTrap:
		// Counted, never charged.
	default:
		// Illegal opcodes trap: counted, never charged.
	}
	return d
}

// isRunTerminator reports whether the instruction ends a straight-line
// run: control leaves (or may leave) the fall-through path, or the
// engine must flush for a callout. Everything else executes
// unconditionally through to its run's terminator.
func isRunTerminator(op Op) bool {
	switch op {
	case OpNop, OpLI, OpMov, OpALU, OpALUI, OpFPU, OpLoad, OpStore:
		return false
	}
	return true
}

// suffixAggregates gives, for every pc, the summed costDelta from pc
// through the terminator of its straight-line run (a run with no
// terminator before the end of code sums to the end; the engines trap
// "pc out of range" on the fall-through, which is charged nothing).
// Entering a run in the middle — branch targets, cut-to and alternate-
// return continuations land anywhere — is covered because every pc
// carries its own suffix.
func suffixAggregates(code []Instr, c Costs) []costDelta {
	agg := make([]costDelta, len(code))
	for i := len(code) - 1; i >= 0; i-- {
		d := instrDelta(&code[i], c)
		if !isRunTerminator(code[i].Op) && i+1 < len(code) {
			d = d.plus(agg[i+1])
		}
		agg[i] = d
	}
	return agg
}

// chunkAcct batches counter updates between flush points. The native
// trampoline keeps one per run: begin captures the flushed Stats, the
// trampoline and kernels accumulate into the chunk-local fields, and
// flush publishes them back. Event timestamps use ts(), which equals the
// Stats.Cycles value a flush would publish — this is the invariant that
// makes event streams engine-identical (the reference engine stamps
// events with the always-flushed Stats directly).
type chunkAcct struct {
	total    int64 // running Stats.Instrs (absolute, not a delta)
	limit    int64 // runStart + MaxInstrs: the divergence backstop
	slice    int64 // absolute slice-pause edge (m.sliceEdge; MaxInt64 when off)
	cycles   int64 // deltas since begin
	loads    int64
	stores   int64
	branches int64
	calls    int64
	cycBase  int64 // Stats.Cycles at begin
}

// begin captures the machine's flushed counter state. The machine must
// be flushed (Stats current) when called: at Run entry, and after any
// callout returns.
func (a *chunkAcct) begin(m *Machine) {
	edge := m.sliceEdge
	if edge <= 0 {
		// Entered without Run's bookkeeping (unit tests drive a
		// chunkAcct directly): no slice edge is armed.
		edge = int64(^uint64(0) >> 1)
	}
	*a = chunkAcct{
		total:   m.Stats.Instrs,
		limit:   m.runStart + m.MaxInstrs,
		slice:   edge,
		cycBase: m.Stats.Cycles,
	}
}

// headroom is the instruction count the chunk may still retire before
// the nearer of the divergence backstop and the slice edge. The native
// tier's kernels cap their closed-form iteration counts with it so a
// kernel never runs past a slice boundary; slicePinched tells a capped
// kernel which edge it stopped at.
func (a *chunkAcct) headroom() int64 {
	lim := a.limit
	if a.slice < lim {
		lim = a.slice
	}
	return lim - a.total
}

// slicePinched reports whether the slice edge, not the divergence
// backstop, is the binding bound on headroom.
func (a *chunkAcct) slicePinched() bool { return a.slice < a.limit }

// ts is the event timestamp at the current point in the chunk: exactly
// the Stats.Cycles a flush here would publish.
func (a *chunkAcct) ts() int64 { return a.cycBase + a.cycles }

// add charges a whole straight-line run at once (the native engine's
// one-add-per-run accounting).
func (a *chunkAcct) add(d *costDelta) {
	a.total += d.instrs
	a.cycles += d.cyc
	a.loads += d.loads
	a.stores += d.stores
	a.branches += d.branches
	a.calls += d.calls
}

// unwind reverses an add for a run that trapped at the instruction
// whose suffix aggregate is d: everything from the trap point on is
// un-charged, and the trapping instruction itself counts exactly one
// instruction (the fetch) — the same partial state the reference
// stepper leaves behind.
func (a *chunkAcct) unwind(d *costDelta) {
	a.total -= d.instrs - 1
	a.cycles -= d.cyc
	a.loads -= d.loads
	a.stores -= d.stores
	a.branches -= d.branches
	a.calls -= d.calls
}

// flush publishes the chunk-local counters back to the machine and
// records the resume pc. After a flush, begin must be called before
// accumulating again.
func (a *chunkAcct) flush(m *Machine, pc int) {
	m.PC = pc
	m.Stats.Cycles = a.cycBase + a.cycles
	m.Stats.Instrs = a.total
	m.Stats.Loads += a.loads
	m.Stats.Stores += a.stores
	m.Stats.Branches += a.branches
	m.Stats.Calls += a.calls
}
