package machine

import "testing"

// The cost-model unit suite: the shared counter arithmetic in
// costmodel.go is what keeps the engines bit-identical, so its pieces
// are pinned directly — per-op deltas, suffix aggregation, the
// add/unwind inverse, and the flush-boundary visibility contract at
// yield points.

func TestInstrDeltaPerOp(t *testing.T) {
	c := DefaultCosts
	cases := []struct {
		name string
		in   Instr
		want costDelta
	}{
		{"alu", Instr{Op: OpALU, Sub: AAdd}, costDelta{cyc: c.ALU, instrs: 1}},
		{"load", Instr{Op: OpLoad, Size: 8}, costDelta{cyc: c.Load, instrs: 1, loads: 1}},
		{"store", Instr{Op: OpStore, Size: 8}, costDelta{cyc: c.Store, instrs: 1, stores: 1}},
		{"bz", Instr{Op: OpBZ}, costDelta{cyc: c.Branch, instrs: 1, branches: 1}},
		{"jmp", Instr{Op: OpJmp}, costDelta{cyc: c.Jump, instrs: 1, branches: 1}},
		{"call", Instr{Op: OpCall}, costDelta{cyc: c.Call, instrs: 1, calls: 1}},
		{"ret", Instr{Op: OpRetOff}, costDelta{cyc: c.Ret, instrs: 1, branches: 1}},
		{"yield", Instr{Op: OpYield}, costDelta{cyc: c.Yield, instrs: 1}},
		{"foreign", Instr{Op: OpForeign}, costDelta{cyc: c.Foreign, instrs: 1}},
		{"halt", Instr{Op: OpHalt}, costDelta{instrs: 1}},
		{"trap", Instr{Op: OpTrap}, costDelta{instrs: 1}},
		{"illegal", Instr{Op: Op(99)}, costDelta{instrs: 1}},
	}
	for _, tc := range cases {
		if got := instrDelta(&tc.in, c); got != tc.want {
			t.Errorf("%s: instrDelta = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestSuffixAggregates pins the backward fold: every pc carries the sum
// from itself through its run's terminator, so entering a run anywhere
// (branch targets, continuations) charges exactly the remaining tail.
func TestSuffixAggregates(t *testing.T) {
	c := DefaultCosts
	code := []Instr{
		{Op: OpLI, Rd: RT0, Imm: 1},                  // 0: straight
		{Op: OpLoad, Rd: RT0 + 1, Rs: RT0, Size: 8},  // 1: straight
		{Op: OpBNZ, Rs: RT0, Target: 0},              // 2: terminator
		{Op: OpStore, Rs: RT0, Rt: RT0 + 1, Size: 8}, // 3: straight
		{Op: OpHalt}, // 4: terminator
		{Op: OpALU, Sub: AAdd, Rd: RT0, Rs: RT0, Rt: RT0}, // 5: run falls off the code
	}
	agg := suffixAggregates(code, c)
	want := []costDelta{
		{cyc: c.ALU + c.Load + c.Branch, instrs: 3, loads: 1, branches: 1},
		{cyc: c.Load + c.Branch, instrs: 2, loads: 1, branches: 1},
		{cyc: c.Branch, instrs: 1, branches: 1},
		{cyc: c.Store, instrs: 2, stores: 1}, // store + halt (halt charges nothing)
		{instrs: 1},
		{cyc: c.ALU, instrs: 1}, // last pc: suffix is just itself
	}
	for i := range want {
		if agg[i] != want[i] {
			t.Errorf("agg[%d] = %+v, want %+v", i, agg[i], want[i])
		}
	}
}

// TestChunkAcctUnwindInverts pins the trap-reconstruction identity:
// add(suffix) then unwind(suffix-at-trap) must leave exactly the
// instructions and costs before the trap point, plus one counted (but
// uncharged) instruction for the trapping fetch.
func TestChunkAcctUnwindInverts(t *testing.T) {
	c := DefaultCosts
	code := []Instr{
		{Op: OpLI, Rd: RT0, Imm: 1},
		{Op: OpLoad, Rd: RT0 + 1, Rs: RT0, Size: 8},
		{Op: OpStore, Rs: RT0, Rt: RT0 + 1, Size: 8},
		{Op: OpHalt},
	}
	agg := suffixAggregates(code, c)
	m := New(1 << 12)
	var a chunkAcct
	a.begin(m)
	a.add(&agg[0]) // enter the run at pc 0, charging through the halt
	// Suppose pc 2 (the store) trapped: un-charge its suffix, count the fetch.
	a.unwind(&agg[2])
	a.flush(m, 2)
	wantCyc := c.ALU + c.Load // pc 0 and 1 executed; the store charged nothing
	if m.Stats.Cycles != wantCyc || m.Stats.Instrs != 3 || m.Stats.Loads != 1 || m.Stats.Stores != 0 {
		t.Errorf("after unwind+flush: %+v (want cycles=%d instrs=3 loads=1 stores=0)", m.Stats, wantCyc)
	}
	if m.PC != 2 {
		t.Errorf("flush pc = %d, want 2", m.PC)
	}
}

// TestYieldFlushVisibility is the flush-boundary contract shared by both
// engines: at the instant the yield handler runs, Stats must be FULLY
// flushed — every instruction up to and including the yield charged,
// the yield counted, and PC at the resume point — even though the
// native engine holds counters in chunk-local state between yields.
func TestYieldFlushVisibility(t *testing.T) {
	code := []Instr{
		{Op: OpLI, Rd: RT0, Imm: 5},
		{Op: OpALUI, Sub: AAdd, Rd: RT0, Rs: RT0, Imm: 1, Width: 64},
		{Op: OpYield, Rs: RA0},
		{Op: OpALUI, Sub: AAdd, Rd: RT0, Rs: RT0, Imm: 10, Width: 64},
		{Op: OpYield, Rs: RA0},
		{Op: OpHalt},
	}
	c := DefaultCosts
	want := []Counters{
		{Cycles: 2*c.ALU + c.Yield, Instrs: 3, Yields: 1},
		{Cycles: 3*c.ALU + 2*c.Yield, Instrs: 5, Yields: 2},
	}
	wantPC := []int{3, 5}
	for name, e := range allEngines {
		t.Run(name, func(t *testing.T) {
			m := New(1 << 12)
			m.Engine = e
			m.Code = code
			var seen []Counters
			var pcs []int
			m.YieldHandler = func(m *Machine) error {
				seen = append(seen, m.Stats)
				pcs = append(pcs, m.PC)
				return nil
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if len(seen) != len(want) {
				t.Fatalf("saw %d yields, want %d", len(seen), len(want))
			}
			for i := range want {
				if seen[i] != want[i] {
					t.Errorf("yield %d: handler saw %+v, want %+v", i, seen[i], want[i])
				}
				if pcs[i] != wantPC[i] {
					t.Errorf("yield %d: handler saw pc %d, want %d", i, pcs[i], wantPC[i])
				}
			}
			if m.Regs[RT0] != 16 {
				t.Errorf("final t0 = %d, want 16", m.Regs[RT0])
			}
		})
	}
}
