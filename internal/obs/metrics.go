package obs

import "encoding/json"

// Bucket is one histogram bucket: N observations with value <= Le.
type Bucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is an exported histogram: summary statistics plus
// power-of-two buckets (only the occupied range is emitted).
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// snapshotHistogram builds a HistogramSnapshot from raw observations.
func snapshotHistogram(vals []int64) HistogramSnapshot {
	h := HistogramSnapshot{}
	if len(vals) == 0 {
		return h
	}
	h.Count = int64(len(vals))
	h.Min, h.Max = vals[0], vals[0]
	buckets := map[int64]int64{}
	for _, v := range vals {
		h.Sum += v
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
		le := int64(1)
		for le < v {
			le *= 2
		}
		buckets[le]++
	}
	for le := int64(1); ; le *= 2 {
		if n, ok := buckets[le]; ok {
			h.Buckets = append(h.Buckets, Bucket{Le: le, N: n})
		}
		if le >= h.Max {
			break
		}
	}
	return h
}

// Metrics is the exported registry: named counters and histograms. The
// JSON form is deterministic — encoding/json sorts map keys — so metrics
// files are directly diffable and golden-testable.
type Metrics struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// EngineName and Engine carry engine-introspection telemetry (kernel
	// activity, deopt buckets, chain dispatches). Both are
	// omitted unless RecordEngineTelemetry was called: the counters above
	// are engine-independent, the engine section is engine-dependent by
	// nature, and keeping it opt-in keeps default exports byte-identical
	// across engines.
	EngineName string           `json:"engine_name,omitempty"`
	Engine     map[string]int64 `json:"engine,omitempty"`
	// StackName and Stack carry the activation-stack policy ledger
	// (cut/capture/resume counts and the policy's simulated-cycle
	// overhead). Both are omitted unless RecordStackStats was called,
	// for the same reason the engine section is opt-in: the counters
	// above are representation-independent and default exports stay
	// byte-identical across policies.
	StackName string           `json:"stack_policy,omitempty"`
	Stack     map[string]int64 `json:"stack,omitempty"`
	// Sched and SchedWorkers carry an M:N scheduler run's aggregate
	// report (task outcomes, slices, steals, simulated work) and the
	// per-worker split. Omitted unless RecordSched was called: single
	// executions have no scheduler, and their exports must stay
	// byte-identical to pre-scheduler goldens.
	Sched        map[string]int64   `json:"sched,omitempty"`
	SchedWorkers []map[string]int64 `json:"sched_workers,omitempty"`
	// DroppedEvents counts trace events past the buffer bound; counters
	// above include them, histograms (built from the trace) do not.
	DroppedEvents int64 `json:"dropped_events,omitempty"`
}

// JSON renders the metrics with stable formatting.
func (m *Metrics) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Metrics builds the registry snapshot: event-kind counters,
// per-mechanism dispatch counts, per-opcode-class instruction counts
// (when machine counters were recorded), and the histograms derived from
// the trace — cut depth from the shadow-stack replay, unwind chain
// length from the dispatcher end events.
func (o *Observer) Metrics() *Metrics {
	c := map[string]int64{
		"calls":               o.counts[KCall],
		"returns":             o.counts[KReturn],
		"alt_returns":         o.counts[KAltReturn],
		"cuts":                o.counts[KCutTo],
		"yields":              o.counts[KYield],
		"foreign_calls":       o.counts[KForeign],
		"unwind_steps":        o.counts[KUnwindStep],
		"descriptor_lookups":  o.counts[KDescLookup],
		"resume_cut":          o.counts[KResumeCut],
		"resume_unwind":       o.counts[KResumeUnwind],
		"resume_return":       o.counts[KResumeReturn],
		"dispatches":          o.counts[KDispatch],
		"setjmp_copies":       o.counts[KSetjmpCopy],
		"setjmp_bytes_copied": o.setjmpBytes,
		"dispatch_unwind":     o.dispatch[MechUnwind],
		"dispatch_exnstack":   o.dispatch[MechExnStack],
		"dispatch_register":   o.dispatch[MechRegister],
	}
	if o.haveMC {
		mc := o.mc
		c["sim_cycles"] = mc.Cycles
		c["sim_instrs"] = mc.Instrs
		c["instr_load"] = mc.Loads
		c["instr_store"] = mc.Stores
		c["instr_branch"] = mc.Branches
		c["instr_call"] = mc.Calls
		c["instr_yield"] = mc.Yields
		c["instr_alu_other"] = mc.Instrs - mc.Loads - mc.Stores - mc.Branches - mc.Calls - mc.Yields
	}

	var cutDepths, chainLens []int64
	var sim stackSim
	for _, ev := range o.Trace {
		popped, _ := sim.apply(ev)
		switch ev.Kind {
		case KCutTo, KResumeCut:
			cutDepths = append(cutDepths, int64(popped))
		case KDispatchEnd:
			if ev.A == MechUnwind {
				chainLens = append(chainLens, int64(ev.B))
			}
		}
	}
	h := map[string]HistogramSnapshot{}
	if len(cutDepths) > 0 {
		h["cut_depth"] = snapshotHistogram(cutDepths)
	}
	if len(chainLens) > 0 {
		h["unwind_chain_len"] = snapshotHistogram(chainLens)
	}
	m := &Metrics{Counters: c, Histograms: h, DroppedEvents: o.Dropped}
	if o.haveET {
		t := o.et
		m.EngineName = t.Engine
		m.Engine = map[string]int64{
			"kernel_entries":   t.KernelEntries,
			"kernel_iters":     t.KernelIters,
			"kernel_instrs":    t.KernelInstrs,
			"deopt_cycle_exit": t.DeoptCycleExit,
			"deopt_trap_edge":  t.DeoptTrap,
			"deopt_budget":     t.DeoptBudget,
			"deopt_observer":   t.DeoptObserver,
			"chain_dispatches": t.ChainDispatches,
		}
		// Slice-edge deopts exist only under a scheduler's budget slices;
		// the key appears only then, keeping unsliced goldens identical.
		if t.DeoptSlice != 0 {
			m.Engine["deopt_slice_edge"] = t.DeoptSlice
		}
	}
	if o.haveSS {
		s := o.ss
		m.Sched = map[string]int64{
			"workers":    int64(s.Workers),
			"slice":      s.Slice,
			"tasks":      s.Tasks,
			"completed":  s.Completed,
			"cancelled":  s.Cancelled,
			"trapped":    s.Trapped,
			"slices":     s.Slices,
			"steals":     s.Steals,
			"sim_instrs": s.SimInstrs,
			"sim_cycles": s.SimCycles,
		}
		for _, w := range s.PerWorker {
			m.SchedWorkers = append(m.SchedWorkers, map[string]int64{
				"slices":       w.Slices,
				"tasks":        w.Tasks,
				"steals":       w.Steals,
				"stolen_tasks": w.Stolen,
				"sim_instrs":   w.SimInstrs,
			})
		}
		if len(s.QueueDepths) > 0 {
			h["sched_queue_depth"] = snapshotHistogram(s.QueueDepths)
		}
		if len(s.CutDepths) > 0 {
			h["sched_cut_depth"] = snapshotHistogram(s.CutDepths)
		}
	}
	if s := o.stack; s != nil {
		m.StackName = s.Kind.String()
		m.Stack = map[string]int64{
			"policy_cycles": s.PolicyCycles,
			"cuts":          s.Cuts,
			"captures":      s.Captures,
			"resumes":       s.Resumes,
			"capture_words": s.CaptureWords,
			"overflows":     s.Overflows,
			"underflows":    s.Underflows,
			"segments_peak": s.SegmentsPeak,
		}
		if len(s.CaptureSizes) > 0 {
			h["capture_words"] = snapshotHistogram(s.CaptureSizes)
		}
		if len(s.SegmentCounts) > 0 {
			h["segments"] = snapshotHistogram(s.SegmentCounts)
		}
	}
	return m
}
