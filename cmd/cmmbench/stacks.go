package main

import (
	"fmt"
	"os"
	"strings"

	"cmm"
	"cmm/internal/obs"
	"cmm/internal/paper"
)

// The -stacks mode prices the four activation-stack representations
// across the paper's four exception mechanisms (Figure 2's design space
// minus the CPS row, which keeps no stack to represent): each workload
// runs once under an observer, and replaying its trace against every
// representation yields the strategy × mechanism matrix. The simulated
// counters are the run's own, shared by all four rows.

// stackMechanisms returns the four mechanism workloads from the shared
// table: the generated cut, the run-time cut, the run-time unwind, and
// the return <m/n> encoding.
func stackMechanisms() []paper.CycleWorkload {
	want := map[string]bool{
		"fig2_cut_to":          true,
		"fig2_set_cut_to_cont": true,
		"fig2_set_unwind_cont": true,
		"fig2_return_mn":       true,
	}
	var out []paper.CycleWorkload
	for _, w := range paper.CycleWorkloads {
		if want[w.Name] {
			out = append(out, w)
		}
	}
	return out
}

// stackRow is one (mechanism, policy) cell of the -stacks report.
type stackRow struct {
	Workload     string `json:"workload"`
	Policy       string `json:"policy"`
	SimCycles    int64  `json:"sim_cycles"`
	SimInstrs    int64  `json:"sim_instrs"`
	PolicyCycles int64  `json:"policy_cycles"`
	Cuts         int64  `json:"cuts"`
	Captures     int64  `json:"captures"`
	CaptureWords int64  `json:"capture_words"`
	Resumes      int64  `json:"resumes"`
	Overflows    int64  `json:"overflows"`
	Underflows   int64  `json:"underflows"`
	SegmentsPeak int64  `json:"segments_peak"`
}

// runStackRows runs one workload under an observer and returns one row
// per representation, each priced by replaying the same trace.
func runStackRows(w paper.CycleWorkload) ([]stackRow, error) {
	mod, err := cmm.Load(w.Src)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", w.Name, err)
	}
	d, err := cmm.ParseDispatcher(w.Dispatcher)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", w.Name, err)
	}
	opts := []cmm.RunOption{cmm.WithObserver(cmm.NewObserver())}
	if d != nil {
		opts = append(opts, cmm.WithDispatcher(d))
	}
	mach, err := mod.Native(cmm.CompileConfig{
		TestAndBranch: w.TestAndBranch,
		NoCalleeSaves: w.NoCalleeSaves,
	}, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", w.Name, err)
	}
	res, err := mach.Run(w.Proc, w.Args...)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", w.Name, err)
	}
	if w.Want != nil && (len(res) == 0 || res[0] != *w.Want) {
		return nil, fmt.Errorf("%s: got %v, want %d", w.Name, res, *w.Want)
	}
	st := mach.Stats()
	var rows []stackRow
	for _, k := range obs.StackKinds {
		s, err := mach.StackStats(k)
		if err != nil {
			return nil, fmt.Errorf("%s under %s: %v", w.Name, k, err)
		}
		rows = append(rows, stackRow{
			Workload:     w.Name,
			Policy:       k.String(),
			SimCycles:    st.Cycles,
			SimInstrs:    st.Instrs,
			PolicyCycles: s.PolicyCycles,
			Cuts:         s.Cuts,
			Captures:     s.Captures,
			CaptureWords: s.CaptureWords,
			Resumes:      s.Resumes,
			Overflows:    s.Overflows,
			Underflows:   s.Underflows,
			SegmentsPeak: s.SegmentsPeak,
		})
	}
	return rows, nil
}

// measureStacks builds the full matrix.
func measureStacks() ([]stackRow, error) {
	var rows []stackRow
	for _, w := range stackMechanisms() {
		r, err := runStackRows(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// stackMarkers bracket the region of EXPERIMENTS.md that -stacks
// -update-experiments regenerates.
const (
	stackBeginMarker = "<!-- cmmstacks:begin -->"
	stackEndMarker   = "<!-- cmmstacks:end -->"
)

func renderStacksTable(rows []stackRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Generated by `go run ./cmd/cmmbench -stacks` (depth-256 runs of the\nFigure 2 mechanism workloads; policy cycles are the representation's\nsimulated bookkeeping overhead, priced by replaying one observed run\nper mechanism and accounted separately from the cost model's cycles).\n\n")
	fmt.Fprintf(&b, "| mechanism | sim cycles (all policies) | contig | seg | copy | hybrid |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|\n")
	byWorkload := map[string][]stackRow{}
	var order []string
	for _, r := range rows {
		if len(byWorkload[r.Workload]) == 0 {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, name := range order {
		ws := byWorkload[name]
		cell := map[string]int64{}
		for _, r := range ws {
			cell[r.Policy] = r.PolicyCycles
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d |\n",
			name, ws[0].SimCycles, cell["contig"], cell["seg"], cell["copy"], cell["hybrid"])
	}
	fmt.Fprintf(&b, "\n| mechanism | policy | cuts | captures | capture words | resumes | overflows | underflows | segments peak |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %d | %d | %d | %d |\n",
			r.Workload, r.Policy, r.Cuts, r.Captures, r.CaptureWords, r.Resumes,
			r.Overflows, r.Underflows, r.SegmentsPeak)
	}
	b.WriteString("\nContig and seg pay O(1) per cut but cannot re-resume (one-shot); copy\npays per-word capture for multi-shot; hybrid seals only the region\nabove the newest handler frame, so its captures stay small at the cost\nof chunk links. See STACKS.md for the catalogue.\n")
	return b.String()
}

func writeStacks(out *os.File) error {
	rows, err := measureStacks()
	if err != nil {
		return err
	}
	table := renderStacksTable(rows)
	fmt.Fprintln(out, "## Stack-policy lab — strategy × mechanism matrix")
	fmt.Fprintln(out)
	fmt.Fprint(out, table)
	if *jsonOut != "" {
		if err := writeJSON("stacks", rows); err != nil {
			return err
		}
	}
	if *updateExp != "" {
		if err := spliceMarkers(*updateExp, stackBeginMarker, stackEndMarker, table); err != nil {
			return err
		}
	}
	return nil
}
