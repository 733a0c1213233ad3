package obs

import (
	"fmt"
	"sort"
	"strings"
)

// The simulated-cycle profiler. It replays the event stream through the
// shared shadow stack (sim.go) and attributes the cycles between
// consecutive events to the procedure on top, yielding self and
// cumulative per-procedure profiles plus a folded-stacks rendering
// (`a;b;c cycles` lines) consumable by standard flamegraph tooling.
//
// Cycles spent before the first call event (the entry stub) and while
// the shadow stack is empty are attributed to "[top]". Recursive
// procedures contribute to their cumulative total only once per
// outermost activation.

// ProcProfile is one procedure's profile row.
type ProcProfile struct {
	Name  string
	Self  int64 // cycles with this proc on top of the stack
	Cum   int64 // cycles with this proc anywhere on the stack
	Calls int64
}

// Profile is the per-procedure simulated-cycle profile.
type Profile struct {
	Procs  []ProcProfile // sorted by Self descending, then name
	Total  int64         // cycles covered by the event stream
	folded map[string]int64
}

const topFrame = "[top]"

// Profile builds the profile from the observer's trace. It refuses a
// truncated trace (see TraceComplete): cycles after the buffer filled
// would be missing from every row.
func (o *Observer) Profile() (*Profile, error) {
	if err := o.TraceComplete(); err != nil {
		return nil, err
	}
	p := &Profile{folded: map[string]int64{}}
	if len(o.Trace) == 0 {
		return p, nil
	}
	self := map[string]int64{}
	cum := map[string]int64{}
	calls := map[string]int64{}
	active := map[string]int{} // recursion depth per name
	var sim stackSim
	var names []string // parallel to sim.frames
	var enters []int64 // Ts when the name became (outermost-)active

	cur := o.Trace[0].Ts
	stackKey := func() string {
		if len(names) == 0 {
			return topFrame
		}
		return topFrame + ";" + strings.Join(names, ";")
	}
	for _, ev := range o.Trace {
		if d := ev.Ts - cur; d > 0 {
			top := topFrame
			if len(names) > 0 {
				top = names[len(names)-1]
			}
			self[top] += d
			if len(p.folded) < 10000 {
				p.folded[stackKey()] += d
			}
			p.Total += d
			cur = ev.Ts
		}
		popped, pushed := sim.apply(ev)
		for i := 0; i < popped; i++ {
			name := names[len(names)-1]
			names = names[:len(names)-1]
			enter := enters[len(enters)-1]
			enters = enters[:len(enters)-1]
			active[name]--
			if active[name] == 0 {
				cum[name] += ev.Ts - enter
			}
		}
		if pushed {
			name := o.procName(int32(ev.A))
			names = append(names, name)
			calls[name]++
			// For recursive re-entry the slot is a placeholder: only the
			// pop that takes active back to zero credits Cum, using the
			// outermost slot's time.
			enters = append(enters, ev.Ts)
			active[name]++
		}
	}
	// Close out still-open frames at the last timestamp.
	last := o.Trace[len(o.Trace)-1].Ts
	for i := len(names) - 1; i >= 0; i-- {
		name := names[i]
		active[name]--
		if active[name] == 0 {
			cum[name] += last - enters[i]
		}
	}
	cum[topFrame] = p.Total
	for name, s := range self {
		p.Procs = append(p.Procs, ProcProfile{Name: name, Self: s, Cum: cum[name], Calls: calls[name]})
	}
	for name, c := range cum {
		if _, ok := self[name]; !ok {
			p.Procs = append(p.Procs, ProcProfile{Name: name, Cum: c, Calls: calls[name]})
		}
	}
	sort.Slice(p.Procs, func(i, j int) bool {
		if p.Procs[i].Self != p.Procs[j].Self {
			return p.Procs[i].Self > p.Procs[j].Self
		}
		return p.Procs[i].Name < p.Procs[j].Name
	})
	return p, nil
}

// Folded renders the folded-stacks form: one "frame;frame;frame cycles"
// line per unique stack, sorted, ready for flamegraph.pl or inferno.
func (p *Profile) Folded() string {
	keys := make([]string, 0, len(p.folded))
	for k := range p.folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %d\n", k, p.folded[k])
	}
	return sb.String()
}

// String renders the flat profile table.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%12s %6s %12s %8s  %s\n", "self(cyc)", "self%", "cum(cyc)", "calls", "procedure")
	for _, pr := range p.Procs {
		pct := 0.0
		if p.Total > 0 {
			pct = 100 * float64(pr.Self) / float64(p.Total)
		}
		fmt.Fprintf(&sb, "%12d %5.1f%% %12d %8d  %s\n", pr.Self, pct, pr.Cum, pr.Calls, pr.Name)
	}
	return sb.String()
}
