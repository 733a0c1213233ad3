package machine

import "fmt"

// One-shot vs multi-shot checking.
//
// The machine executes one canonical contiguous layout whatever stack
// representation a run is priced under (obs.StackKind; the pricing is a
// replay of the event stream). The one question the machine itself must
// answer is whether a captured cut continuation may be resumed more than
// once: contiguous and segmented stacks destroy the frames above the
// target on the first cut, copy-on-capture and hybrid keep a snapshot.
// ContMode makes that contract machine-checked, against the
// representation the run declares in Machine.Stack.

// ContMode selects the machine-checked reuse contract on cut
// continuations. The default, ContUnchecked, never polices reuse, so
// results and traps do not depend on the declared representation.
type ContMode int

const (
	// ContUnchecked performs no reuse checking (the default).
	ContUnchecked ContMode = iota
	// ContOneShot traps deterministically on the second cut to the same
	// continuation, whatever the representation.
	ContOneShot
	// ContMultiShot permits re-cuts, but only when the declared
	// representation keeps a snapshot to re-resume (StackKind.MultiShot);
	// under a one-shot representation the second cut traps
	// deterministically.
	ContMultiShot
)

// ContModeByName parses a CLI spelling ("oneshot", "multishot").
func ContModeByName(name string) (ContMode, error) {
	switch name {
	case "", "unchecked":
		return ContUnchecked, nil
	case "oneshot":
		return ContOneShot, nil
	case "multishot":
		return ContMultiShot, nil
	}
	return 0, fmt.Errorf("unknown continuation mode %q (valid modes: unchecked, oneshot, multishot)", name)
}

// contKey identifies a cut continuation: the pair the compiled cut
// sequence loads from the continuation value.
type contKey struct {
	pc int
	sp uint64
}

// cutViolation applies the ContMode contract to a cut landing at
// (pc, sp) and returns the trap message when the cut must not proceed.
// Every engine calls it after charging the transfer (so counters agree
// with the other deterministic trap edges) and before emitting KCutTo.
// It is the only reader of m.Stack.
func (m *Machine) cutViolation(pc int, sp uint64) string {
	if m.ContMode == ContUnchecked {
		return ""
	}
	k := contKey{pc, sp}
	if m.contSeen[k] {
		if m.ContMode == ContOneShot {
			return fmt.Sprintf("one-shot continuation (target pc=%d sp=%#x) cut to twice", pc, sp)
		}
		if !m.Stack.MultiShot() {
			return fmt.Sprintf("multi-shot cut to continuation (target pc=%d sp=%#x) under one-shot stack policy %s", pc, sp, m.Stack)
		}
		return ""
	}
	if m.contSeen == nil {
		m.contSeen = map[contKey]bool{}
	}
	m.contSeen[k] = true
	return ""
}

// NoteCut is the run-time system's twin of the marked in-code cut: it
// applies the ContMode contract to a cut to (pc, sp), returning the
// deterministic trap on a reuse violation.
func (m *Machine) NoteCut(pc int, sp uint64) error {
	if msg := m.cutViolation(pc, sp); msg != "" {
		return &TrapError{PC: pc, Msg: msg}
	}
	return nil
}
