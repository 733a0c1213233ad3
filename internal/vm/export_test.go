package vm

import "cmm/internal/machine"

// Frame reports the walk state behind an activation handle, for the
// external walk tests.
func (a Activation) Frame() (pc int, sp uint64, sregs [machine.NumS]uint64, depth int) {
	return int(a.f.pc), a.f.sp, a.f.sregs, int(a.f.depth)
}

// MarkResumed records that a run-time system written outside the
// Thread API (the walk tests' reference dispatcher) arranged
// resumption itself.
func (t *Thread) MarkResumed() { t.resumed = true }
