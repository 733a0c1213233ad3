package machine

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cmm/internal/obs"
)

// Unit tests for the activation-stack representations as the machine
// sees them: each representation's ledger is checked by replaying
// hand-built event sequences (obs.ReplayStack), and the ContMode reuse
// contract, which reads Machine.Stack, is exercised through NoteCut.
// The end-to-end replay checks (ref and native traces price alike)
// live in the root-level stack_policy_test.go.

const testTop = 8192 // stack base for the hand-built sequences

func call(sp uint64) obs.Event   { return obs.Event{Kind: obs.KCall, SP: sp} }
func ret(sp uint64) obs.Event    { return obs.Event{Kind: obs.KReturn, SP: sp} }
func yield(sp uint64) obs.Event  { return obs.Event{Kind: obs.KYield, SP: sp} }
func unwind(sp uint64) obs.Event { return obs.Event{Kind: obs.KResumeUnwind, SP: sp} }
func cut(pc int, sp uint64) obs.Event {
	return obs.Event{Kind: obs.KCutTo, SP: sp, A: uint64(pc)}
}

// replayer grows a one-run synthetic trace and prices everything
// recorded so far under one representation.
type replayer struct {
	kind obs.StackKind
	tr   []obs.Event
}

func (r *replayer) then(evs ...obs.Event) obs.StackStats {
	r.tr = append(r.tr, evs...)
	return obs.ReplayStack(r.kind, r.tr, []obs.RunMark{{Top: testTop}})
}

// sameLedger compares a replay's ledger with want, ignoring the
// histogram samples.
func sameLedger(got, want obs.StackStats) bool {
	got.CaptureSizes, got.SegmentCounts = nil, nil
	return reflect.DeepEqual(got, want)
}

func TestStackPolicyByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind obs.StackKind
	}{{"contig", obs.StackContig}, {"seg", obs.StackSeg}, {"copy", obs.StackCopy}, {"hybrid", obs.StackHybrid}} {
		k, err := obs.StackKindByName(tc.name)
		if err != nil || k != tc.kind {
			t.Errorf("StackKindByName(%q) = %v, %v; want %v", tc.name, k, err, tc.kind)
		}
		if got := k.String(); got != tc.name {
			t.Errorf("%v.String() = %q, want %q", tc.kind, got, tc.name)
		}
	}
	if _, err := obs.StackKindByName("linked"); err == nil ||
		!strings.Contains(err.Error(), "contig, seg, copy, hybrid") {
		t.Errorf("StackKindByName(linked) error %v should list the valid policies", err)
	}
}

func TestContModeByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode ContMode
	}{{"", ContUnchecked}, {"unchecked", ContUnchecked}, {"oneshot", ContOneShot}, {"multishot", ContMultiShot}} {
		m, err := ContModeByName(tc.name)
		if err != nil || m != tc.mode {
			t.Errorf("ContModeByName(%q) = %v, %v; want %v", tc.name, m, err, tc.mode)
		}
	}
	if _, err := ContModeByName("twice"); err == nil ||
		!strings.Contains(err.Error(), "unchecked, oneshot, multishot") {
		t.Errorf("ContModeByName(twice) error %v should list the valid modes", err)
	}
}

// The contiguous baseline bills nothing but the O(1) sp swing per cut:
// calls, returns, yields, and unwinds are register arithmetic.
func TestContigLedger(t *testing.T) {
	r := replayer{kind: obs.StackContig}
	s := r.then(call(testTop-512), ret(testTop), yield(testTop-64), unwind(testTop))
	if !sameLedger(s, obs.StackStats{}) {
		t.Errorf("contig billed non-cut transfers: %+v", s)
	}
	s = r.then(cut(3, testTop-128), cut(3, testTop-128))
	want := obs.StackStats{Cuts: 2, PolicyCycles: 2 * obs.CutBase}
	if !sameLedger(s, want) || s.CaptureSizes != nil || s.SegmentCounts != nil {
		t.Errorf("contig after two cuts: %+v, want %+v", s, want)
	}
	if obs.StackContig.MultiShot() {
		t.Error("contig must be one-shot: a cut discards the frames above the target in place")
	}
}

// Segmented chunk math: descending across a 1 KiB chunk edge links a
// chunk (overflow), ascending back unlinks it (underflow), and the peak
// tracks the deepest link count.
func TestSegChunkAccounting(t *testing.T) {
	r := replayer{kind: obs.StackSeg}
	if s := r.then(call(testTop - 1024)); s.Overflows != 0 { // exactly one chunk: no link yet
		t.Fatalf("descent within the first chunk paid a link: %+v", s)
	}
	s := r.then(
		call(testTop-1025), // crosses into chunk 2
		call(testTop-3000), // chunk 3
		ret(testTop),       // back to one chunk
	)
	want := obs.StackStats{
		Kind:      obs.StackSeg,
		Overflows: 2, Underflows: 2, SegmentsPeak: 3,
		PolicyCycles: 2*obs.Overflow + 2*obs.Underflow,
	}
	if !sameLedger(s, want) {
		t.Errorf("seg ledger: %+v, want %+v", s, want)
	}
	// A cut releases every chunk above the target in one swing: cut base
	// plus the unlinks.
	s = r.then(call(testTop-3000), cut(7, testTop-100))
	if s.Cuts != 1 || s.Underflows != 4 {
		t.Errorf("seg cut should unlink the released chunks: %+v", s)
	}
	if n := len(s.SegmentCounts); n != 1 {
		t.Errorf("seg should sample live chunks at each cut: %d samples", n)
	}
	if obs.StackSeg.MultiShot() {
		t.Error("seg unlinks the chunks above a cut target: must be one-shot")
	}
}

// Copy-on-capture: the first cut to a continuation snapshots [sp, top)
// at CaptureBase + words*CapturePerWord; every later cut to the SAME
// (pc, sp) is a resume at ResumeBase + words*ResumePerWord. A different
// continuation gets its own snapshot.
func TestCopyCaptureResume(t *testing.T) {
	r := replayer{kind: obs.StackCopy}
	if s := r.then(call(testTop - 80)); !sameLedger(s, obs.StackStats{Kind: obs.StackCopy}) { // push/pop is free
		t.Fatalf("copy billed a call: %+v", s)
	}
	s := r.then(cut(5, testTop-80)) // capture: 10 words
	want := obs.StackStats{
		Kind: obs.StackCopy,
		Cuts: 1, Captures: 1, CaptureWords: 10,
		PolicyCycles: obs.CutBase + obs.CaptureBase + 10*obs.CapturePerWord,
	}
	if !sameLedger(s, want) {
		t.Errorf("first cut: %+v, want %+v", s, want)
	}
	s = r.then(cut(5, testTop-80)) // re-cut: resume the snapshot
	want.Cuts, want.Resumes = 2, 1
	want.PolicyCycles += obs.CutBase + obs.ResumeBase + 10*obs.ResumePerWord
	if !sameLedger(s, want) {
		t.Errorf("re-cut: %+v, want %+v", s, want)
	}
	s = r.then(cut(5, testTop-160)) // distinct continuation: fresh 20-word capture
	want.Cuts, want.Captures, want.CaptureWords = 3, 2, 30
	want.PolicyCycles += obs.CutBase + obs.CaptureBase + 20*obs.CapturePerWord
	if !sameLedger(s, want) {
		t.Errorf("second continuation: %+v, want %+v", s, want)
	}
	if sz := s.CaptureSizes; len(sz) != 2 || sz[0] != 10 || sz[1] != 20 {
		t.Errorf("capture-size samples = %v, want [10 20]", sz)
	}
	if !obs.StackCopy.MultiShot() {
		t.Error("copy keeps snapshots: must be multi-shot")
	}
	// A fresh run resets continuation identity but not the ledger.
	tr := append(r.tr, cut(5, testTop-80))
	s = obs.ReplayStack(obs.StackCopy, tr, []obs.RunMark{{Top: testTop}, {At: len(r.tr), Top: testTop}})
	if s.Captures != 3 {
		t.Errorf("a fresh run must re-capture (identity is per run): %+v", s)
	}
}

// Hybrid watermark: push/pop in the young region is free; a yield seals
// the young region into chunks; a capture copies only the young region
// (zero words when the target IS the watermark); ascending past the
// watermark releases chunks.
func TestHybridWatermark(t *testing.T) {
	r := replayer{kind: obs.StackHybrid}
	if s := r.then(call(6000)); !sameLedger(s, obs.StackStats{Kind: obs.StackHybrid}) { // young-region growth: free
		t.Fatalf("hybrid billed young-region growth: %+v", s)
	}
	s := r.then(yield(6000)) // seal [6000, 8192): ceil(2192/1024) = 3 chunks
	want := obs.StackStats{Kind: obs.StackHybrid, Overflows: 3, SegmentsPeak: 3, PolicyCycles: 3 * obs.Overflow}
	if !sameLedger(s, want) {
		t.Errorf("yield seal: %+v, want %+v", s, want)
	}
	s = r.then(cut(9, 6000)) // cut to the watermark itself: zero-word capture
	want.Cuts, want.Captures = 1, 1
	want.PolicyCycles += obs.CutBase + obs.CaptureBase
	if !sameLedger(s, want) {
		t.Errorf("watermark cut: %+v, want %+v", s, want)
	}
	// Young again below the new watermark (free), then a capture that
	// copies only the young region: 25 words.
	s = r.then(call(5800), cut(11, 5800))
	want.Cuts, want.Captures, want.CaptureWords = 2, 2, 25
	want.PolicyCycles += obs.CutBase + obs.CaptureBase + 25*obs.CapturePerWord
	// The watermark moves to 5800, sealing the 200 bytes into the
	// existing chunk span: chunks(5800) = ceil(2392/1024) = 3, unchanged.
	if !sameLedger(s, want) {
		t.Errorf("young capture: %+v, want %+v", s, want)
	}
	s = r.then(cut(11, 5800)) // re-cut resumes the 25-word snapshot
	want.Cuts, want.Resumes = 3, 1
	want.PolicyCycles += obs.CutBase + obs.ResumeBase + 25*obs.ResumePerWord
	if !sameLedger(s, want) {
		t.Errorf("re-cut: %+v, want %+v", s, want)
	}
	s = r.then(ret(testTop)) // pop past the watermark: release all 3 chunks
	want.Underflows = 3
	want.PolicyCycles += 3 * obs.Underflow
	if !sameLedger(s, want) {
		t.Errorf("release: %+v, want %+v", s, want)
	}
	if sz := s.CaptureSizes; len(sz) != 2 || sz[0] != 0 || sz[1] != 25 {
		t.Errorf("capture-size samples = %v, want [0 25]", sz)
	}
	if !obs.StackHybrid.MultiShot() {
		t.Error("hybrid keeps young-region snapshots: must be multi-shot")
	}
}

// Two fresh runs replay to the sum of the two runs replayed alone: the
// ledger and the samples accumulate, position state and continuation
// identity do not carry over.
func TestStackReplayRunsAdd(t *testing.T) {
	run := []obs.Event{
		call(testTop - 2000), yield(testTop - 2100), cut(4, testTop-1500),
		call(testTop - 1600), cut(4, testTop-1500), ret(testTop),
	}
	both := slices.Concat(run, run)
	for _, k := range obs.StackKinds {
		one := obs.ReplayStack(k, run, []obs.RunMark{{Top: testTop}})
		two := obs.ReplayStack(k, both, []obs.RunMark{{Top: testTop}, {At: len(run), Top: testTop}})
		want := one
		want.PolicyCycles *= 2
		want.Cuts *= 2
		want.Captures *= 2
		want.Resumes *= 2
		want.CaptureWords *= 2
		want.Overflows *= 2
		want.Underflows *= 2
		want.CaptureSizes = slices.Concat(one.CaptureSizes, one.CaptureSizes)
		want.SegmentCounts = slices.Concat(one.SegmentCounts, one.SegmentCounts)
		if !reflect.DeepEqual(two, want) {
			t.Errorf("%v: two runs replay to %+v, want twice one run %+v", k, two, want)
		}
		if k != obs.StackContig && one.PolicyCycles == one.Cuts*obs.CutBase {
			t.Errorf("%v: the sample run should bill more than its cuts: %+v", k, one)
		}
	}
}

// A truncated trace refuses to replay instead of returning a partial
// ledger, and the profiler refuses it with the same diagnostic.
func TestStackReplayTruncated(t *testing.T) {
	o := obs.New()
	o.MaxEvents = 2
	o.BeginRun(testTop)
	for _, ev := range []obs.Event{call(testTop - 2000), ret(testTop), cut(3, testTop)} {
		o.Emit(ev)
	}
	for _, k := range obs.StackKinds {
		if _, err := o.StackStats(k); !errors.Is(err, obs.ErrTruncated) ||
			!strings.Contains(err.Error(), "1 events dropped past the 2-event buffer") {
			t.Errorf("%v: truncated replay = %v, want the truncation error naming the dropped count", k, err)
		}
	}
	if _, err := o.Profile(); !errors.Is(err, obs.ErrTruncated) {
		t.Errorf("truncated profile = %v, want the truncation error", err)
	}
	if _, err := obs.New().StackStats(obs.StackSeg); err == nil {
		t.Error("a trace with no run start replayed without error")
	}
}

// NoteCut enforces the ContMode contract: one-shot traps on any re-cut;
// multi-shot traps only when the declared representation cannot
// re-resume.
func TestNoteCutContract(t *testing.T) {
	// Unchecked: reuse is never policed.
	m := New(1 << 16)
	if err := m.NoteCut(10, 0x100); err != nil {
		t.Fatalf("unchecked first cut: %v", err)
	}
	if err := m.NoteCut(10, 0x100); err != nil {
		t.Fatalf("unchecked re-cut: %v", err)
	}

	// One-shot: the second cut to the same (pc, sp) traps, whatever the
	// representation; a different continuation does not.
	m = New(1 << 16)
	m.ContMode = ContOneShot
	m.Stack = obs.StackCopy
	if err := m.NoteCut(10, 0x100); err != nil {
		t.Fatalf("oneshot first cut: %v", err)
	}
	if err := m.NoteCut(12, 0x200); err != nil {
		t.Fatalf("oneshot distinct continuation: %v", err)
	}
	err := m.NoteCut(10, 0x100)
	var trap *TrapError
	if !errors.As(err, &trap) || !strings.Contains(trap.Msg, "one-shot continuation (target pc=10 sp=0x100) cut to twice") {
		t.Fatalf("oneshot re-cut = %v, want the one-shot trap", err)
	}

	// Multi-shot under one-shot representations traps and names the
	// representation; under snapshot-keeping ones it proceeds.
	for _, k := range []obs.StackKind{obs.StackContig, obs.StackSeg} {
		m = New(1 << 16)
		m.ContMode = ContMultiShot
		m.Stack = k
		if err := m.NoteCut(10, 0x100); err != nil {
			t.Fatalf("%v multishot first cut: %v", k, err)
		}
		err := m.NoteCut(10, 0x100)
		if !errors.As(err, &trap) ||
			!strings.Contains(trap.Msg, "under one-shot stack policy "+k.String()) {
			t.Errorf("%v multishot re-cut = %v, want a policy-naming trap", k, err)
		}
	}
	for _, k := range []obs.StackKind{obs.StackCopy, obs.StackHybrid} {
		m = New(1 << 16)
		m.ContMode = ContMultiShot
		m.Stack = k
		if err := m.NoteCut(10, 0x100); err != nil {
			t.Fatalf("%v multishot first cut: %v", k, err)
		}
		if err := m.NoteCut(10, 0x100); err != nil {
			t.Errorf("%v multishot re-cut: %v, want success", k, err)
		}
	}
}

// A machine that declares no representation is contiguous: multi-shot
// re-cuts trap naming contig.
func TestNoPolicyDefaults(t *testing.T) {
	m := New(1 << 16)
	if m.Stack != obs.StackContig {
		t.Errorf("default Stack = %v, want contig", m.Stack)
	}
	m.ContMode = ContMultiShot
	if err := m.NoteCut(10, 0x100); err != nil {
		t.Fatalf("first cut: %v", err)
	}
	if err := m.NoteCut(10, 0x100); err == nil || !strings.Contains(err.Error(), "under one-shot stack policy contig") {
		t.Errorf("multishot re-cut with no declared policy = %v, want the contig trap", err)
	}
}
