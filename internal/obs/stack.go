package obs

import (
	"errors"
	"fmt"
)

// Activation-stack models: the representation of the stack, priced by
// replaying a recorded event stream.
//
// The simulated machine executes one canonical layout — a contiguous
// descending stack addressed directly by compiled loads and stores — so
// results, traps, retired counters, and event streams never depend on
// how a real implementation would represent the stack. What a
// representation changes is its own bookkeeping: frame-chunk overflow
// and underflow, continuation capture and resume copies. Every event
// that moves the stack carries the live sp, so one observed run prices
// all four representations after the fact, without the engines knowing
// any of them exist — the way libseff and Wasm/k compare stack designs
// over one trace.
//
// The representation also answers one capability question the machine
// itself enforces: whether a captured cut continuation may be resumed
// more than once (StackKind.MultiShot, checked by machine.ContMode).

// StackKind names an activation-stack representation.
type StackKind int

const (
	// StackContig is the paper's layout: one contiguous descending
	// stack. Frame push/pop is a register decrement; cut-to swings sp in
	// O(1).
	StackContig StackKind = iota
	// StackSeg links fixed-size chunks: push past a chunk edge pays an
	// overflow link, pop back pays an underflow; cut-to releases chunks.
	StackSeg
	// StackCopy snapshots the frames above a cut target the first time
	// the continuation is taken; every later resume restores the copy,
	// so continuations are multi-shot.
	StackCopy
	// StackHybrid keeps the region older than the newest handler frame
	// segmented and the region younger contiguous: normal push/pop is
	// free, installing a deeper handler seals the young region into
	// chunks, and multi-shot resume copies only the young region.
	StackHybrid
)

// StackKinds lists every representation in catalogue order.
var StackKinds = []StackKind{StackContig, StackSeg, StackCopy, StackHybrid}

var stackKindNames = []string{"contig", "seg", "copy", "hybrid"}

// String returns the CLI spelling of the kind.
func (k StackKind) String() string {
	if k >= 0 && int(k) < len(stackKindNames) {
		return stackKindNames[k]
	}
	return fmt.Sprintf("StackKind(%d)", int(k))
}

// MultiShot reports whether a captured continuation survives its first
// resume: contig and seg destroy the frames above a cut target, copy and
// hybrid keep a snapshot.
func (k StackKind) MultiShot() bool { return k == StackCopy || k == StackHybrid }

// StackKindByName parses a CLI spelling ("contig", "seg", "copy",
// "hybrid").
func StackKindByName(name string) (StackKind, error) {
	for i, n := range stackKindNames {
		if n == name {
			return StackKind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown stack policy %q (valid policies: contig, seg, copy, hybrid)", name)
}

// Representation prices, in simulated cycles. They extend the machine
// cost model the same way: small-integer stand-ins chosen so relative
// magnitudes are plausible, not measurements of any host.
const (
	CutBase        = 4  // swing sp / redirect to a captured stack
	CaptureBase    = 20 // allocate + bookkeep one continuation snapshot
	CapturePerWord = 2  // copy one 8-byte word into the snapshot
	ResumeBase     = 12 // reinstate a snapshot (bookkeeping)
	ResumePerWord  = 2  // copy one 8-byte word back out of the snapshot
	Overflow       = 24 // link and switch to a fresh stack chunk
	Underflow      = 10 // unlink a chunk and return to its parent
)

// SegSize is the chunk size, in bytes, of the segmented and hybrid
// representations.
const SegSize = 1024

// StackStats is one representation's ledger over a trace. PolicyCycles
// is the simulated-cycle cost its bookkeeping would add on top of the
// machine's own cycle count, which it never touches.
type StackStats struct {
	Kind         StackKind
	PolicyCycles int64 // total representation overhead, simulated cycles
	Cuts         int64 // cut-to transfers seen (in-code and run-time)
	Captures     int64 // continuation snapshots taken (copy, hybrid)
	Resumes      int64 // re-resumes restoring a snapshot (copy, hybrid)
	CaptureWords int64 // total words copied into snapshots
	Overflows    int64 // chunk links paid (seg, hybrid)
	Underflows   int64 // chunk unlinks paid (seg, hybrid)
	SegmentsPeak int64 // most chunks live at once (seg, hybrid)
	// CaptureSizes holds one sample per snapshot (its size in words);
	// SegmentCounts one sample per yield/cut (chunks live at that
	// moment). They feed the capture_words and segments histograms.
	CaptureSizes  []int64
	SegmentCounts []int64
}

// RunMark records where a fresh run starts in the trace: the index of
// its first event and the stack base it was entered with. A run resumed
// from a slice pause is the same run and gets no mark.
type RunMark struct {
	At  int
	Top uint64
}

// BeginRun marks a fresh run starting at the current end of the trace,
// entered with stack pointer top. Position state and continuation
// identity reset here when the trace is replayed. Once events have been
// dropped the trace is never replayed, so the marks stop growing too.
func (o *Observer) BeginRun(top uint64) {
	if o.Dropped == 0 {
		o.runs = append(o.runs, RunMark{At: len(o.Trace), Top: top})
	}
}

// ErrTruncated reports that events were dropped past the trace buffer,
// so replaying the retained stream would under-count.
var ErrTruncated = errors.New("trace truncated")

// TraceComplete returns nil when the trace retains every emitted event,
// and otherwise an error wrapping ErrTruncated that names the dropped
// count. Every whole-trace replay (the profiler, the stack models)
// refuses a truncated trace through it.
func (o *Observer) TraceComplete() error {
	if o.Dropped == 0 {
		return nil
	}
	max := o.MaxEvents
	if max == 0 {
		max = DefaultMaxEvents
	}
	return fmt.Errorf("%w: %d events dropped past the %d-event buffer", ErrTruncated, o.Dropped, max)
}

// StackStats prices representation kind over the recorded runs. It
// refuses a truncated trace rather than return a partial ledger.
func (o *Observer) StackStats(kind StackKind) (StackStats, error) {
	if err := o.TraceComplete(); err != nil {
		return StackStats{}, err
	}
	if len(o.runs) == 0 {
		return StackStats{}, errors.New("stack replay: the trace records no run start")
	}
	return ReplayStack(kind, o.Trace, o.runs), nil
}

// ReplayStack prices representation kind over events, a complete event
// stream whose fresh runs start at runs (in trace order). Events before
// the first mark belong to no run and are not priced.
func ReplayStack(kind StackKind, events []Event, runs []RunMark) StackStats {
	m := stackModel{s: StackStats{Kind: kind}}
	for i, r := range runs {
		end := len(events)
		if i+1 < len(runs) {
			end = runs[i+1].At
		}
		m.begin(r.Top)
		for _, ev := range events[r.At:end] {
			m.apply(ev)
		}
	}
	return m.s
}

// contKey identifies a cut continuation: the (pc, sp) pair the compiled
// cut sequence loads from the continuation value.
type contKey struct {
	pc int64
	sp uint64
}

// stackModel is the replay state of one representation.
//
// Resolution: sp is sampled at control transfers, so a frame allocated
// in a callee's prologue is first seen at that callee's next transfer —
// exact for chunk accounting at frame boundaries.
type stackModel struct {
	s        StackStats
	top      uint64            // the run's stack base
	live     int64             // chunks linked (seg) or sealed below the watermark (hybrid)
	handler  uint64            // hybrid's watermark: the newest handler frame's sp
	captured map[contKey]int64 // snapshot size in words per continuation, this run
}

// begin resets position state and continuation identity for a fresh
// run; the ledger accumulates across runs.
func (m *stackModel) begin(top uint64) {
	m.top, m.handler, m.live = top, top, 0
	clear(m.captured)
	if m.s.Kind == StackSeg {
		m.live = 1 // at least one chunk is always linked
		m.s.SegmentsPeak = max(m.s.SegmentsPeak, 1)
	}
}

// apply advances the model by one event.
func (m *stackModel) apply(ev Event) {
	switch ev.Kind {
	case KCall, KReturn, KAltReturn, KResumeUnwind, KResumeReturn:
		m.move(ev.SP)
	case KYield:
		m.yield(ev.SP)
	case KCutTo:
		m.cut(int64(ev.A), ev.SP)
	case KResumeCut:
		m.cut(int64(ev.PC), ev.SP)
	}
}

// chunks is the number of SegSize chunks spanning [sp, base).
func chunks(base, sp uint64) int64 {
	if sp >= base {
		return 0
	}
	return int64((base - sp + SegSize - 1) / SegSize)
}

// relink moves the chunk count to n, paying the links or unlinks.
func (m *stackModel) relink(n int64) {
	if n > m.live {
		m.s.Overflows += n - m.live
		m.s.PolicyCycles += (n - m.live) * Overflow
	} else {
		m.s.Underflows += m.live - n
		m.s.PolicyCycles += (m.live - n) * Underflow
	}
	m.live = n
	m.s.SegmentsPeak = max(m.s.SegmentsPeak, n)
}

// rewater moves hybrid's watermark to sp: sealing the young region into
// chunks when deeper, releasing chunks when shallower.
func (m *stackModel) rewater(sp uint64) {
	m.relink(chunks(m.top, sp))
	m.handler = sp
}

// move is a call, return, or unwind landing at sp.
func (m *stackModel) move(sp uint64) {
	switch m.s.Kind {
	case StackSeg:
		m.relink(max(chunks(m.top, sp), 1))
	case StackHybrid:
		// Ascending past the watermark pops the handler frame and
		// releases its chunks; descending is the young region growing.
		if sp > m.handler {
			m.rewater(sp)
		}
	}
}

// yield suspends to the run-time system at sp.
func (m *stackModel) yield(sp uint64) {
	switch m.s.Kind {
	case StackSeg:
		m.move(sp)
	case StackHybrid:
		// The suspension point becomes the newest handler frame.
		m.rewater(sp)
	default:
		return
	}
	m.s.SegmentCounts = append(m.s.SegmentCounts, m.live)
}

// cut is a cut-to transfer to continuation (pc, sp), in code or by the
// run-time system.
func (m *stackModel) cut(pc int64, sp uint64) {
	m.s.Cuts++
	m.s.PolicyCycles += CutBase
	switch m.s.Kind {
	case StackSeg:
		m.move(sp)
	case StackCopy:
		m.snapshot(contKey{pc, sp}, wordsBetween(m.top, sp))
		return
	case StackHybrid:
		// Snapshot the young region [sp, watermark) only — the sealed
		// chunks are shared by reference — then the continuation's frame
		// becomes the handler frame.
		m.snapshot(contKey{pc, sp}, wordsBetween(m.handler, sp))
		m.rewater(sp)
	default:
		return
	}
	m.s.SegmentCounts = append(m.s.SegmentCounts, m.live)
}

// snapshot captures continuation k (words long) on its first cut this
// run and resumes the snapshot on every later one.
func (m *stackModel) snapshot(k contKey, words int64) {
	if w, seen := m.captured[k]; seen {
		m.s.Resumes++
		m.s.PolicyCycles += ResumeBase + w*ResumePerWord
		return
	}
	if m.captured == nil {
		m.captured = map[contKey]int64{}
	}
	m.captured[k] = words
	m.s.Captures++
	m.s.CaptureWords += words
	m.s.PolicyCycles += CaptureBase + words*CapturePerWord
	m.s.CaptureSizes = append(m.s.CaptureSizes, words)
}

// wordsBetween is the size of the stack region [sp, base) in 8-byte
// words.
func wordsBetween(base, sp uint64) int64 {
	if sp >= base {
		return 0
	}
	return int64(base-sp) / 8
}
