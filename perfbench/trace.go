package main

// Tracing: the benchmark records a span around each call it makes into a
// layer's public entry point, keeps the spans in memory, and derives each
// layer's self time (its duration minus the part of it that child spans
// cover) when the run ends. Untraced runs pass a nil *tracer and record
// nothing.

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cmm"
	"cmm/internal/rts"
)

type span struct {
	op     int32 // the request the span belongs to
	parent int32 // index of the enclosing span, -1 for a request's root
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
}

// tracer is the in-memory span store. Spans may be recorded from several
// goroutines (the serve workload's dispatchers run on the scheduler's
// workers), so appends take a lock.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// curOp and cur name the request and span that dispatcher spans nest
	// under. They are written only between calls that run dispatchers,
	// never while one runs.
	curOp, cur int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), curOp: -1, cur: -1} }

// enter makes span id of request op the parent of dispatcher spans.
func (t *tracer) enter(op, id int32) { t.curOp, t.cur = op, id }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(op, parent int32, name string) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{op: op, parent: parent, name: name, start: start, end: -1})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration in ns.
func (t *tracer) end(id int32) int64 {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = end
	return end - t.spans[id].start
}

// interval returns span id's start and end.
func (t *tracer) interval(id int32) (start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].start, t.spans[id].end
}

// add records an already-timed span (the pipeline's own pass timings).
func (t *tracer) add(op, parent int32, name string, start time.Time, d time.Duration) {
	s := int64(start.Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{op: op, parent: parent, name: name, start: s, end: s + int64(d)})
	t.mu.Unlock()
}

// layerTimes is the per-name aggregate of a span set.
type layerTimes struct {
	total map[string]int64 // summed duration, ns
	self  map[string]int64 // summed self time, ns
	count map[string]int64
}

// aggregate computes every span's self time: its duration minus the
// union of its children's intervals (children on different workers may
// overlap).
func (t *tracer) aggregate() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][][2]int64{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	lt := layerTimes{total: map[string]int64{}, self: map[string]int64{}, count: map[string]int64{}}
	for i, s := range t.spans {
		d := s.end - s.start
		lt.total[s.name] += d
		lt.self[s.name] += d - covered(children[int32(i)], s.start, s.end)
		lt.count[s.name]++
	}
	return lt
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write stores the spans as gzipped tab-separated lines: op, parent,
// name, start ns, end ns.
func (t *tracer) write(path string, stamp string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintf(w, "# %s\n# op\tparent\tname\tstart_ns\tend_ns\n", stamp)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.op, s.parent, s.name, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rtsCounts is what the counting rts.Thread wrapper observed. It is not
// synchronized: only single-threaded workloads count.
type rtsCounts struct {
	calls       int64 // Table 1 calls made by dispatchers
	activations int64 // activations the dispatchers visited
}

// tracedDispatcher wraps a dispatcher: it records a span around every
// dispatch and, given counts, hands the dispatcher a counting view of
// the thread.
type tracedDispatcher struct {
	inner  cmm.Dispatcher
	tr     *tracer
	name   string
	counts *rtsCounts
	ns     *int64 // if set, accumulates dispatch time
}

// Dispatch traces only inside a traced request; set-up and reference
// passes run the plain dispatcher.
func (d *tracedDispatcher) Dispatch(t rts.Thread, args []uint64) error {
	if d.tr.cur < 0 {
		return d.inner.Dispatch(t, args)
	}
	if d.counts != nil {
		t = countingThread{Thread: t, c: d.counts}
	}
	id := d.tr.begin(d.tr.curOp, d.tr.cur, d.name)
	err := d.inner.Dispatch(t, args)
	ns := d.tr.end(id)
	if d.ns != nil {
		*d.ns += ns
	}
	return err
}

// countingThread counts the Table 1 calls a dispatcher makes. Methods
// it does not override (memory and global access) pass through uncounted.
type countingThread struct {
	rts.Thread
	c *rtsCounts
}

type countingActivation struct {
	rts.Activation
	c *rtsCounts
}

func (t countingThread) FirstActivation() (rts.Activation, bool) {
	t.c.calls++
	a, ok := t.Thread.FirstActivation()
	if !ok {
		return nil, false
	}
	t.c.activations++
	return countingActivation{a, t.c}, true
}

func (t countingThread) SetActivation(a rts.Activation) {
	t.c.calls++
	t.Thread.SetActivation(a.(countingActivation).Activation)
}

func (t countingThread) SetUnwindCont(n int) { t.c.calls++; t.Thread.SetUnwindCont(n) }
func (t countingThread) SetReturnCont(n int) { t.c.calls++; t.Thread.SetReturnCont(n) }
func (t countingThread) SetContParam(n int, v uint64) {
	t.c.calls++
	t.Thread.SetContParam(n, v)
}
func (t countingThread) SetCutToCont(k uint64) error {
	t.c.calls++
	return t.Thread.SetCutToCont(k)
}
func (t countingThread) Resume() error { t.c.calls++; return t.Thread.Resume() }

func (a countingActivation) NextActivation() (rts.Activation, bool) {
	a.c.calls++
	n, ok := a.Activation.NextActivation()
	if !ok {
		return nil, false
	}
	a.c.activations++
	return countingActivation{n, a.c}, true
}

func (a countingActivation) GetDescriptor(n int) (uint64, bool) {
	a.c.calls++
	return a.Activation.GetDescriptor(n)
}
