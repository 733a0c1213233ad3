// Command perfbench is the repository's layered benchmark. It runs one
// of four seeded, closed-loop workloads against the public pipeline
// (cmm.Load, Module.ApplyOpt, Module.Native, Machine.Run, Module.Interp,
// vm.Instance.Clone, sched.Run), checks every output against an oracle
// that does not come from the compiler under test, and prints its
// metrics by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload exec --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of every workload from a traced run, plus each
// workload's tracing overhead. --workload all runs every workload in
// turn, untraced. --manifest prints BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cmm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one closed-loop request mix. A deck of requests is drawn
// from the seed at set-up; the run replays the deck in order, one
// request at a time, until its time is up.
type workload interface {
	// setup draws the deck and builds everything a request needs. A
	// non-nil tracer selects the instrumented build (wrapped
	// dispatchers) and receives the spans of later requests.
	setup(seed int64, tr *tracer) error
	// size is the deck length.
	size() int
	// do runs deck item i as request op, whose root span is root (both
	// -1 when untraced), and checks its output.
	do(i int, op, root int32) outcome
	// layers derives the per-layer metrics, keyed by the names in the
	// workload's layer table, from a traced phase and the untraced phase
	// run before it.
	layers(lt layerTimes, traced, plain *phase) map[string]float64
}

// layerDef declares one per-layer metric.
type layerDef struct{ name, unit, better string }

// outcome is one request's result. Every field but err must repeat
// exactly whenever the request is replayed.
type outcome struct {
	err    error  // wrong result or trap: the request failed
	instrs int64  // simulated instructions retired
	cycles int64  // simulated cycles
	code   int64  // generated machine instructions of the programs run
	sig    uint64 // any further per-request counters, hashed
}

func (o outcome) same(p outcome) bool {
	return o.instrs == p.instrs && o.cycles == p.cycles && o.code == p.code && o.sig == p.sig
}

type metric struct {
	name  string
	value float64
	unit  string
}

// The end-to-end metrics every workload reports (see README.md for what
// each means per workload). bound is the share of the parent's median by
// which a metric may worsen before a change counts as a regression.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"sim_instrs_per_s", "1/s", "higher", 0.25},
	{"sim_cycles_per_op", "cycles", "lower", 0.1},
	{"code_instrs_per_op", "instrs", "lower", 0.05},
	{"alloc_kb_per_op", "KiB", "lower", 0.1},
}

var workloads = []struct {
	name, why string
	make      func() workload
	layers    []layerDef
}{
	{"compile", "pipeline passes do the work and execution almost none: an optimizer or liveness speed-up shows here and nowhere else",
		func() workload { return &compileWorkload{} }, compileLayers},
	{"exec", "engine and run-time dispatch do the work, compiles are in set-up; raise depth separates constant-time cuts from linear unwinding",
		func() workload { return &execWorkload{} }, execLayers()},
	{"serve", "Clone, scheduling and concurrent dispatch do the work; the slowest task sets each burst's time",
		func() workload { return &serveWorkload{} }, serveLayers},
	{"interp", "the section 5 interpreter does the work and internal/machine is bypassed: engine changes must not move it",
		func() workload { return &interpWorkload{} }, interpLayers},
}

// layerTable lists every per-layer metric, workload by workload.
func layerTable() []layerDef {
	var out []layerDef
	for _, w := range workloads {
		out = append(out, w.layers...)
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w.make(), true
		}
	}
	return nil, false
}

// setupReps is how many times a run builds its workload; setup_s is the
// median.
const setupReps = 7

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "compile, exec, serve, interp, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", runSeconds, "seconds one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spanDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory a traced run writes its spans to")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		out, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		stdout.Write(out)
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	b := &bench{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), out: stdout, spanDir: *spanDir}
	var err error
	switch {
	case *name == "all":
		err = b.all()
	case *trace == 1:
		err = b.traced(*name)
	default:
		err = b.plain(*name)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type bench struct {
	seed    int64
	budget  time.Duration
	out     io.Writer
	spanDir string
}

// stamp names the method and host a result came from, so numbers from
// another engine or host are never compared silently.
func (b *bench) stamp(workload string, trace int) string {
	engine := "unknown"
	if m, err := cmm.Load("f() { return (0); }"); err == nil {
		if mc, err := m.Native(cmm.CompileConfig{}); err == nil {
			engine = mc.EngineName()
		}
	}
	return fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s engine=%s",
		workload, b.seed, b.budget.Seconds(), trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), engine)
}

// A phase is cut into windows equal time windows. The host this
// benchmark runs on shares its CPUs with other tenants, whose load comes
// and goes within seconds; a window's throughput shows how much of the
// machine the run had. The time metrics are computed over the requests
// of the quiet windows only: the fastest half of the windows, plus as
// many of the next fastest as it takes to hold minSamples requests.
const (
	windows    = 10
	minSamples = 1000 // ten beyond p99
)

// phase is one timed closed loop over a deck.
type phase struct {
	lat   []time.Duration // each request's latency, in completion order
	win   []uint8         // the window each request completed in
	alloc uint64          // Go heap bytes allocated
	// Per window: simulated instructions retired and the summed latency
	// of the requests completed in it.
	winInstrs [windows]int64
	winBusy   [windows]time.Duration
}

// windowCounts is how many requests completed in each window.
func (ph *phase) windowCounts() (n [windows]int) {
	for _, w := range ph.win {
		n[w]++
	}
	return n
}

// windowRates is each window's requests per second of request latency.
// With one closed-loop client that is the window's throughput, without
// the loop's own bookkeeping between requests.
func (ph *phase) windowRates() []float64 {
	n := ph.windowCounts()
	r := make([]float64, windows)
	for i := range r {
		if ph.winBusy[i] > 0 {
			r[i] = float64(n[i]) / ph.winBusy[i].Seconds()
		}
	}
	return r
}

// quietStats returns the throughput, simulated instructions per second
// and latencies of the quiet windows' requests.
func (ph *phase) quietStats() (opsPerSec, instrsPerSec float64, lat []time.Duration) {
	rates := ph.windowRates()
	order := make([]int, windows)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rates[order[a]] > rates[order[b]] })
	n := ph.windowCounts()
	var keep [windows]bool
	var busy time.Duration
	var instrs int64
	kept := 0
	for k, w := range order {
		if k >= windows/2 && kept >= minSamples {
			break
		}
		keep[w] = true
		kept += n[w]
		busy += ph.winBusy[w]
		instrs += ph.winInstrs[w]
	}
	for i, w := range ph.win {
		if keep[w] {
			lat = append(lat, ph.lat[i])
		}
	}
	return float64(len(lat)) / busy.Seconds(), float64(instrs) / busy.Seconds(), lat
}

// prepared is a workload after set-up and its reference pass.
type prepared struct {
	name      string
	w         workload
	setup     []time.Duration
	ref       []outcome
	ops       int // requests attempted, reference pass included
	failed    int
	nextOp    int32
	cursor    int
	nondet    error // first determinism violation
	firstFail error // first failure, for the report
}

// prepare builds the workload reps times (keeping the last build), then
// runs the whole deck once. That pass warms every cache and lazy
// compile, checks every output, and records each request's counters,
// against which every later replay is compared.
func prepare(name string, seed int64, reps int, tr *tracer) (*prepared, error) {
	p := &prepared{name: name}
	for r := 0; r < reps; r++ {
		w, ok := findWorkload(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (want compile, exec, serve, interp or all)", name)
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(seed, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		p.setup = append(p.setup, time.Since(start))
		p.w = w
	}
	p.ref = make([]outcome, p.w.size())
	for i := range p.ref {
		p.ref[i] = p.w.do(i, -1, -1)
		p.count(p.ref[i])
	}
	return p, nil
}

func (p *prepared) count(o outcome) {
	p.ops++
	if o.err != nil {
		p.failed++
		if p.firstFail == nil {
			p.firstFail = fmt.Errorf("%s: %w", p.name, o.err)
		}
	}
}

// measure replays the deck for d, continuing where the last phase
// stopped. With a tracer, each request gets a root span.
func (p *prepared) measure(d time.Duration, tr *tracer) *phase {
	ph := &phase{}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	start := time.Now()
	deadline := start.Add(d)
	for {
		i := p.cursor
		p.cursor = (p.cursor + 1) % len(p.ref)
		op, root := int32(-1), int32(-1)
		if tr != nil {
			op = p.nextOp
			p.nextOp++
			root = tr.begin(op, -1, p.name+".op")
		}
		t0 := time.Now()
		o := p.w.do(i, op, root)
		t1 := time.Now()
		if tr != nil {
			tr.end(root)
		}
		ph.lat = append(ph.lat, t1.Sub(t0))
		win := min(int(t1.Sub(start)*windows/d), windows-1)
		ph.win = append(ph.win, uint8(win))
		ph.winInstrs[win] += o.instrs
		ph.winBusy[win] += t1.Sub(t0)
		p.count(o)
		if o.err == nil && p.ref[i].err == nil && !o.same(p.ref[i]) && p.nondet == nil {
			p.nondet = fmt.Errorf("%s request %d is not deterministic: replay %+v, first run %+v", p.name, i, o, p.ref[i])
		}
		if !t1.Before(deadline) {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	ph.alloc = ms.TotalAlloc - alloc
	return ph
}

// endToEndMetrics computes the e2e metric set from an untraced phase.
func (p *prepared) endToEndMetrics(ph *phase) []metric {
	var cycles, code int64
	for _, o := range p.ref {
		cycles += o.cycles
		code += o.code
	}
	n := float64(len(p.ref))
	opsPerSec, instrsPerSec, lat := ph.quietStats()
	return []metric{
		{"setup_s", median(p.setup).Seconds(), "s"},
		{"ops_per_s", opsPerSec, "1/s"},
		{"op_p50_us", us(quantile(lat, 0.50)), "us"},
		{"op_p99_us", us(quantile(lat, 0.99)), "us"},
		{"sim_instrs_per_s", instrsPerSec, "1/s"},
		{"sim_cycles_per_op", float64(cycles) / n, "cycles"},
		{"code_instrs_per_op", float64(code) / n, "instrs"},
		{"alloc_kb_per_op", float64(ph.alloc) / float64(len(ph.lat)) / 1024, "KiB"},
	}
}

func (b *bench) plain(name string) error {
	p, err := prepare(name, b.seed, setupReps, nil)
	if err != nil {
		return err
	}
	ph := p.measure(b.budget, nil)
	ms := p.endToEndMetrics(ph)
	_, _, lat := ph.quietStats()
	notes := []string{fmt.Sprintf("%d requests, %d in the quiet windows; requests per second by window: %.4g",
		len(ph.lat), len(lat), ph.windowRates())}
	if len(lat) < minSamples {
		notes = append(notes, fmt.Sprintf("warning: %d quiet samples leave fewer than ten beyond p99", len(lat)))
	}
	return b.report(b.stamp(name, 0), []*prepared{p}, ms, notes...)
}

// traced measures every workload, so the run reports every per-layer
// metric: the named workload gets half the budget, the others share the
// rest. Each workload runs an untraced phase and then a traced phase of
// equal length; the difference is its tracing overhead.
func (b *bench) traced(name string) error {
	if _, ok := findWorkload(name); !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var ps []*prepared
	var ms []metric
	for _, w := range workloads {
		share := b.budget / 2 / time.Duration(len(workloads)-1)
		if w.name == name {
			share = b.budget / 2
		}
		// The untraced phase runs on its own build, whose dispatchers
		// are not wrapped.
		p, err := prepare(w.name, b.seed, 1, nil)
		if err != nil {
			return err
		}
		plain := p.measure(share/2, nil)
		tr := newTracer()
		tp, err := prepare(w.name, b.seed, 1, tr)
		if err != nil {
			return err
		}
		traced := tp.measure(share/2, tr)
		vals := tp.w.layers(tr.aggregate(), traced, plain)
		for _, l := range w.layers {
			v, ok := vals[l.name]
			if !ok {
				return fmt.Errorf("%s reported no %s", w.name, l.name)
			}
			ms = append(ms, metric{l.name, v, l.unit})
		}
		ps = append(ps, p, tp)
		path := filepath.Join(b.spanDir, fmt.Sprintf("%s-seed%d.tsv.gz", w.name, b.seed))
		if err := tr.write(path, b.stamp(w.name, 1)); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return b.report(b.stamp(name, 1), ps, ms)
}

// all runs every workload untraced, one after another, each for the
// full budget, and reports each metric as <workload>.<metric>.
func (b *bench) all() error {
	var ps []*prepared
	var ms []metric
	for _, w := range workloads {
		p, err := prepare(w.name, b.seed, setupReps, nil)
		if err != nil {
			return err
		}
		for _, m := range p.endToEndMetrics(p.measure(b.budget, nil)) {
			m.name = w.name + "." + m.name
			ms = append(ms, m)
		}
		ps = append(ps, p)
	}
	return b.report(b.stamp("all", 0), ps, ms)
}

// report prints the stamp, the notes, one line per metric, and the
// result object. A failed request or a determinism violation makes the
// result incorrect; a violation is also an error.
func (b *bench) report(stamp string, ps []*prepared, ms []metric, notes ...string) error {
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	fmt.Fprintf(b.out, "# %s\n", stamp)
	for _, n := range notes {
		fmt.Fprintf(b.out, "# %s\n", n)
	}
	var errs []error
	for _, p := range ps {
		res.Attempted += p.ops
		res.Failed += p.failed
		if p.failed > 0 {
			res.Correct = false
			fmt.Fprintf(b.out, "# %d of %d %s requests failed; first: %v\n", p.failed, p.ops, p.name, p.firstFail)
		}
		if p.nondet != nil {
			res.Correct = false
			errs = append(errs, p.nondet)
		}
	}
	for _, m := range ms {
		fmt.Fprintf(b.out, "%-40s %16.6g %s\n", m.name, m.value, m.unit)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
		}
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(b.out, string(line))
	return errors.Join(errs...)
}

// manifestJSON renders BENCHMARK.json from the metric tables above and
// the workloads' layer tables, so the manifest and the program cannot
// disagree.
func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "perfbench/run.sh"}, Paths: []string{"perfbench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{e.name, e.unit, e.better, e.bound})
	}
	for _, l := range layerTable() {
		m.PerLayer = append(m.PerLayer, layer{l.name, l.unit, l.better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// runSeconds is how long one run measures by default: long enough for a
// thousand samples on the slowest workload, so p99 has ten beyond it.
const runSeconds = 25

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// quantile returns the q-quantile of ds by the nearest-rank method.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perOp divides a summed duration in ns by n, in µs.
func perOp(ns int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(n)
}

// overhead is the tracing overhead: traced mean op latency minus the
// untraced one, in µs.
func overhead(traced, plain *phase) float64 {
	mean := func(ph *phase) float64 {
		var sum time.Duration
		for _, d := range ph.lat {
			sum += d
		}
		return us(sum) / float64(len(ph.lat))
	}
	return mean(traced) - mean(plain)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
