package paper

// This file declares the fixed cycle workloads behind the "-O0 vs -O2"
// optimizer evaluation: the named benchmark programs whose simulated
// cycles/op are pinned by golden files in testdata/bench/ (checked by
// the root package's TestBenchGoldens) and quoted in EXPERIMENTS.md's
// tables (checked by TestExperimentsTables). The package holds data
// only (sources and run recipes); the runners live with their callers,
// because simulated cycles are deterministic — the same workload yields
// the same count everywhere.

// CalleeSavesKernel keeps four values live across a call in a loop: the
// §4.2 register-pressure kernel. With callee-saves registers the values
// stay in registers across the calls.
const CalleeSavesKernel = `
leaf(bits32 x) { return (x + 1); }
kernel(bits32 n) {
    bits32 a, b, c, d, i, r;
    a = 1; b = 2; c = 3; d = 4; i = 0; r = 0;
loop:
    if i == n { return (r + a + b + c + d); }
    r = leaf(r);
    r = r + a + b + c + d;
    i = i + 1;
    goto loop;
}
`

// CalleeSavesKernelCut is the same kernel with a cut edge on the call:
// at -O0 the cut target saves the whole callee-saves bank; the precise
// accounting shrinks that to the prefix actually at risk.
const CalleeSavesKernelCut = `
leaf(bits32 x) { return (x + 1); }
kernel(bits32 n) {
    bits32 a, b, c, d, i, r;
    a = 1; b = 2; c = 3; d = 4; i = 0; r = 0;
loop:
    if i == n { return (r + a + b + c + d); }
    r = leaf(r) also cuts to k;
    r = r + a + b + c + d;
    i = i + 1;
    goto loop;
continuation k:
    return (a + b + c + d);
}
`

// OptHandlerRich is the §6 handler-rich loop (the EXPERIMENTS.md
// "2,541 vs 3,141" workload): constant-foldable arithmetic feeding a
// call annotated "also unwinds to ... also aborts" around a leaf callee.
// The -O2 pipeline proves g quiet, prunes the handler edges, drops the
// continuation, and elides g's frame.
const OptHandlerRich = `
f(bits32 n) {
    bits32 i, r, x, y;
    i = 0; r = 0;
loop:
    if i == n { return (r); }
    x = 2 + 3;
    y = x;
    r = g(r + y) also unwinds to k also aborts;
    i = i + 1;
    goto loop;
continuation k(r):
    return (r);
}
g(bits32 x) { return (x); }
`

// CycleWorkload is one deterministic simulated-cycle measurement: a
// program, an entry point, and the compile configuration it runs under.
type CycleWorkload struct {
	Name string
	Src  string
	Proc string
	Args []uint64
	// Dispatcher names the front-end run-time system the workload
	// needs: "", "unwind", "register:<global>", or "exnstack:<global>".
	Dispatcher string
	// TestAndBranch and NoCalleeSaves select the ablation configuration
	// the workload is defined under.
	TestAndBranch bool
	NoCalleeSaves bool
	// Want, when non-nil, is the expected first result register — a
	// correctness gate on every measurement.
	Want *uint64
}

func wantVal(v uint64) *uint64 { return &v }

// CycleWorkloads is the fixed benchmark set of the optimizer
// evaluation, in report order. Names are stable: they key the golden
// files in testdata/bench/ and the rows of EXPERIMENTS.md's -O0 vs -O2
// table.
var CycleWorkloads = []CycleWorkload{
	{Name: "figure1_sp1", Src: Figure1, Proc: "sp1", Args: []uint64{20}, Want: wantVal(210)},
	{Name: "figure1_sp2", Src: Figure1, Proc: "sp2", Args: []uint64{20}, Want: wantVal(210)},
	{Name: "figure1_sp3", Src: Figure1, Proc: "sp3", Args: []uint64{20}, Want: wantVal(210)},
	{Name: "fig2_cut_to", Src: Fig2Cut, Proc: "f", Args: []uint64{256}, Want: wantVal(42)},
	{Name: "fig2_set_cut_to_cont", Src: Fig2RuntimeCut, Proc: "f", Args: []uint64{256},
		Dispatcher: "register:handler", Want: wantVal(42)},
	{Name: "fig2_set_unwind_cont", Src: Fig2RuntimeUnwind, Proc: "f", Args: []uint64{256},
		Dispatcher: "unwind", Want: wantVal(42)},
	{Name: "fig2_return_mn", Src: Fig2NativeUnwind, Proc: "f", Args: []uint64{256}, Want: wantVal(42)},
	{Name: "fig34_branch_table", Src: Fig34, Proc: "f", Args: []uint64{1000}},
	{Name: "fig34_test_and_branch", Src: Fig34, Proc: "f", Args: []uint64{1000}, TestAndBranch: true},
	{Name: "callee_saves_used", Src: CalleeSavesKernel, Proc: "kernel", Args: []uint64{200}},
	{Name: "callee_saves_cut_edges", Src: CalleeSavesKernelCut, Proc: "kernel", Args: []uint64{200}},
	{Name: "opt_handler_rich", Src: OptHandlerRich, Proc: "f", Args: []uint64{100}, Want: wantVal(500)},
}
