package cmm_test

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"cmm"
	"cmm/internal/obs"
	"cmm/internal/progen"
)

// The stack-policy passivity contract: a policy is a shadow model of the
// activation-stack representation, so attaching one may never change
// results, traps, retired counters, or the observer event stream — only
// the policy's own StackStats ledger. This file enforces the contract
// with a randomized differential sweep across all four policies at -O0
// and -O2, pins the one-shot/multi-shot trap goldens, and checks the
// ledger itself is engine-invariant across ref and native.

// allStackPolicies is every strategy in the lab, in catalogue order.
var allStackPolicies = []cmm.StackPolicy{
	cmm.StackContig, cmm.StackSeg, cmm.StackCopy, cmm.StackHybrid,
}

// runStack compiles src at the given -O level and runs proc under the
// policy (nil = no policy attached) and continuation mode, returning
// results (nil on trap), the trap message, the full event trace, the
// machine counters, and the policy ledger.
func runStack(t *testing.T, src string, level int, e cmm.Engine, pol *cmm.StackPolicy, mode cmm.ContMode, proc string, args ...uint64) ([]uint64, string, []obs.Event, cmm.Stats, cmm.StackStats) {
	t.Helper()
	mod, err := cmm.Load(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if level != 0 {
		if _, err := mod.ApplyOpt(level); err != nil {
			t.Fatalf("-O%d: %v", level, err)
		}
	}
	o := cmm.NewObserver()
	opts := []cmm.RunOption{cmm.WithObserver(o), cmm.WithEngine(e), cmm.WithContMode(mode)}
	if pol != nil {
		opts = append(opts, cmm.WithStackPolicy(*pol))
	}
	mach, err := mod.Native(cmm.CompileConfig{Opt: level}, opts...)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := mach.Run(proc, args...)
	trap := ""
	if err != nil {
		trap = err.Error()
		res = nil
	}
	return res, trap, o.Trace, mach.Stats(), mach.StackStats()
}

// diffTraces requires two event streams to be bit-identical — same
// kinds, timestamps, pcs, stack pointers, payloads. Policies run the
// same binary on the same canonical layout, so unlike the -O0-vs-O2
// comparison nothing may move.
func diffTraces(t *testing.T, label string, base, got []obs.Event) {
	t.Helper()
	if len(base) != len(got) {
		t.Errorf("%s: event count differs: %d vs %d", label, len(base), len(got))
		return
	}
	for i := range base {
		if base[i] != got[i] {
			t.Errorf("%s: event %d differs: %+v vs %+v", label, i, base[i], got[i])
			return
		}
	}
}

// TestStackPolicyPassivitySweep runs randomized progen programs —
// exceptions on and off — at -O0 and -O2 under every policy and
// requires results, traps, machine counters, and the full event stream
// to be identical to a run with no policy attached. The seed range is
// CMM_SWEEP_SEEDS-configurable, exactly like the optimizer sweep.
func TestStackPolicyPassivitySweep(t *testing.T) {
	lo, hi := sweepSeeds(t)
	for seed := lo; seed <= hi; seed++ {
		for _, exc := range []bool{false, true} {
			src := progen.Generate(seed, progen.Config{Exceptions: exc})
			for _, level := range []int{0, 2} {
				label := fmt.Sprintf("seed=%d/exc=%v/-O%d", seed, exc, level)
				res0, trap0, trace0, stats0, _ := runStack(t, src, level, cmm.EngineNative, nil, cmm.ContUnchecked, "p0", 7)
				for _, pol := range allStackPolicies {
					pol := pol
					plabel := fmt.Sprintf("%s/%v", label, pol)
					res, trap, trace, stats, _ := runStack(t, src, level, cmm.EngineNative, &pol, cmm.ContUnchecked, "p0", 7)
					if trap != trap0 {
						t.Errorf("%s: trap changed under the policy: %q vs %q", plabel, trap, trap0)
						continue
					}
					if fmt.Sprint(res) != fmt.Sprint(res0) {
						t.Errorf("%s: result changed under the policy: %v vs %v", plabel, res, res0)
					}
					if stats != stats0 {
						t.Errorf("%s: machine counters changed under the policy:\nnone:   %+v\npolicy: %+v", plabel, stats0, stats)
					}
					diffTraces(t, plabel, trace0, trace)
				}
			}
		}
	}
}

// Example programs shared with STACKS.md (docs_test.go keeps them
// compiling, verifying, and running).
func readExample(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("examples/docs/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var trapPCSP = regexp.MustCompile(`pc=\d+|sp=0x[0-9a-f]+`)

// normalizeCutTrap strips pcs and stack pointers from a reuse-violation
// trap: layout moves across -O levels, the trap reason may not.
func normalizeCutTrap(trap string) string {
	return trapPCSP.ReplaceAllStringFunc(trap, func(m string) string {
		if strings.HasPrefix(m, "pc=") {
			return "pc=?"
		}
		return "sp=?"
	})
}

// TestOneShotViolationTrap pins the one-shot golden: under -cont
// oneshot the second cut to the same continuation traps with the same
// deterministic message — and the same counters — under every policy,
// on every engine.
func TestOneShotViolationTrap(t *testing.T) {
	src := readExample(t, "multishot_counter.cmm")
	const golden = "machine trap at pc=?: one-shot continuation (target pc=? sp=?) cut to twice"
	_, trap0, _, stats0, _ := runStack(t, src, 0, cmm.EngineNative, nil, cmm.ContOneShot, "f", 3)
	if normalizeCutTrap(trap0) != golden {
		t.Fatalf("one-shot trap golden:\n got %q\nwant %q", normalizeCutTrap(trap0), golden)
	}
	for _, e := range []cmm.Engine{cmm.EngineRef, cmm.EngineNative} {
		for _, pol := range allStackPolicies {
			pol := pol
			_, trap, _, stats, _ := runStack(t, src, 0, e, &pol, cmm.ContOneShot, "f", 3)
			if trap != trap0 {
				t.Errorf("engine %v policy %v: trap %q, want %q", e, pol, trap, trap0)
			}
			if stats != stats0 {
				t.Errorf("engine %v policy %v: counters at the trap differ:\nbase: %+v\n got: %+v", e, pol, stats0, stats)
			}
		}
	}
	// f(1) takes the continuation exactly once: no violation.
	if res, trap, _, _, _ := runStack(t, src, 0, cmm.EngineNative, nil, cmm.ContOneShot, "f", 1); trap != "" || res[0] != 1 {
		t.Errorf("single-shot use under oneshot: res %v trap %q, want [1 ...] and none", res, trap)
	}
}

// TestMultiShotResumeDifferential runs the same re-cutting program
// under -cont multishot on all four policies: the snapshot-keeping
// policies (copy, hybrid) complete and record the resumes in their
// ledgers; the one-shot representations (contig, seg) trap with a
// message naming the policy.
func TestMultiShotResumeDifferential(t *testing.T) {
	src := readExample(t, "multishot_counter.cmm")
	for _, pol := range allStackPolicies {
		pol := pol
		res, trap, _, _, ss := runStack(t, src, 0, cmm.EngineNative, &pol, cmm.ContMultiShot, "f", 3)
		switch pol {
		case cmm.StackCopy, cmm.StackHybrid:
			if trap != "" {
				t.Errorf("%v: multishot re-cut trapped: %s", pol, trap)
				continue
			}
			if res[0] != 3 {
				t.Errorf("%v: f(3) = %d, want 3", pol, res[0])
			}
			if ss.Cuts != 3 || ss.Captures != 1 || ss.Resumes != 2 {
				t.Errorf("%v ledger: %+v, want 3 cuts = 1 capture + 2 resumes", pol, ss)
			}
		default: // contig, seg
			want := "under one-shot stack policy " + pol.String()
			if !strings.Contains(trap, "multi-shot cut to continuation") || !strings.Contains(trap, want) {
				t.Errorf("%v: trap %q, want a multi-shot violation naming the policy", pol, trap)
			}
		}
	}
	// The copy ledger quoted in STACKS.md, pinned so the prose stays
	// honest: f(3) is one 13-word capture plus two resumes.
	pol := cmm.StackCopy
	_, trap, _, _, ss := runStack(t, src, 0, cmm.EngineNative, &pol, cmm.ContMultiShot, "f", 3)
	if trap != "" {
		t.Fatalf("copy multishot: %s", trap)
	}
	want := cmm.StackStats{PolicyCycles: 134, Cuts: 3, Captures: 1, CaptureWords: 13, Resumes: 2}
	if ss != want {
		t.Errorf("copy ledger drifted from the STACKS.md walkthrough: %+v, want %+v", ss, want)
	}
}

// TestStackStatsEngineParity runs a cut-heavy recursion under every
// policy on both engines: the machine counters AND the policy
// ledger must be bit-identical per policy, so the accounting cannot
// depend on which engine drove the hooks (the native tier deopts its
// push/pop kernels under a non-contig policy precisely to keep this
// true).
func TestStackStatsEngineParity(t *testing.T) {
	src := readExample(t, "deep_cut.cmm")
	for _, pol := range allStackPolicies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			resR, trapR, _, statsR, ledgerR := runStack(t, src, 2, cmm.EngineRef, &pol, cmm.ContUnchecked, "f", 200)
			if trapR != "" {
				t.Fatalf("ref: %s", trapR)
			}
			if resR[0] != 42 {
				t.Fatalf("ref: f(200) = %d, want 42", resR[0])
			}
			res, trap, _, stats, ledger := runStack(t, src, 2, cmm.EngineNative, &pol, cmm.ContUnchecked, "f", 200)
			if trap != "" || fmt.Sprint(res) != fmt.Sprint(resR) {
				t.Errorf("native: res %v trap %q, want %v", res, trap, resR)
			}
			if stats != statsR {
				t.Errorf("native: machine counters differ:\nref:    %+v\nnative: %+v", statsR, stats)
			}
			if ledger != ledgerR {
				t.Errorf("native: policy ledger differs:\nref:    %+v\nnative: %+v", ledgerR, ledger)
			}
			// The ledgers must also be non-trivial where the strategy has
			// work to account: 200 frames cross a chunk edge under seg,
			// and the cut captures a snapshot under copy/hybrid.
			switch pol {
			case cmm.StackSeg:
				if ledgerR.Overflows == 0 || ledgerR.SegmentsPeak < 2 {
					t.Errorf("seg billed no chunk links on a 200-deep recursion: %+v", ledgerR)
				}
			case cmm.StackCopy:
				if ledgerR.Captures == 0 || ledgerR.CaptureWords == 0 {
					t.Errorf("copy took no snapshot on a cut: %+v", ledgerR)
				}
			case cmm.StackHybrid:
				if ledgerR.Captures == 0 {
					t.Errorf("hybrid took no snapshot on a cut: %+v", ledgerR)
				}
			}
		})
	}
}
