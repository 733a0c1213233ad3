package cmm_test

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cmm"
	"cmm/internal/obs"
	"cmm/internal/progen"
)

// Stack policies are priced by replaying an observed run's event trace
// (obs.StackStats); the engines never see them. This file checks that
// the replay does not depend on which engine produced the trace — a
// randomized sweep at -O0 and -O2 and a cut-heavy recursion, ref vs
// native — pins the one-shot/multi-shot trap goldens, and pins the copy
// ledger quoted in STACKS.md.

// runStack compiles src at the given -O level and runs proc on engine e
// under an observer, with pol declared as the stack representation and
// the given continuation mode. It returns results (nil on trap), the
// trap message, the machine (for replays), and its counters.
func runStack(t *testing.T, src string, level int, e cmm.Engine, pol cmm.StackKind, mode cmm.ContMode, proc string, args ...uint64) ([]uint64, string, *cmm.Machine, cmm.Stats) {
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
	opts := []cmm.RunOption{cmm.WithObserver(cmm.NewObserver()), cmm.WithEngine(e),
		cmm.WithStackPolicy(pol), cmm.WithContMode(mode)}
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
	return res, trap, mach, mach.Stats()
}

// replays prices every representation over mach's observed run: one
// ledger per kind, or the replay's error.
func replays(mach *cmm.Machine) ([]cmm.StackStats, error) {
	var out []cmm.StackStats
	for _, k := range obs.StackKinds {
		s, err := mach.StackStats(k)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// TestStackPolicyPassivitySweep runs randomized progen programs —
// exceptions on and off — at -O0 and -O2, once observed on native and
// once on ref, and requires the four replays of the two traces to be
// equal, or both to refuse with the truncation error (a program that
// overflows the trace buffer). The seed range is CMM_SWEEP_SEEDS-
// configurable, exactly like the optimizer sweep.
func TestStackPolicyPassivitySweep(t *testing.T) {
	lo, hi := sweepSeeds(t)
	for seed := lo; seed <= hi; seed++ {
		for _, exc := range []bool{false, true} {
			src := progen.Generate(seed, progen.Config{Exceptions: exc})
			for _, level := range []int{0, 2} {
				label := fmt.Sprintf("seed=%d/exc=%v/-O%d", seed, exc, level)
				_, trapN, machN, _ := runStack(t, src, level, cmm.EngineNative, cmm.StackContig, cmm.ContUnchecked, "p0", 7)
				_, trapR, machR, _ := runStack(t, src, level, cmm.EngineRef, cmm.StackContig, cmm.ContUnchecked, "p0", 7)
				if trapN != trapR {
					t.Errorf("%s: traps differ: native %q, ref %q", label, trapN, trapR)
					continue
				}
				native, errN := replays(machN)
				ref, errR := replays(machR)
				switch {
				case errors.Is(errN, obs.ErrTruncated) && errors.Is(errR, obs.ErrTruncated):
				case errN != nil || errR != nil:
					t.Errorf("%s: replay errors differ: native %v, ref %v", label, errN, errR)
				case !reflect.DeepEqual(native, ref):
					t.Errorf("%s: replays differ:\nnative: %+v\nref:    %+v", label, native, ref)
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
// deterministic message — and the same counters — whatever policy is
// declared, on every engine.
func TestOneShotViolationTrap(t *testing.T) {
	src := readExample(t, "multishot_counter.cmm")
	const golden = "machine trap at pc=?: one-shot continuation (target pc=? sp=?) cut to twice"
	_, trap0, _, stats0 := runStack(t, src, 0, cmm.EngineNative, cmm.StackContig, cmm.ContOneShot, "f", 3)
	if normalizeCutTrap(trap0) != golden {
		t.Fatalf("one-shot trap golden:\n got %q\nwant %q", normalizeCutTrap(trap0), golden)
	}
	for _, e := range []cmm.Engine{cmm.EngineRef, cmm.EngineNative} {
		for _, pol := range obs.StackKinds {
			_, trap, _, stats := runStack(t, src, 0, e, pol, cmm.ContOneShot, "f", 3)
			if trap != trap0 {
				t.Errorf("engine %v policy %v: trap %q, want %q", e, pol, trap, trap0)
			}
			if stats != stats0 {
				t.Errorf("engine %v policy %v: counters at the trap differ:\nbase: %+v\n got: %+v", e, pol, stats0, stats)
			}
		}
	}
	// f(1) takes the continuation exactly once: no violation.
	if res, trap, _, _ := runStack(t, src, 0, cmm.EngineNative, cmm.StackContig, cmm.ContOneShot, "f", 1); trap != "" || res[0] != 1 {
		t.Errorf("single-shot use under oneshot: res %v trap %q, want [1 ...] and none", res, trap)
	}
}

// TestMultiShotResumeDifferential runs the same re-cutting program
// under -cont multishot with each of the four policies declared: the
// snapshot-keeping policies (copy, hybrid) complete and their replayed
// ledgers record the resumes; the one-shot representations (contig,
// seg) trap with a message naming the policy.
func TestMultiShotResumeDifferential(t *testing.T) {
	src := readExample(t, "multishot_counter.cmm")
	for _, pol := range obs.StackKinds {
		res, trap, mach, _ := runStack(t, src, 0, cmm.EngineNative, pol, cmm.ContMultiShot, "f", 3)
		switch pol {
		case cmm.StackCopy, cmm.StackHybrid:
			if trap != "" {
				t.Errorf("%v: multishot re-cut trapped: %s", pol, trap)
				continue
			}
			if res[0] != 3 {
				t.Errorf("%v: f(3) = %d, want 3", pol, res[0])
			}
			ss, err := mach.StackStats(pol)
			if err != nil {
				t.Fatal(err)
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
	_, trap, mach, _ := runStack(t, src, 0, cmm.EngineNative, cmm.StackCopy, cmm.ContMultiShot, "f", 3)
	if trap != "" {
		t.Fatalf("copy multishot: %s", trap)
	}
	ss, err := mach.StackStats(cmm.StackCopy)
	if err != nil {
		t.Fatal(err)
	}
	want := cmm.StackStats{Kind: cmm.StackCopy, PolicyCycles: 134, Cuts: 3, Captures: 1, CaptureWords: 13, Resumes: 2,
		CaptureSizes: []int64{13}}
	if !reflect.DeepEqual(ss, want) {
		t.Errorf("copy ledger drifted from the STACKS.md walkthrough: %+v, want %+v", ss, want)
	}
}

// TestStackStatsEngineParity observes a cut-heavy recursion on both
// engines: the machine counters must be bit-identical, and so must
// every policy's replayed ledger, so the pricing cannot depend on which
// engine recorded the trace (the native tier's push/pop kernels stand
// down under an observer, so its trace carries every transfer).
func TestStackStatsEngineParity(t *testing.T) {
	src := readExample(t, "deep_cut.cmm")
	resR, trapR, machR, statsR := runStack(t, src, 2, cmm.EngineRef, cmm.StackContig, cmm.ContUnchecked, "f", 200)
	if trapR != "" {
		t.Fatalf("ref: %s", trapR)
	}
	if resR[0] != 42 {
		t.Fatalf("ref: f(200) = %d, want 42", resR[0])
	}
	res, trap, machN, stats := runStack(t, src, 2, cmm.EngineNative, cmm.StackContig, cmm.ContUnchecked, "f", 200)
	if trap != "" || fmt.Sprint(res) != fmt.Sprint(resR) {
		t.Errorf("native: res %v trap %q, want %v", res, trap, resR)
	}
	if stats != statsR {
		t.Errorf("native: machine counters differ:\nref:    %+v\nnative: %+v", statsR, stats)
	}
	for _, pol := range obs.StackKinds {
		t.Run(pol.String(), func(t *testing.T) {
			ledgerR, err := machR.StackStats(pol)
			if err != nil {
				t.Fatalf("ref replay: %v", err)
			}
			ledger, err := machN.StackStats(pol)
			if err != nil {
				t.Fatalf("native replay: %v", err)
			}
			if !reflect.DeepEqual(ledger, ledgerR) {
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
