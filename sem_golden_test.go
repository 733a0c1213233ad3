package cmm_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmm"
	"cmm/internal/paper"
	"cmm/internal/progen"
)

// TestSemBehaviourGolden pins what the §5 abstract machine does on the
// paper's programs, MiniM3 and generated programs: the transition count,
// the results or the trap message, and a digest of the event stream of
// every run. The golden was written by the map-environment machine, so
// a change to how sem stores or finds variables must reproduce it
// exactly. CMM_UPDATE_GOLDENS=1 rewrites testdata/sem/behaviour.golden.
func TestSemBehaviourGolden(t *testing.T) {
	var sb strings.Builder
	run := func(name string, mod *cmm.Module, rts string, opt int, proc string, args ...uint64) {
		t.Helper()
		if _, err := mod.ApplyOpt(opt); err != nil {
			t.Fatal(err)
		}
		o := cmm.NewObserver()
		opts := []cmm.RunOption{cmm.WithObserver(o)}
		if d, err := cmm.ParseDispatcher(rts); err != nil {
			t.Fatal(err)
		} else if d != nil {
			opts = append(opts, cmm.WithDispatcher(d))
		}
		in, err := mod.Interp(opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Run(proc, args...)
		out := fmt.Sprint(res)
		if err != nil {
			out = "error: " + err.Error()
		}
		h := sha256.New()
		for _, ev := range o.Trace {
			fmt.Fprintf(h, "%+v\n", ev)
		}
		fmt.Fprintf(&sb, "%s -O%d %s%v: steps=%d %s events=%d dropped=%d digest=%x\n",
			name, opt, proc, args, in.Steps(), out, len(o.Trace), o.Dropped, h.Sum(nil)[:8])
	}
	load := func(src string) *cmm.Module {
		t.Helper()
		mod, err := cmm.Load(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		return mod
	}
	for _, opt := range []int{0, 2} {
		for _, proc := range []string{"sp1", "sp2", "sp3"} {
			run("figure1", load(paper.Figure1), "", opt, proc, 20)
		}
		for _, fig := range []struct{ name, src, rts string }{
			{"fig2_cut", paper.Fig2Cut, ""},
			{"fig2_runtime_cut", paper.Fig2RuntimeCut, "register:handler"},
			{"fig2_runtime_unwind", paper.Fig2RuntimeUnwind, "unwind"},
			{"fig2_native_unwind", paper.Fig2NativeUnwind, ""},
			{"fig2_cps", paper.Fig2CPS, ""},
		} {
			for _, depth := range []uint64{1, 16} {
				run(fig.name, load(fig.src), fig.rts, opt, "f", depth)
			}
		}
		game, err := os.ReadFile(filepath.Join("testdata", "game.m3"))
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []cmm.ExceptionPolicy{cmm.StackCutting, cmm.RuntimeUnwinding, cmm.NativeUnwinding} {
			for _, which := range []uint64{0, 1} {
				mod, err := cmm.LoadMiniM3(string(game), policy)
				if err != nil {
					t.Fatal(err)
				}
				run(fmt.Sprintf("game.m3/%v", policy), mod, "", opt, "run_tryAMove", which)
			}
			for _, period := range []uint64{0, 3} {
				mod, err := cmm.LoadMiniM3(gameM3, policy)
				if err != nil {
					t.Fatal(err)
				}
				run(fmt.Sprintf("playGame/%v", policy), mod, "", opt, "run_playGame", 20, period)
			}
		}
		for seed := int64(0); seed < 40; seed++ {
			for _, exc := range []bool{false, true} {
				src := progen.Generate(seed, progen.Config{Exceptions: exc})
				for _, arg := range []uint64{1, 7} {
					run(fmt.Sprintf("progen/%d/exc=%v", seed, exc), load(src), "", opt, "p0", arg)
				}
			}
		}
		// Programs that go wrong: the machine's trap messages are part of
		// its behaviour.
		for i, src := range semTrapPrograms {
			run(fmt.Sprintf("trap/%d", i), load(src), "", opt, "f", 3)
		}
		run("trap/yield-without-rts", load(paper.Fig2RuntimeUnwind), "", opt, "f", 2)
	}

	path := filepath.Join("testdata", "sem", "behaviour.golden")
	got := sb.String()
	if os.Getenv("CMM_UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// semTrapPrograms each make the abstract machine go wrong from f(3).
var semTrapPrograms = []string{
	// Read of a variable no path assigned.
	`f(bits32 n) { bits32 x; if n == 0 { x = 1; } return (x + n); }`,
	// Cut to a continuation whose activation has returned.
	`bits32 k;
f(bits32 n) { bits32 r; g(); cut to k(n); }
g() { bits32 r; k = k1; return (); continuation k1(r): return (); }`,
	// Cut past a call site without also aborts.
	`f(bits32 n) { bits32 r; r = g(k) also cuts to k; return (r);
continuation k(r): return (r + 1); }
g(bits32 c) { bits32 r; r = h(c); return (r); }
h(bits32 c) { cut to c(5); }`,
	// Alternate return to a call site with no alternates.
	`f(bits32 n) { bits32 r; r = g(n); return (r); }
g(bits32 n) { return <0/1> (n); }`,
	// Fast primitive failure.
	`f(bits32 n) { bits32 r; r = %divu(n, n - 3); return (r); }`,
	// Call of a value that is not code.
	`f(bits32 n) { bits32 r; r = n(1); return (r); }`,
	// Load outside memory through a global.
	`bits32 p = 4294967292;
f(bits32 n) { p = bits32[p]; return (p); }`,
}
