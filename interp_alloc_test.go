package cmm_test

import (
	"runtime"
	"testing"

	"cmm"
	"cmm/internal/paper"
)

// fig2Interp builds an interpreter for one Figure 2 mechanism, with the
// dispatcher its raise needs.
func fig2Interp(t *testing.T, src, dispatcher string) *cmm.Interp {
	t.Helper()
	mod, err := cmm.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	var opts []cmm.RunOption
	if d, err := cmm.ParseDispatcher(dispatcher); err != nil {
		t.Fatal(err)
	} else if d != nil {
		opts = append(opts, cmm.WithDispatcher(d))
	}
	in, err := mod.Interp(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestInterpHeapFlatAcrossRuns runs Figure 2's cut on one interpreter
// many times: what a run leaves behind (continuation handles, frame
// records) must be reclaimed or reused by the next run, so the live heap
// after 20,000 runs is the live heap after 1,000.
func TestInterpHeapFlatAcrossRuns(t *testing.T) {
	in := fig2Interp(t, paper.Fig2Cut, "")
	runs := func(n int) {
		for range n {
			if res, err := in.Run("f", 16); err != nil || res[0] != 42 {
				t.Fatalf("f(16) = %v, %v", res, err)
			}
		}
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	runs(1000)
	before := live()
	runs(19000)
	after := live()
	runtime.KeepAlive(in)
	const slack = 64 << 10
	if after > before+slack {
		t.Errorf("live heap grew from %d to %d bytes over 19,000 runs (%.1f B per run)",
			before, after, float64(after-before)/19000)
	}
}

// TestInterpAllocsFlatInDepth: every Figure 2 mechanism allocates as often
// per run at depth 1024 as at depth 16, because frame records and the
// continuation-handle table are reused rather than made per activation.
func TestInterpAllocsFlatInDepth(t *testing.T) {
	for _, fig := range []struct{ name, src, dispatcher string }{
		{"cut", paper.Fig2Cut, ""},
		{"runtime_cut", paper.Fig2RuntimeCut, "register:handler"},
		{"runtime_unwind", paper.Fig2RuntimeUnwind, "unwind"},
		{"native_unwind", paper.Fig2NativeUnwind, ""},
		{"cps", paper.Fig2CPS, ""},
	} {
		in := fig2Interp(t, fig.src, fig.dispatcher)
		allocs := func(depth uint64) float64 {
			return testing.AllocsPerRun(10, func() {
				if res, err := in.Run("f", depth); err != nil || res[0] != 42 {
					t.Fatalf("%s f(%d) = %v, %v", fig.name, depth, res, err)
				}
			})
		}
		if shallow, deep := allocs(16), allocs(1024); shallow != deep {
			t.Errorf("%s: allocations per run: %v at depth 16, %v at depth 1024", fig.name, shallow, deep)
		}
	}
}
