package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"cmm"
	"cmm/internal/paper"
)

func TestGenerateIsDeterministic(t *testing.T) {
	for _, procs := range []int{10, 33, 60} {
		a, b := generate(42, procs), generate(42, procs)
		if a != b {
			t.Fatalf("generate(42, %d) differs between calls", procs)
		}
		if c := generate(43, procs); c.Src == a.Src {
			t.Errorf("seeds 42 and 43 gave the same %d-procedure source", procs)
		}
		m, err := cmm.Load(a.Src)
		if err != nil {
			t.Fatalf("generated source does not load: %v\n%s", err, a.Src)
		}
		if got := len(m.Procedures()); got != procs {
			t.Errorf("generate(42, %d) has %d procedures", procs, got)
		}
	}
}

// The generator's expected values are the compile workload's oracle.
// The §5 interpreter checks them independently of the compiler.
func TestGeneratedOracleAgreesWithInterpreter(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		g := generate(seed, 10+int(seed)*2)
		m, err := cmm.Load(g.Src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		it, err := m.Interp(cmm.WithDispatcher(newGenDispatcher()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := it.Run("main", g.Arg)
		if err != nil {
			t.Fatalf("seed %d: interpreter: %v\n%s", seed, err, g.Src)
		}
		if res[0] != g.Want {
			t.Errorf("seed %d: interpreter says %d, generator %d", seed, res[0], g.Want)
		}
	}
}

// Every mechanism must occur, raising and returning normally, so the
// compile workload exercises all four.
func TestGeneratedProgramsMixMechanisms(t *testing.T) {
	src := ""
	for seed := int64(0); seed < 8; seed++ {
		src += generate(seed, 40).Src
	}
	for _, want := range []string{"cut to kv", "yield(1, 8,", "descriptors(desc)", "return <0/1>", "also cuts to k", "goto loop"} {
		if !strings.Contains(src, want) {
			t.Errorf("no generated program contains %q", want)
		}
	}
}

// The closed-form references must match CycleWorkload.Want where it is
// set, and the §5 interpreter at other sizes.
func TestReferencesAgreeWithWantAndInterpreter(t *testing.T) {
	for _, w := range paper.CycleWorkloads {
		if w.Want != nil {
			got, err := reference(w.Name, w.Args[0])
			if err != nil || got != *w.Want {
				t.Errorf("%s: reference(%d) = %d, %v; Want %d", w.Name, w.Args[0], got, err, *w.Want)
			}
		}
		m, err := cmm.Load(w.Src)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dispatcherFor(w.Dispatcher)
		if err != nil {
			t.Fatal(err)
		}
		var opts []cmm.RunOption
		if d != nil {
			opts = append(opts, cmm.WithDispatcher(d))
		}
		it, err := m.Interp(opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []uint64{2, 17, 300} {
			want, err := reference(w.Name, n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := it.Run(w.Proc, n)
			if err != nil || res[0] != want {
				t.Errorf("%s(%d): interpreter %v, %v; reference %d", w.Name, n, res, err, want)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndManifest(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("bad or repeated metric %q (unit %q)", name, unit)
		}
		seen[name] = true
	}
	for _, e := range endToEnd {
		check(e.name, e.unit)
	}
	for _, l := range layerTable() {
		check(l.name, l.unit)
	}
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --manifest > BENCHMARK.json")
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {7, 20}}
	if got := covered(iv, 1, 10); got != 3+5 { // [1,4] and [5,10]
		t.Errorf("covered = %d, want 8", got)
	}
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("perfbench %v exited %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("perfbench %v: %+v\n%s", args, r, out.String())
	}
	return r
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		r := runBench(t, "--workload", w.name, "--seed", "3", "--seconds", "0.3")
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s reported %d metrics, want %d", w.name, len(r.Metrics), len(endToEnd))
		}
		for _, e := range endToEnd {
			if m, ok := r.Metrics[e.name]; !ok || m.Unit != e.unit || m.Value <= 0 {
				t.Errorf("%s: metric %s = %+v", w.name, e.name, m)
			}
		}
	}
	r := runBench(t, "--workload", "exec", "--seed", "3", "--seconds", "1", "--trace", "1", "--spans", t.TempDir())
	if len(r.Metrics) != len(layerTable()) {
		t.Errorf("traced run reported %d metrics, want %d", len(r.Metrics), len(layerTable()))
	}
}
