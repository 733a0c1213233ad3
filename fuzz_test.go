package cmm_test

import (
	"errors"
	"testing"

	"cmm"
)

// The fuzz targets hold the front end to its contract: any input ends in
// a module or in diagnostics, never in a panic or a hang. Their corpora,
// under testdata/fuzz, hold the documentation examples, Figure 1, the
// verifier's test programs, the MiniM3 game and every input that once
// crashed; plain go test replays them. Run one with, for example,
//
//	go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 20s .

// FuzzLoad compiles C-- source through verification, -O2 and code
// generation.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := cmm.Load(src)
		if err != nil {
			checkDiagnostics(t, err)
			return
		}
		mod.Verify(true)
		if _, err := mod.ApplyOpt(2); err != nil {
			t.Fatal(err)
		}
		if _, err := mod.Native(cmm.CompileConfig{Opt: 2}); err != nil {
			checkDiagnostics(t, err)
		}
	})
}

// FuzzLoadMiniM3 compiles MiniM3 source under every exception policy.
func FuzzLoadMiniM3(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		for _, policy := range []cmm.ExceptionPolicy{cmm.StackCutting, cmm.RuntimeUnwinding, cmm.NativeUnwinding} {
			if _, err := cmm.LoadMiniM3(src, policy); err != nil {
				checkDiagnostics(t, err)
			}
		}
	})
}

// checkDiagnostics fails unless err is a diagnostic or a list of them.
func checkDiagnostics(t *testing.T, err error) {
	t.Helper()
	var d *cmm.Diagnostic
	var ds cmm.Diagnostics
	if !errors.As(err, &d) && (!errors.As(err, &ds) || len(ds) == 0) {
		t.Fatalf("error is not a diagnostic: %T %v", err, err)
	}
}
