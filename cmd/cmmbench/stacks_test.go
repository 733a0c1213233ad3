package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestStacksReproduceCheckedInMatrix: replaying one observed run per
// mechanism reproduces the strategy × mechanism matrix checked in as
// BENCH_pr9.json (recorded when the four policies still ran as engine
// hooks) digit for digit, row for row.
func TestStacksReproduceCheckedInMatrix(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_pr9.json")
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Stacks []stackRow `json:"stacks"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Stacks) != 16 {
		t.Fatalf("BENCH_pr9.json holds %d stacks rows, want 16 (4 mechanisms × 4 policies)", len(report.Stacks))
	}
	got, err := measureStacks()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(report.Stacks) {
		t.Fatalf("measured %d rows, want %d", len(got), len(report.Stacks))
	}
	for i, want := range report.Stacks {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}
