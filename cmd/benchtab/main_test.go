package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigureExperimentsRun smoke-tests the figure reproductions (the
// P-series is exercised by `go test -bench` at the repository root and
// by running benchtab itself; re-running testing.Benchmark inside a test
// would be slow for no added assurance).
func TestFigureExperimentsRun(t *testing.T) {
	for _, e := range []struct {
		name string
		fn   func() error
	}{
		{"F1", expF1},
		{"F2", expF2},
		{"F3", expF3},
		{"F4", expF4},
		{"F5", expF5},
		{"F6", expF6},
		{"F7to10", expF7to10},
		{"P7", expP7},
		{"P8", expP8},
	} {
		t.Run(e.name, func(t *testing.T) {
			if err := e.fn(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGuardComparesSlowRows: the guard skips short microsecond rows but
// compares a row whose single op takes a millisecond or more, such as
// the 45-state artifact boot, at the default slack.
func TestGuardComparesSlowRows(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	doc := `{"rows":[
{"exp":"P1","name":"steps=10","entries":9,"ns_per_op":1200,"ns_per_entry":133.3},
{"exp":"P6","name":"boot/artifact-json","entries":45,"ns_per_op":6140184,"ns_per_entry":136448.5}]}`
	if err := os.WriteFile(baseline, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	short := benchRow{Exp: "P1", Name: "steps=10", Entries: 9, NsPerOp: 2400, NsPerEntry: 266.7}
	boot := func(nsPerOp int64) benchRow {
		return benchRow{Exp: "P6", Name: "boot/artifact-json", Entries: 45, NsPerOp: nsPerOp,
			NsPerEntry: float64(nsPerOp) / 45}
	}
	if err := guard([]benchRow{short}, baseline, 0.25, nil); err == nil || !strings.Contains(err.Error(), "no timed rows") {
		t.Errorf("a 9-entry microsecond row was compared: %v", err)
	}
	if err := guard([]benchRow{short, boot(7_000_000)}, baseline, 0.25, nil); err != nil {
		t.Errorf("boot row 14%% over its baseline failed the 25%% guard: %v", err)
	}
	err := guard([]benchRow{short, boot(9_000_000)}, baseline, 0.25, nil)
	if err == nil || !strings.Contains(err.Error(), "boot/artifact-json") {
		t.Errorf("boot row 47%% over its baseline passed the 25%% guard: %v", err)
	}
}
