package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/bpmn"
	"repro/internal/policy"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// skipPatterns are the task sequences the golden trail's cases cycle
// through: complete, one gap (downgraded at -skips 1), two gaps (still
// an infringement at -skips 1), pending, a leading gap, and a task
// after the process ended (no skip explains it).
var skipPatterns = [][]string{
	{"T_a", "T_b", "T_c"},
	{"T_a", "T_c"},
	{"T_c"},
	{"T_a", "T_b"},
	{"T_b", "T_c"},
	{"T_a", "T_b", "T_c", "T_a"},
}

// writeSkipsFixture writes a three-task intake process and an
// interleaved 30-case trail (plus one case whose code names no
// purpose), returning the -proc spec and the trail path.
func writeSkipsFixture(t *testing.T, dir string) (string, string) {
	t.Helper()
	proc := bpmn.NewBuilder("Intake").Pool("P").
		Start("S", "P").Task("T_a", "P", "").Task("T_b", "P", "").Task("T_c", "P", "").End("E", "P").
		Seq("S", "T_a", "T_b", "T_c", "E").MustBuild()
	procPath := filepath.Join(dir, "intake.json")
	pf, err := os.Create(procPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.EncodeJSON(pf); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	const cases = 30
	t0 := time.Date(2026, 5, 1, 9, 0, 0, 0, time.UTC)
	var entries []audit.Entry
	for i := 0; i < cases; i++ {
		for k, task := range skipPatterns[i%len(skipPatterns)] {
			entries = append(entries, audit.Entry{
				User: fmt.Sprintf("u%d", i%4), Role: "P", Action: "read",
				Object: policy.MustParseObject(fmt.Sprintf("[S%d]Doc", i%3)),
				Task:   task, Case: fmt.Sprintf("IN-%d", i+1),
				Time:   t0.Add(time.Duration(k*cases+i) * time.Minute),
				Status: audit.Success,
			})
		}
	}
	entries = append(entries, audit.Entry{
		User: "u9", Role: "P", Action: "read", Object: policy.MustParseObject("[S1]Doc"),
		Task: "T_a", Case: "ZZ-1", Time: t0.Add(7 * time.Minute), Status: audit.Success,
	})
	trailPath := filepath.Join(dir, "trail.csv")
	tf, err := os.Create(trailPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := audit.WriteCSV(tf, audit.NewTrail(entries)); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	return procPath + ":IN", trailPath
}

// TestRunSkipsGolden pins the -skips re-examination output, byte for
// byte, over a multi-case trail: downgraded cases, infringements a
// budget cannot explain, an unknown purpose, per-object investigation.
func TestRunSkipsGolden(t *testing.T) {
	dir := t.TempDir()
	procSpec, trailPath := writeSkipsFixture(t, dir)
	runs := []struct {
		name string
		o    options
	}{
		{"skips 1, verbose, explain", options{skips: 1, verbose: true, explain: true}},
		{"skips 1, object [S1]Doc", options{skips: 1, object: "[S1]Doc"}},
		{"skips 2", options{skips: 2}},
		{"no skips", options{}},
	}
	var got strings.Builder
	for _, r := range runs {
		r.o.procs, r.o.trail = []string{procSpec}, trailPath
		fmt.Fprintf(&got, "== %s\n", r.name)
		s, err := run(&got, r.o)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&got, "summary %+v\n", s)
	}
	golden := filepath.Join("testdata", "skips_audit.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("output differs from %s:\n%s", golden, got.String())
	}
}
