package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hospital"
)

func TestRunCOWSSource(t *testing.T) {
	if err := run(`P.T!<> | P.T?<>.P.E!<> | P.E?<>`, "", "", "", "", 5, 100, 10, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunBuiltinWithDOT(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "ct.dot")
	if err := run("", "", "clinicaltrial", dot, "", 2, 1000, 20, false, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "T91", "T95"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestRunTreatmentBudget(t *testing.T) {
	// The treatment process's observable LTS is finite; exploration
	// with a generous budget must complete without error.
	if err := run("", "", "treatment", "", "", 0, 3000, 10, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunProcFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	spec := `{
	  "name": "Mini", "pools": ["P"],
	  "elements": [
	    {"id":"S","kind":"start","pool":"P"},
	    {"id":"T1","kind":"task","pool":"P"},
	    {"id":"E","kind":"end","pool":"P"}
	  ],
	  "flows": [
	    {"from":"S","to":"T1","kind":"sequence"},
	    {"from":"T1","to":"E","kind":"sequence"}
	  ]
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", path, "", "", "", 1, 100, 10, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []func() error{
		func() error { return run("", "", "", "", "", 0, 100, 10, false, "") },    // nothing given
		func() error { return run("P.!", "", "", "", "", 0, 100, 10, false, "") }, // bad COWS
		func() error { return run("", "missing.json", "", "", "", 0, 100, 10, false, "") },
		func() error { return run("", "", "nope", "", "", 0, 100, 10, false, "") },
	}
	for i, f := range cases {
		if err := f(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestStatsReportsReplayAutomaton: -stats prints the automaton the
// replay engines use — the table core.Checker compiles under its
// default (strict failure) flags, with one failure symbol per task —
// not a table built under other flags. A builtin compiles under the
// hospital's role hierarchy.
func TestStatsReportsReplayAutomaton(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("", "", "treatment", "", "", 0, 3000, 10, true, "")
	})

	p, err := hospital.Treatment()
	if err != nil {
		t.Fatal(err)
	}
	roles, err := hospital.Roles()
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	reg.MustRegister(p, hospital.TreatmentCode)
	want, err := core.NewChecker(reg, roles).EnsureCompiled(p.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Strict || want.NumSymbols() != 90 {
		t.Fatalf("checker automaton: strict=%v, %d symbols; want strict, 90 symbols", want.Strict, want.NumSymbols())
	}
	if !strings.Contains(out, fmt.Sprintf("%d states × %d symbols", want.NumStates(), want.NumSymbols())) {
		t.Errorf("-stats table sizes differ from the checker's %s:\n%s", want.Stats(), out)
	}
	if !strings.Contains(out, "fingerprint: "+want.Fingerprint+"\n") {
		t.Errorf("-stats fingerprint differs from the checker's %s:\n%s", want.Fingerprint, out)
	}
}

// TestStatsBuiltinsMatchAuditd: without -policy, -stats on either
// builtin compiles under the hospital's role hierarchy, so it prints
// the fingerprint auditd -builtin hospital -compiled logs at boot: the
// checker over the hospital scenario's registry and policy roles
// (treatment f1d7074637b7…, clinical trial b3068e88af78…).
func TestStatsBuiltinsMatchAuditd(t *testing.T) {
	sc, err := hospital.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	checker := core.NewChecker(sc.Registry, sc.Policy.Roles)
	for _, tc := range []struct{ builtin, purpose, prefix string }{
		{"treatment", sc.Treatment.Name, "f1d7074637b7"},
		{"clinicaltrial", sc.Trial.Name, "b3068e88af78"},
	} {
		want, err := checker.EnsureCompiled(tc.purpose)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(want.Fingerprint, tc.prefix) {
			t.Fatalf("%s: auditd's checker fingerprints %s, want %s…", tc.purpose, want.Fingerprint, tc.prefix)
		}
		out := captureStdout(t, func() error {
			return run("", "", tc.builtin, "", "", 0, 3000, 10, true, "")
		})
		if !strings.Contains(out, "fingerprint: "+want.Fingerprint+"\n") {
			t.Errorf("-builtin %s -stats does not print auditd's fingerprint %s:\n%s", tc.builtin, want.Fingerprint, out)
		}
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	runErr := f()
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

func TestRunStatsNeedsProcess(t *testing.T) {
	if err := run(`P.T!<> | P.T?<>.P.E!<> | P.E?<>`, "", "", "", "", 0, 100, 10, true, ""); err == nil {
		t.Fatal("-stats on a raw COWS service should fail (no task alphabet)")
	}
}
