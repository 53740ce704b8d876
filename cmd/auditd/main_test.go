package main

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hospital"
)

// TestSetupCompiledBoot: -compiled boot compiles every hospital purpose
// in process and logs each automaton, so every purpose replays on the
// compiled engine.
func TestSetupCompiledBoot(t *testing.T) {
	reg, roles, err := buildRegistry("hospital", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	c := core.NewChecker(reg, roles)
	setupCompiled(slog.New(slog.NewTextHandler(&logs, nil)), c, reg)

	if !c.UseCompiled {
		t.Fatal("setupCompiled left UseCompiled off")
	}
	for _, name := range reg.Purposes() {
		st, err := c.CompiledStatus(name)
		if err != nil {
			t.Fatalf("purpose %s: CompiledStatus = %v, want a compiled automaton", name, err)
		}
		if st.States == 0 {
			t.Errorf("purpose %s: compiled automaton has no states", name)
		}
		if !strings.Contains(logs.String(), `msg="automaton compiled" purpose=`+name) {
			t.Errorf("purpose %s: no \"automaton compiled\" line in\n%s", name, logs.String())
		}
	}
	if strings.Contains(logs.String(), "stays interpreted") {
		t.Errorf("a hospital purpose fell back to the interpreter:\n%s", logs.String())
	}
}

// TestSetupCompiledFallback: a purpose that cannot compile within its
// state budget stays interpreted with the cause logged, and boot goes
// on — the checker still renders every verdict.
func TestSetupCompiledFallback(t *testing.T) {
	sc, err := hospital.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	c := core.NewChecker(sc.Registry, sc.Policy.Roles)
	c.MaxAutomatonStates = 2
	setupCompiled(slog.New(slog.NewTextHandler(&logs, nil)), c, sc.Registry)

	for _, name := range sc.Registry.Purposes() {
		if _, err := c.CompiledStatus(name); !core.IsNotCompilable(err) {
			t.Errorf("purpose %s: CompiledStatus = %v, want not-compilable", name, err)
		}
		if !strings.Contains(logs.String(), `msg="purpose stays interpreted" purpose=`+name+" cause=") {
			t.Errorf("purpose %s: fallback and cause not logged in\n%s", name, logs.String())
		}
	}
	if strings.Contains(logs.String(), "automaton compiled") {
		t.Errorf("a purpose compiled past a 2-state budget:\n%s", logs.String())
	}
	reps, err := c.CheckTrail(sc.Trail)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) == 0 {
		t.Fatal("no reports after a fallback boot")
	}
	for _, r := range reps {
		if r.Engine != core.EngineInterpreted || r.EngineFallback == "" {
			t.Errorf("case %s: engine %q fallback %q, want the interpreter with a recorded cause", r.Case, r.Engine, r.EngineFallback)
		}
	}
}
