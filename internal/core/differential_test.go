package core_test

// Differential tests for the compiled fast path (DESIGN.md §11): the
// table-driven automaton and the Algorithm 1 interpreter must return
// identical verdicts on every workload — the paper's examples, the
// loan-origination scenario, generated populations with injected
// violations, and adversarial random trails. Run under -race in CI.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/hospital"
	"repro/internal/loan"
	"repro/internal/policy"
	"repro/internal/workload"
)

// enginePair is an interpreter checker and a compiled clone sharing one
// warm runtime.
type enginePair struct {
	interp   *core.Checker
	compiled *core.Checker
}

func newEnginePair(t testing.TB, reg *core.Registry, roles *policy.RoleHierarchy) enginePair {
	t.Helper()
	interp := core.NewChecker(reg, roles)
	compiled := interp.Clone()
	compiled.UseCompiled = true
	return enginePair{interp: interp, compiled: compiled}
}

func hospitalRegistry(t testing.TB) (*core.Registry, *policy.RoleHierarchy) {
	t.Helper()
	treatment, err := hospital.Treatment()
	if err != nil {
		t.Fatal(err)
	}
	trial, err := hospital.ClinicalTrial()
	if err != nil {
		t.Fatal(err)
	}
	roles, err := hospital.Roles()
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	if _, err := reg.Register(treatment, hospital.TreatmentCode); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(trial, hospital.TrialCode); err != nil {
		t.Fatal(err)
	}
	return reg, roles
}

func loanRegistry(t testing.TB) (*core.Registry, *policy.RoleHierarchy) {
	t.Helper()
	proc, err := loan.Process()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := loan.Policy()
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	if _, err := reg.Register(proc, loan.Code); err != nil {
		t.Fatal(err)
	}
	return reg, pol.Roles
}

// normalizeEngine strips the engine markers so reports from the two
// engines can be compared field by field.
func normalizeEngine(rep *core.Report) *core.Report {
	cp := *rep
	cp.Engine = ""
	cp.EngineFallback = ""
	return &cp
}

// requireSameReports replays the trail through both engines and
// requires identical reports; the compiled run must really have used
// the automaton.
func requireSameReports(t *testing.T, p enginePair, trail *audit.Trail) {
	t.Helper()
	want, err := p.interp.CheckTrail(trail)
	if err != nil {
		t.Fatalf("interpreted: %v", err)
	}
	got, err := p.compiled.CheckTrail(trail)
	if err != nil {
		t.Fatalf("compiled: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("report counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if got[i].Engine != core.EngineCompiled {
			t.Fatalf("case %s: engine %q (fallback %q), want compiled",
				got[i].Case, got[i].Engine, got[i].EngineFallback)
		}
		if !reflect.DeepEqual(normalizeEngine(want[i]), normalizeEngine(got[i])) {
			t.Fatalf("case %s diverges:\ninterpreted: %+v\n   violation: %+v\ncompiled:    %+v\n   violation: %+v",
				want[i].Case, want[i], want[i].Violation, got[i], got[i].Violation)
		}
	}
}

func TestDifferentialHospitalFigure4(t *testing.T) {
	reg, roles := hospitalRegistry(t)
	trail, err := hospital.Trail()
	if err != nil {
		t.Fatal(err)
	}
	p := newEnginePair(t, reg, roles)
	requireSameReports(t, p, trail)

	// The paper's verdicts survive the fast path: HT-11 (re-purposing)
	// violates, HT-1 complies.
	rep, err := p.compiled.CheckCase(trail, "HT-11")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant || rep.Engine != core.EngineCompiled {
		t.Fatalf("HT-11: %s (engine %s)", rep, rep.Engine)
	}
}

func TestDifferentialLoanOrigination(t *testing.T) {
	reg, roles := loanRegistry(t)
	p := newEnginePair(t, reg, roles)
	requireSameReports(t, p, loan.Trail())
}

// diffEntry builds one synthetic trail entry; "!" before the task marks
// a failure entry.
func diffEntry(seq int, role, task, caseID string) audit.Entry {
	e := audit.Entry{
		User: "u", Role: role, Action: "read",
		Object: policy.MustParseObject("[K]EPR"),
		Task:   task, Case: caseID,
		Time:   time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Minute),
		Status: audit.Success,
	}
	if strings.HasPrefix(task, "!") {
		e.Task = strings.TrimPrefix(task, "!")
		e.Status = audit.Failure
	}
	return e
}

// diffTrail builds a one-case trail from role:task steps.
func diffTrail(caseID string, steps ...string) *audit.Trail {
	var entries []audit.Entry
	for i, s := range steps {
		role, task, _ := strings.Cut(s, ":")
		entries = append(entries, diffEntry(i, role, task, caseID))
	}
	return audit.NewTrail(entries)
}

func TestDifferentialLoanFailurePaths(t *testing.T) {
	reg, roles := loanRegistry(t)
	p := newEnginePair(t, reg, roles)
	trails := []*audit.Trail{
		// Failure of L02 routes to L02b and back to intake.
		diffTrail("LA-20", "IntakeClerk:L01", "CreditAnalyst:L02", "CreditAnalyst:!L02",
			"CreditAnalyst:L02b", "IntakeClerk:L01", "CreditAnalyst:L02"),
		// Unhandled failure of L01.
		diffTrail("LA-21", "IntakeClerk:L01", "IntakeClerk:!L01"),
		// OR join: both branches, one branch, wrong order.
		diffTrail("LA-22", "IntakeClerk:L01", "CreditAnalyst:L02",
			"Underwriter:L03", "Underwriter:L04", "Underwriter:L05"),
		diffTrail("LA-23", "IntakeClerk:L01", "CreditAnalyst:L02",
			"Underwriter:L04", "Underwriter:L05"),
		diffTrail("LA-24", "IntakeClerk:L01", "CreditAnalyst:L02", "Underwriter:L05"),
		// Role violations: a BankStaff generalization may not do L02.
		diffTrail("LA-25", "IntakeClerk:L01", "BankStaff:L02"),
		diffTrail("LA-26", "IntakeClerk:L01", "Nobody:L02"),
		// Unknown task and empty trail.
		diffTrail("LA-27", "IntakeClerk:L99"),
		audit.NewTrail(nil),
	}
	for _, trail := range trails {
		requireSameReports(t, p, trail)
	}
}

func TestDifferentialStrictnessAndAbsorption(t *testing.T) {
	reg, roles := loanRegistry(t)
	for _, mode := range []struct {
		name             string
		strict, noAbsorb bool
	}{
		{"lenient-failure", false, false},
		{"no-absorption", true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			p := newEnginePair(t, reg, roles)
			p.interp.StrictFailureTask = mode.strict
			p.interp.DisableAbsorption = mode.noAbsorb
			p.compiled.StrictFailureTask = mode.strict
			p.compiled.DisableAbsorption = mode.noAbsorb
			requireSameReports(t, p, diffTrail("LA-30",
				"IntakeClerk:L01", "CreditAnalyst:L02", "CreditAnalyst:!L01"))
			requireSameReports(t, p, diffTrail("LA-31",
				"IntakeClerk:L01", "IntakeClerk:L01", "CreditAnalyst:L02"))
			requireSameReports(t, p, loan.Trail())
		})
	}
}

func TestDifferentialGeneratedPopulation(t *testing.T) {
	reg, roles := hospitalRegistry(t)
	trail, err := workload.ManyCases(reg, hospital.TreatmentCode, 48, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := newEnginePair(t, reg, roles)

	// Parallel replay through both engines must agree case by case —
	// this is the -race exercise of the shared compiled slot.
	want, err := p.interp.CheckTrailParallel(trail, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.compiled.CheckTrailParallel(trail, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Engine != core.EngineCompiled {
			t.Fatalf("case %s ran on %q (%s)", got[i].Case, got[i].Engine, got[i].EngineFallback)
		}
		if !reflect.DeepEqual(normalizeEngine(want[i]), normalizeEngine(got[i])) {
			t.Fatalf("case %s diverges:\n%+v\n%+v", want[i].Case, want[i], got[i])
		}
	}

	// Injected violations must divide the engines identically too.
	inj := workload.NewInjector(11)
	entries := trail.Entries()
	for _, kind := range []workload.ViolationKind{
		workload.SkipTask, workload.SwapAdjacent, workload.WrongRole,
		workload.ForeignTask, workload.FakeFailure,
	} {
		mutated, ok := inj.Inject(kind, entries)
		if !ok {
			continue
		}
		requireSameReports(t, p, audit.NewTrail(mutated))
	}
}

// TestDifferentialRandomTrails throws seeded random trails — valid
// tasks, garbage tasks, wrong roles, failures, random interleavings —
// at both engines.
func TestDifferentialRandomTrails(t *testing.T) {
	reg, roles := hospitalRegistry(t)
	p := newEnginePair(t, reg, roles)
	tasks := []string{"T01", "T02", "T03", "T04", "T05", "T06", "T07", "T08", "T09",
		"T10", "T11", "T12", "T13", "T14", "T15", "T91", "T92", "T93", "Zed", ""}
	rolesList := []string{"GP", "Cardiologist", "Radiologist", "MedicalLabTech",
		"Physician", "MedicalTech", "Janitor", ""}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		caseID := fmt.Sprintf("HT-%d", 1000+i)
		n := rng.Intn(12)
		var entries []audit.Entry
		for j := 0; j < n; j++ {
			task := tasks[rng.Intn(len(tasks))]
			if rng.Intn(8) == 0 {
				task = "!" + task
			}
			entries = append(entries, diffEntry(j, rolesList[rng.Intn(len(rolesList))], task, caseID))
		}
		requireSameReports(t, p, audit.NewTrail(entries))
	}
}

func TestCompiledFallbackRecordsCause(t *testing.T) {
	reg, roles := loanRegistry(t)
	c := core.NewChecker(reg, roles)
	c.UseCompiled = true
	c.MaxAutomatonStates = 2 // force subset construction over budget

	if _, err := c.EnsureCompiled(loan.PurposeName); !core.IsNotCompilable(err) {
		t.Fatalf("EnsureCompiled err = %v, want not-compilable", err)
	}
	if _, err := c.CompiledStatus(loan.PurposeName); err == nil {
		t.Fatal("CompiledStatus reported an automaton after a failed compile")
	}

	rep, err := c.CheckCase(loan.Trail(), "LA-1")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant || rep.Engine != core.EngineInterpreted || rep.EngineFallback == "" {
		t.Fatalf("fallback report: %+v", rep)
	}

	// The interpreter-only verdicts equal an unconstrained checker's.
	plain := core.NewChecker(reg, roles)
	want, err := plain.CheckTrail(loan.Trail())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.CheckTrail(loan.Trail())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], normalizeEngine(got[i])) {
			t.Fatalf("fallback diverges on %s", want[i].Case)
		}
	}
}

func TestCompiledFlagMismatchFallsBack(t *testing.T) {
	reg, roles := loanRegistry(t)
	c := core.NewChecker(reg, roles)
	c.UseCompiled = true
	if _, err := c.EnsureCompiled(loan.PurposeName); err != nil {
		t.Fatal(err)
	}
	// A clone flips a semantic flag: it must not reuse the automaton.
	c2 := c.Clone()
	c2.StrictFailureTask = false
	rep, err := c2.CheckCase(loan.Trail(), "LA-1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != core.EngineInterpreted || !strings.Contains(rep.EngineFallback, "flags") {
		t.Fatalf("flag mismatch not recorded: engine=%q fallback=%q", rep.Engine, rep.EngineFallback)
	}
	// The original still rides the automaton.
	rep, err = c.CheckCase(loan.Trail(), "LA-1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != core.EngineCompiled {
		t.Fatalf("original lost the fast path: %+v", rep)
	}
}
