package automaton_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/bpmn"
	"repro/internal/encode"
	"repro/internal/hospital"
)

// compileInput assembles an Input from a BPMN process the same
// way core.Checker does and compiles it.
func compileInput(t *testing.T, p *bpmn.Process, mut func(*automaton.Input)) automaton.Input {
	t.Helper()
	initial, err := encode.Encode(p)
	if err != nil {
		t.Fatalf("encode %s: %v", p.Name, err)
	}
	roles, err := hospital.Roles()
	if err != nil {
		t.Fatalf("roles: %v", err)
	}
	in := automaton.Input{
		Purpose:    p.Name,
		Initial:    initial,
		Observable: encode.Observability(p),
		Roles:      roles,
	}
	for _, task := range p.Tasks() {
		in.Tasks = append(in.Tasks, automaton.TaskSpec{Name: task, Role: p.TaskRole(task)})
	}
	if mut != nil {
		mut(&in)
	}
	return in
}

func compileProcess(t *testing.T, p *bpmn.Process, mut func(*automaton.Input)) *automaton.DFA {
	t.Helper()
	d, err := automaton.Compile(compileInput(t, p, mut))
	if err != nil {
		t.Fatalf("compile %s: %v", p.Name, err)
	}
	return d
}

// step replays one successful task entry and fails the test on reject.
func step(t *testing.T, d *automaton.DFA, state int32, role, task string) int32 {
	t.Helper()
	sym, ok := d.SymbolFor(task, role, false)
	if !ok {
		t.Fatalf("no symbol for %s by %s", task, role)
	}
	next := d.Step(state, sym)
	if next == automaton.Reject {
		t.Fatalf("entry %s by %s rejected in state %d (expected %v)",
			task, role, state, d.States[state].Expected)
	}
	return next
}

func TestCompileClinicalTrial(t *testing.T) {
	p, err := hospital.ClinicalTrial()
	if err != nil {
		t.Fatal(err)
	}
	d := compileProcess(t, p, nil)

	if d.Start != 0 || d.NumStates() < 6 {
		t.Fatalf("unexpected shape: start=%d states=%d", d.Start, d.NumStates())
	}
	state := d.Start
	for i, task := range []string{"T91", "T92", "T93", "T94", "T95"} {
		if d.States[state].CanComplete && i < 5 {
			t.Fatalf("state before %s should not be accepting", task)
		}
		state = step(t, d, state, "Physician", task)
	}
	if !d.States[state].CanComplete {
		t.Fatalf("final state after T95 not accepting: %+v", d.States[state])
	}

	// Out-of-order entry: T93 before T91 must reject.
	sym, ok := d.SymbolFor("T93", "Physician", false)
	if !ok {
		t.Fatal("no symbol for T93")
	}
	if d.Step(d.Start, sym) != automaton.Reject {
		t.Fatal("T93 accepted from the start state")
	}

	// Unknown task never gets a symbol (interpreter: violation).
	if _, ok := d.SymbolFor("T99", "Physician", false); ok {
		t.Fatal("symbol assigned to task outside the process")
	}
}

func TestRoleHierarchyClasses(t *testing.T) {
	p, err := hospital.ClinicalTrial()
	if err != nil {
		t.Fatal(err)
	}
	d := compileProcess(t, p, nil)

	// Cardiologist specializes Physician (Section 3.2): it shares the
	// Physician pool's class bit, so it may perform T91.
	state := step(t, d, d.Start, "Cardiologist", "T91")
	if state == automaton.Reject {
		t.Fatal("specializing role rejected")
	}
	// An unknown role falls into the zero class and must reject.
	sym, ok := d.SymbolFor("T91", "Janitor", false)
	if ok {
		if d.Step(d.Start, sym) != automaton.Reject {
			t.Fatal("unknown role accepted for T91")
		}
	}
	if d.ClassOf("Janitor") != d.ZeroClass {
		t.Fatalf("unknown role class = %d, want zero class %d", d.ClassOf("Janitor"), d.ZeroClass)
	}
}

func TestCompileTreatment(t *testing.T) {
	p, err := hospital.Treatment()
	if err != nil {
		t.Fatal(err)
	}
	d := compileProcess(t, p, nil)
	st := d.Stats()
	if st.States < 10 || st.Configs < 10 {
		t.Fatalf("treatment automaton suspiciously small: %+v", st)
	}
	if !strings.Contains(st.String(), "states") {
		t.Fatalf("stats string: %q", st.String())
	}
	// The start state offers T01 (GP) but no active tasks yet.
	s0 := d.States[d.Start]
	if len(s0.ActiveTasks) != 0 {
		t.Fatalf("start state has active tasks: %v", s0.ActiveTasks)
	}
	found := false
	for _, o := range s0.Fire {
		if o.Task == "T01" && o.Role == "GP" {
			found = true
		}
	}
	if !found {
		t.Fatalf("start state does not offer T01/GP: %+v", s0.Fire)
	}
}

func TestFingerprintStability(t *testing.T) {
	p, err := hospital.Treatment()
	if err != nil {
		t.Fatal(err)
	}
	in := compileInput(t, p, nil)
	fp1 := automaton.Fingerprint(in)
	fp2 := automaton.Fingerprint(in)
	if fp1 != fp2 || len(fp1) != 64 {
		t.Fatalf("fingerprint unstable: %q vs %q", fp1, fp2)
	}
	d, err := automaton.Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	if d.Fingerprint != fp1 {
		t.Fatalf("compiled fingerprint %q != precomputed %q", d.Fingerprint, fp1)
	}
	strict := in
	strict.StrictFailureTask = true
	if automaton.Fingerprint(strict) == fp1 {
		t.Fatal("strict flag does not change the fingerprint")
	}
	capped := in
	capped.MaxConfigurations = 7
	if automaton.Fingerprint(capped) == fp1 {
		t.Fatal("MaxConfigurations does not change the fingerprint")
	}
}

func TestNotCompilableBudgets(t *testing.T) {
	p, err := hospital.Treatment()
	if err != nil {
		t.Fatal(err)
	}
	_, err = automaton.Compile(compileInput(t, p, func(in *automaton.Input) {
		in.MaxStates = 2
	}))
	if !errors.Is(err, automaton.ErrNotCompilable) {
		t.Fatalf("MaxStates=2: err = %v, want ErrNotCompilable", err)
	}
	_, err = automaton.Compile(compileInput(t, p, func(in *automaton.Input) {
		in.MaxSilentDepth = 1
	}))
	if !errors.Is(err, automaton.ErrNotCompilable) {
		t.Fatalf("MaxSilentDepth=1: err = %v, want ErrNotCompilable", err)
	}
}

func TestSnapshotLookups(t *testing.T) {
	p, err := hospital.ClinicalTrial()
	if err != nil {
		t.Fatal(err)
	}
	d := compileProcess(t, p, nil)
	state := step(t, d, d.Start, "Physician", "T91")
	members := d.States[state].Members
	if len(members) == 0 {
		t.Fatal("state has no members")
	}
	var ids []int32
	for _, m := range members {
		term, active := d.MemberConfig(m)
		id, ok := d.ConfigID(term, active)
		if !ok {
			t.Fatalf("config %d does not round-trip", m)
		}
		ids = append(ids, id)
	}
	got, ok := d.StateOf(ids)
	if !ok || got != state {
		t.Fatalf("StateOf(members) = %d,%v want %d", got, ok, state)
	}
	if _, ok := d.StateOf([]int32{}); ok {
		t.Fatal("empty member set resolved to a state")
	}
}

func TestStrictFailureSymbols(t *testing.T) {
	p, err := hospital.Treatment()
	if err != nil {
		t.Fatal(err)
	}
	lenient := compileProcess(t, p, nil)
	strict := compileProcess(t, p, func(in *automaton.Input) {
		in.StrictFailureTask = true
	})
	if lenient.NumSymbols() >= strict.NumSymbols() {
		t.Fatalf("strict mode should add failure symbols: %d vs %d",
			lenient.NumSymbols(), strict.NumSymbols())
	}
	// A failing task is trailed as its success entry followed by a
	// failure entry: reach the state after T01,T02 where the error
	// boundary (back to T01) is live.
	state := step(t, lenient, lenient.Start, "GP", "T01")
	state = step(t, lenient, state, "GP", "T02")
	sym, ok := lenient.SymbolFor("", "sys", true)
	if !ok {
		t.Fatal("no lenient failure symbol")
	}
	if lenient.Step(state, sym) == automaton.Reject {
		t.Fatalf("failure after T02 rejected (expected %v)", lenient.States[state].Expected)
	}
	// Strict: the failure of T02 has a symbol, an unrelated task's not
	// at this point.
	state = step(t, strict, strict.Start, "GP", "T01")
	state = step(t, strict, state, "GP", "T02")
	sym, ok = strict.SymbolFor("T02", "sys", true)
	if !ok {
		t.Fatal("no strict failure symbol for T02")
	}
	if strict.Step(state, sym) == automaton.Reject {
		t.Fatal("strict failure of T02 rejected")
	}
	sym, ok = strict.SymbolFor("T05", "sys", true)
	if ok && strict.Step(state, sym) != automaton.Reject {
		t.Fatal("strict failure of T05 accepted after T02")
	}
}
