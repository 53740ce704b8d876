package automaton_test

import (
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/hospital"
)

func TestCoverageCountsVisits(t *testing.T) {
	p, err := hospital.ClinicalTrial()
	if err != nil {
		t.Fatal(err)
	}
	d := compileProcess(t, p, nil)

	cov := automaton.NewCoverage(d)
	empty := cov.Report()
	if empty.States != 0 || empty.Edges != 0 {
		t.Fatalf("fresh coverage not empty: %+v", empty)
	}
	if empty.StatesTotal != d.NumStates() {
		t.Fatalf("states_total = %d, want %d", empty.StatesTotal, d.NumStates())
	}
	if empty.EdgesTotal <= 0 || empty.EdgesTotal >= len(d.Delta) {
		t.Fatalf("edges_total = %d out of %d delta cells: want the non-Reject subset",
			empty.EdgesTotal, len(d.Delta))
	}

	// Replay the linear happy path, marking states and edges the way
	// the checker's compiled replay step does.
	state := d.Start
	cov.VisitState(state)
	for _, task := range []string{"T91", "T92", "T93", "T94", "T95"} {
		sym, ok := d.SymbolFor(task, "Physician", false)
		if !ok {
			t.Fatalf("no symbol for %s", task)
		}
		next := d.Step(state, sym)
		if next == automaton.Reject {
			t.Fatalf("%s rejected", task)
		}
		cov.VisitEdge(state, sym)
		cov.VisitState(next)
		state = next
	}

	r := cov.Report()
	if r.States != 6 {
		t.Fatalf("states covered = %d, want 6 (linear 5-task path)", r.States)
	}
	if r.Edges != 5 {
		t.Fatalf("edges covered = %d, want 5", r.Edges)
	}
	if r.States > r.StatesTotal || r.Edges > r.EdgesTotal {
		t.Fatalf("covered exceeds total: %+v", r)
	}
	if r.StatePct() <= 0 || r.StatePct() > 100 || r.EdgePct() <= 0 || r.EdgePct() > 100 {
		t.Fatalf("percentages out of range: %+v", r)
	}
	if r.Purpose != p.Name || r.Fingerprint != d.Fingerprint {
		t.Fatalf("report identity mismatch: %+v", r)
	}
	if !strings.Contains(r.String(), "states 6/") {
		t.Fatalf("String() = %q", r.String())
	}

	// Marking the same state and edge again must not double-count.
	cov.VisitState(d.Start)
	if again := cov.Report(); again.States != r.States || again.Edges != r.Edges {
		t.Fatalf("re-visit changed counts: %+v vs %+v", again, r)
	}

	// Out-of-range hooks are ignored, never panic.
	cov.VisitState(-1)
	cov.VisitState(int32(d.NumStates()))
	cov.VisitEdge(-1, 0)
	cov.VisitEdge(int32(d.NumStates()), 9999)
}

func TestCoverageSetPerDFA(t *testing.T) {
	p, err := hospital.ClinicalTrial()
	if err != nil {
		t.Fatal(err)
	}
	dense := compileProcess(t, p, nil)
	strict := compileProcess(t, p, func(in *automaton.Input) { in.StrictFailureTask = true })

	set := automaton.NewCoverageSet()
	if set.For(dense) != set.For(dense) {
		t.Fatal("For not stable for the same DFA")
	}
	set.For(dense).VisitState(dense.Start)
	set.For(strict).VisitState(strict.Start)

	reports := set.Reports()
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want one per DFA", len(reports))
	}
	for _, r := range reports {
		if r.States != 1 {
			t.Fatalf("start-only coverage shows %d states: %+v", r.States, r)
		}
	}
	if reports[0].Fingerprint == reports[1].Fingerprint {
		t.Fatal("dense and strict automata share a coverage report")
	}
}
