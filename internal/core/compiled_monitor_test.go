package core_test

// Online-monitor and snapshot equivalence for the compiled fast path:
// Feed/Peek/Enabled/Status must agree with the interpreter entry by
// entry, and checkpoints must resume under either engine (DESIGN.md
// §11: snapshots are engine-neutral).

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/hospital"
	"repro/internal/loan"
)

func normalizeStatus(in []core.CaseStatus) []core.CaseStatus {
	out := append([]core.CaseStatus(nil), in...)
	for i := range out {
		out[i].Engine = ""
	}
	return out
}

func sortedOffers(in []core.Offer) []core.Offer {
	out := append([]core.Offer(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		return !out[i].Active && out[j].Active
	})
	return out
}

// normalizeVerdict strips the engine marker so verdicts from the two
// engines can be compared field by field — Explanation included, which
// must be byte-identical across engines.
func normalizeVerdict(v *core.Verdict) *core.Verdict {
	cp := *v
	cp.Engine = ""
	return &cp
}

func TestCompiledMonitorEquivalence(t *testing.T) {
	reg, roles := hospitalRegistry(t)
	trail, err := hospital.Trail()
	if err != nil {
		t.Fatal(err)
	}
	p := newEnginePair(t, reg, roles)
	mi := core.NewMonitor(p.interp)
	mc := core.NewMonitor(p.compiled)

	for i, e := range trail.Entries() {
		pi, err := mi.Peek(e)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := mc.Peek(e)
		if err != nil {
			t.Fatal(err)
		}
		if pi != pc {
			t.Fatalf("entry %d (%s): Peek %v vs %v", i, e.Task, pi, pc)
		}
		vi, err := mi.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		vc, err := mc.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeVerdict(vi), normalizeVerdict(vc)) {
			t.Fatalf("entry %d (%s) verdicts diverge:\ninterpreted: %+v\ncompiled:    %+v", i, e.Task, vi, vc)
		}
		oi, err := mi.Enabled(e.Case)
		if err != nil {
			t.Fatal(err)
		}
		oc, err := mc.Enabled(e.Case)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedOffers(oi), sortedOffers(oc)) {
			t.Fatalf("entry %d (%s) worklists diverge:\ninterpreted: %+v\ncompiled:    %+v", i, e.Task, oi, oc)
		}
	}

	si, err := mi.Status()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := mc.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeStatus(si), normalizeStatus(sc)) {
		t.Fatalf("status diverges:\ninterpreted: %+v\ncompiled:    %+v", si, sc)
	}
	for _, cs := range sc {
		if !cs.Deviated && cs.Engine != core.EngineCompiled {
			t.Fatalf("live case %s on engine %q", cs.Case, cs.Engine)
		}
	}
}

// TestCompiledSnapshotCrossEngineResume checkpoints a monitor mid-trail
// under one engine and resumes it under the other, in both directions;
// the verdicts and final statuses must match an uninterrupted run.
func TestCompiledSnapshotCrossEngineResume(t *testing.T) {
	reg, roles := loanRegistry(t)
	entries := loan.Trail().Entries()
	half := len(entries) / 2

	run := func(first, second *core.Checker) []core.CaseStatus {
		t.Helper()
		m1 := core.NewMonitor(first)
		for _, e := range entries[:half] {
			if _, err := m1.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := m1.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		m2, err := core.RestoreMonitor(second, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries[half:] {
			if _, err := m2.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		st, err := m2.Status()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	p := newEnginePair(t, reg, roles)
	baseline := run(p.interp.Clone(), p.interp.Clone())
	compiledToInterp := run(p.compiled.Clone(), p.interp.Clone())
	interpToCompiled := run(p.interp.Clone(), p.compiled.Clone())
	compiledToCompiled := run(p.compiled.Clone(), p.compiled.Clone())

	for name, got := range map[string][]core.CaseStatus{
		"compiled->interpreted": compiledToInterp,
		"interpreted->compiled": interpToCompiled,
		"compiled->compiled":    compiledToCompiled,
	} {
		if !reflect.DeepEqual(normalizeStatus(baseline), normalizeStatus(got)) {
			t.Fatalf("%s resume diverges:\nbaseline: %+v\ngot:      %+v", name, baseline, got)
		}
	}
	// Restoring under the compiled engine must actually promote the
	// live cases onto the automaton.
	for _, cs := range interpToCompiled {
		if !cs.Deviated && cs.Engine != core.EngineCompiled {
			t.Fatalf("case %s restored to engine %q, want compiled", cs.Case, cs.Engine)
		}
	}
}

// TestCompiledSnapshotDeadCases makes sure violation-dead and sticky
// verdict behavior survives a compiled checkpoint.
func TestCompiledSnapshotDeadCases(t *testing.T) {
	reg, roles := loanRegistry(t)
	p := newEnginePair(t, reg, roles)
	mc := core.NewMonitor(p.compiled.Clone())
	bad := diffTrail("LA-66", "IntakeClerk:L01", "Underwriter:L05").Entries()
	var lastV *core.Verdict
	for _, e := range bad {
		v, err := mc.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		lastV = v
	}
	if lastV.OK || lastV.Violation == nil {
		t.Fatalf("expected violation, got %+v", lastV)
	}
	var buf bytes.Buffer
	if err := mc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := core.RestoreMonitor(p.interp.Clone(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m2.Feed(diffEntry(9, "Underwriter", "L05", "LA-66"))
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Violation == nil {
		t.Fatalf("dead case revived after cross-engine restore: %+v", v)
	}
}

// TestPeekUnseenCaseStoresNothing: Peek answers for a case the monitor
// has never seen without starting it, on both engines: Status does not
// list the case and State does not export it.
func TestPeekUnseenCaseStoresNothing(t *testing.T) {
	reg, roles := hospitalRegistry(t)
	trail, err := hospital.Trail()
	if err != nil {
		t.Fatal(err)
	}
	p := newEnginePair(t, reg, roles)
	first := trail.Entries()[0]
	stray := first
	stray.Task = "NoSuchTask"
	for _, c := range []*core.Checker{p.interp, p.compiled} {
		m := core.NewMonitor(c)
		for _, peek := range []struct {
			e    audit.Entry
			want bool
		}{{first, true}, {stray, false}} {
			if ok, err := m.Peek(peek.e); err != nil || ok != peek.want {
				t.Fatalf("UseCompiled=%v: Peek(%s) = %v, %v; want %v", c.UseCompiled, peek.e.Task, ok, err, peek.want)
			}
		}
		sts, err := m.Status()
		if err != nil {
			t.Fatal(err)
		}
		if len(sts) != 0 || len(m.State().Cases) != 0 {
			t.Errorf("UseCompiled=%v: Peek started case %s: status %+v, state %+v", c.UseCompiled, first.Case, sts, m.State().Cases)
		}
	}
}

// TestEnabledUnseenCaseStoresNothing: Enabled on a case the monitor has
// never seen offers what a watched case offers, on both engines, and
// leaves the case unregistered.
func TestEnabledUnseenCaseStoresNothing(t *testing.T) {
	reg, roles := hospitalRegistry(t)
	trail, err := hospital.Trail()
	if err != nil {
		t.Fatal(err)
	}
	caseID := trail.Entries()[0].Case
	p := newEnginePair(t, reg, roles)
	for _, c := range []*core.Checker{p.interp, p.compiled} {
		watched := core.NewMonitor(c)
		if err := watched.Watch(caseID); err != nil {
			t.Fatal(err)
		}
		want, err := watched.Enabled(caseID)
		if err != nil || len(want) == 0 {
			t.Fatalf("UseCompiled=%v: watched Enabled = %v, %v", c.UseCompiled, want, err)
		}
		m := core.NewMonitor(c)
		got, err := m.Enabled(caseID)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("UseCompiled=%v: unseen Enabled = %v, %v; want %v", c.UseCompiled, got, err, want)
		}
		sts, err := m.Status()
		if err != nil {
			t.Fatal(err)
		}
		if len(sts) != 0 || len(m.State().Cases) != 0 {
			t.Errorf("UseCompiled=%v: Enabled started case %s: status %+v, state %+v", c.UseCompiled, caseID, sts, m.State().Cases)
		}
	}
}
