package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/bpmn"
)

// orProc is the inclusive-gateway process of TestCheckORSubsets: after
// T1 fires the checker must track ≥2 configurations ({T1} chosen vs
// {T1,T2} chosen), which makes it the minimal fixture for the
// configuration-cap indeterminacy path.
func orProc(t *testing.T) *bpmn.Process {
	t.Helper()
	return bpmn.NewBuilder("Incl").Pool("P").
		Start("S", "P").OR("G", "P").
		Task("T1", "P", "").Task("T2", "P", "").
		OR("J", "P").Task("T3", "P", "").End("E", "P").
		Seq("S", "G").Seq("G", "T1", "J").Seq("G", "T2", "J").Seq("J", "T3", "E").
		PairOR("G", "J").MustBuild()
}

func TestIndeterminateConfigurationCap(t *testing.T) {
	c := newChecker(t, orProc(t), "IN", nil)
	c.MaxConfigurations = 1
	rep, err := c.CheckCase(trailOf("IN-1", "P:T1", "P:T3"), "IN-1")
	if err != nil {
		t.Fatalf("cap overflow escaped as error: %v", err)
	}
	if rep.Outcome != OutcomeIndeterminate || rep.Indeterminate == nil {
		t.Fatalf("report not indeterminate: %s", rep)
	}
	if rep.Indeterminate.Cause != CauseConfigurationCap {
		t.Errorf("cause = %v, want configuration-cap", rep.Indeterminate.Cause)
	}
	if rep.Compliant {
		t.Errorf("indeterminate report claims compliance")
	}
	if !strings.Contains(rep.String(), "INDETERMINATE") {
		t.Errorf("String() = %q", rep.String())
	}
	// Without the artificial cap the same checker config is decisive.
	c2 := newChecker(t, orProc(t), "IN", nil)
	rep2, err := c2.CheckCase(trailOf("IN-1", "P:T1", "P:T3"), "IN-1")
	if err != nil || rep2.Outcome != OutcomeCompliant {
		t.Fatalf("uncapped run: %v %s", err, rep2)
	}
}

// deepSilentProc chains silent gateways ahead of the first task so a
// tiny MaxSilentDepth trips the LTS guard before anything observable.
func deepSilentProc(t *testing.T) *bpmn.Process {
	t.Helper()
	return bpmn.NewBuilder("Deep").Pool("P").
		Start("S", "P").XOR("G1", "P").XOR("G2", "P").XOR("G3", "P").
		Task("T1", "P", "").End("E", "P").
		Seq("S", "G1", "G2", "G3", "T1", "E").MustBuild()
}

func TestIndeterminateBudgetExceeded(t *testing.T) {
	c := newChecker(t, deepSilentProc(t), "LN", nil)
	c.MaxSilentDepth = 1 // the silent gateway chain outruns this
	rep, err := c.CheckCase(trailOf("LN-1", "P:T1"), "LN-1")
	if err != nil {
		t.Fatalf("budget overflow escaped as error: %v", err)
	}
	if rep.Outcome != OutcomeIndeterminate || rep.Indeterminate == nil {
		t.Fatalf("report not indeterminate: %s", rep)
	}
	if rep.Indeterminate.Cause != CauseBudgetExceeded {
		t.Errorf("cause = %v, want budget-exceeded", rep.Indeterminate.Cause)
	}
}

func TestIndeterminateRecoveredPanic(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	c.TraceFn = func(step int, e audit.Entry, configs []*Configuration) {
		panic("instrumentation exploded")
	}
	rep, err := c.CheckCase(trailOf("LN-1", "P:T1", "P:T2", "P:T3"), "LN-1")
	if err != nil {
		t.Fatalf("panic escaped as error: %v", err)
	}
	if rep.Outcome != OutcomeIndeterminate || rep.Indeterminate == nil ||
		rep.Indeterminate.Cause != CauseRecoveredPanic {
		t.Fatalf("panic not isolated: %s", rep)
	}
	if !strings.Contains(rep.Indeterminate.Reason, "instrumentation exploded") {
		t.Errorf("reason lost the panic value: %q", rep.Indeterminate.Reason)
	}
	// The checker (and its shared caches) survive the recovered panic.
	c.TraceFn = nil
	rep, err = c.CheckCase(trailOf("LN-1", "P:T1", "P:T2", "P:T3"), "LN-1")
	if err != nil || rep.Outcome != OutcomeCompliant {
		t.Fatalf("checker unusable after recovered panic: %v %s", err, rep)
	}
}

// TestMonitorIsolatesInterpreterPanic: a panic while the interpreter
// steps a monitored case kills only that case, as an indeterminate
// verdict; the monitor keeps serving other cases.
func TestMonitorIsolatesInterpreterPanic(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	m := NewMonitor(c)
	for _, id := range []string{"LN-1", "LN-2"} {
		if err := m.Watch(id); err != nil {
			t.Fatal(err)
		}
	}
	// A nil configuration makes advance dereference nil.
	m.cases["LN-1"].run.configs = []*Configuration{nil}
	for _, id := range []string{"LN-1", "LN-2"} {
		e := trailOf(id, "P:T1").Entries()[0]
		v, err := m.Feed(e)
		if err != nil {
			t.Fatalf("%s: panic escaped as error: %v", id, err)
		}
		broken := id == "LN-1"
		if got := v.Indeterminate != nil && v.Indeterminate.Cause == CauseRecoveredPanic; got != broken || v.OK == broken {
			t.Errorf("%s: verdict %+v; want recovered panic %v", id, v, broken)
		}
	}
}

func TestCheckCaseContextCanceled(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	tr := trailOf("LN-1", "P:T1", "P:T2", "P:T3")

	// Already-canceled context: prompt return with the context error,
	// no report.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CheckCaseContext(ctx, tr, "LN-1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancel mid-replay (after the first entry) via the trace hook.
	ctx2, cancel2 := context.WithCancel(context.Background())
	c.TraceFn = func(step int, e audit.Entry, configs []*Configuration) {
		if step == 0 {
			cancel2()
		}
	}
	if _, err := c.CheckCaseContext(ctx2, tr, "LN-1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-replay err = %v, want context.Canceled", err)
	}
	c.TraceFn = nil

	// No partial-state corruption: a clean rerun on the same checker is
	// identical to a run on a never-canceled checker.
	rep, err := c.CheckCase(tr, "LN-1")
	if err != nil {
		t.Fatal(err)
	}
	fresh := newChecker(t, linearProc(t), "LN", nil)
	want, err := fresh.CheckCase(tr, "LN-1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("post-cancel report differs:\n got %+v\nwant %+v", rep, want)
	}
}

func TestCheckTrailParallelContextCanceled(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	var entries []audit.Entry
	for _, id := range []string{"LN-1", "LN-2", "LN-3", "LN-4"} {
		entries = append(entries, trailOf(id, "P:T1", "P:T2", "P:T3").Entries()...)
	}
	tr := audit.NewTrail(entries)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CheckTrailParallelContext(ctx, tr, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The same checker still works with a live context.
	reps, err := c.CheckTrailParallelContext(context.Background(), tr, 4)
	if err != nil || len(reps) != 4 {
		t.Fatalf("post-cancel parallel run: %v (%d reports)", err, len(reps))
	}
}

func TestCheckCaseWithSkipsIndeterminate(t *testing.T) {
	c := newChecker(t, orProc(t), "IN", nil)
	c.MaxConfigurations = 1
	rep, err := c.CheckCaseWithSkips(trailOf("IN-1", "P:T1", "P:T3"), "IN-1", 1)
	if err != nil {
		t.Fatalf("cap overflow escaped as error: %v", err)
	}
	if rep.Outcome != OutcomeIndeterminate || rep.Indeterminate == nil ||
		rep.Indeterminate.Cause != CauseConfigurationCap {
		t.Fatalf("skip search not indeterminate: %+v", rep)
	}
}

func TestMonitorDeadCaseSemantics(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	m := NewMonitor(c)

	// A deviating entry kills the case.
	v, err := m.Feed(entryAt(0, "u", "P", "T3", "LN-1"))
	if err != nil || v.OK || v.Violation == nil {
		t.Fatalf("deviation not flagged: %+v %v", v, err)
	}
	// Further entries — even ones that would have been valid — are
	// reported against the dead case without replaying.
	v, err = m.Feed(entryAt(1, "u", "P", "T1", "LN-1"))
	if err != nil || v.OK || v.Violation == nil {
		t.Fatalf("dead case accepted an entry: %+v %v", v, err)
	}
	if !strings.Contains(v.Violation.Reason, "already deviated") {
		t.Errorf("reason = %q", v.Violation.Reason)
	}
	if v.CaseEntries != 2 {
		t.Errorf("CaseEntries = %d, want 2 (dead cases still count)", v.CaseEntries)
	}
	// A sibling case is unaffected.
	v, err = m.Feed(entryAt(2, "u", "P", "T1", "LN-2"))
	if err != nil || !v.OK {
		t.Fatalf("sibling case affected: %+v %v", v, err)
	}
	st, err := m.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 || !st[0].Deviated || st[0].Indeterminate != nil || st[1].Deviated {
		t.Fatalf("status = %+v", st)
	}
}

func TestMonitorIndeterminateFeed(t *testing.T) {
	c := newChecker(t, orProc(t), "IN", nil)
	c.MaxConfigurations = 1
	m := NewMonitor(c)
	v, err := m.Feed(entryAt(0, "u", "P", "T1", "IN-1"))
	if err != nil {
		t.Fatalf("cap overflow escaped as error: %v", err)
	}
	if v.OK || v.Indeterminate == nil || v.Indeterminate.Cause != CauseConfigurationCap {
		t.Fatalf("verdict not indeterminate: %+v", v)
	}
	// The case stays dead-indeterminate; further feeds don't replay.
	v, err = m.Feed(entryAt(1, "u", "P", "T3", "IN-1"))
	if err != nil || v.OK || v.Indeterminate == nil {
		t.Fatalf("dead-indeterminate case revived: %+v %v", v, err)
	}
	st, err := m.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 1 || !st[0].Deviated || st[0].Indeterminate == nil {
		t.Fatalf("status = %+v", st)
	}
}

func TestMonitorBornIndeterminate(t *testing.T) {
	c := newChecker(t, deepSilentProc(t), "LN", nil)
	c.MaxSilentDepth = 1
	m := NewMonitor(c)
	// Watch must not error: the case is created dead-indeterminate.
	if err := m.Watch("LN-1"); err != nil {
		t.Fatalf("Watch: %v", err)
	}
	v, err := m.Feed(entryAt(0, "u", "P", "T1", "LN-1"))
	if err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if v.OK || v.Indeterminate == nil || v.Indeterminate.Cause != CauseBudgetExceeded {
		t.Fatalf("verdict = %+v", v)
	}
	if ok, err := m.Peek(entryAt(1, "u", "P", "T1", "LN-1")); err != nil || ok {
		t.Fatalf("Peek on dead case = %v, %v", ok, err)
	}
}

func TestMonitorFeedContextCanceled(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	m := NewMonitor(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.FeedContext(ctx, entryAt(0, "u", "P", "T1", "LN-1")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The monitor is untouched: the entry was never counted.
	v, err := m.Feed(entryAt(0, "u", "P", "T1", "LN-1"))
	if err != nil || !v.OK || v.CaseEntries != 1 {
		t.Fatalf("post-cancel feed: %+v %v", v, err)
	}
}

func TestCheckStoreParallelIndeterminate(t *testing.T) {
	c := newChecker(t, orProc(t), "IN", nil)
	c.MaxConfigurations = 1
	store := audit.NewStore()
	for i, id := range []string{"IN-1", "IN-2", "IN-3"} {
		if err := store.Append(entryAt(i, "u", "P", "T1", id)); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := CheckStoreParallel(c, store, 3)
	if err != nil {
		t.Fatalf("indeterminacy escaped as error: %v", err)
	}
	if len(reps) != 3 {
		t.Fatalf("got %d reports, want 3", len(reps))
	}
	for id, rep := range reps {
		if rep.Outcome != OutcomeIndeterminate {
			t.Errorf("case %s outcome = %v, want indeterminate", id, rep.Outcome)
		}
	}
}
