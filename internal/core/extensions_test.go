package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/bpmn"
	"repro/internal/policy"
)

func TestCheckCaseWithSkipsBridgesGaps(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)

	// T2's execution was never logged (a "silent activity"): plain
	// Algorithm 1 rejects, a budget of 1 accepts with one hypothesized
	// execution.
	gap := trailOf("LN-1", "P:T1", "P:T3")
	plain, err := c.CheckCase(gap, "LN-1")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Compliant {
		t.Fatalf("plain checker accepted the gapped trail")
	}
	rep, err := c.CheckCaseWithSkips(gap, "LN-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant || rep.SkipsUsed != 1 {
		t.Fatalf("skip replay: %+v", rep)
	}
	if len(rep.SkippedLabels) != 1 || rep.SkippedLabels[0] != "P.T2" {
		t.Fatalf("skipped labels = %v, want [P.T2]", rep.SkippedLabels)
	}

	// Two consecutive gaps need budget 2.
	gap2 := trailOf("LN-1", "P:T3")
	rep, err = c.CheckCaseWithSkips(gap2, "LN-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant {
		t.Fatalf("budget 1 bridged a 2-gap")
	}
	rep, err = c.CheckCaseWithSkips(gap2, "LN-1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant || rep.SkipsUsed != 2 {
		t.Fatalf("budget 2: %+v", rep)
	}
}

func TestCheckCaseWithSkipsPrefersFewestSkips(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	// A fully logged trail must report zero skips even with budget.
	full := trailOf("LN-1", "P:T1", "P:T2", "P:T3")
	rep, err := c.CheckCaseWithSkips(full, "LN-1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant || rep.SkipsUsed != 0 || len(rep.SkippedLabels) != 0 {
		t.Fatalf("full trail: %+v", rep)
	}
}

func TestCheckCaseWithSkipsStillRejectsImpossible(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	// A foreign task cannot be explained by any number of skips.
	rep, err := c.CheckCaseWithSkips(trailOf("LN-1", "P:T1", "P:T9"), "LN-1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant {
		t.Fatalf("skips explained an impossible task")
	}
	// Unknown purpose passes through.
	rep, err = c.CheckCaseWithSkips(trailOf("ZZ-1", "P:T1"), "ZZ-1", 3)
	if err != nil || rep.Compliant {
		t.Fatalf("unknown purpose: %+v %v", rep, err)
	}
}

// TestCheckCaseWithSkipsExplains: an infringement the skip search
// still rejects carries the same auditor-facing explanation anchor as
// plain Algorithm 1 (purposectl -skips N -explain prints it).
func TestCheckCaseWithSkipsExplains(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	trail := trailOf("LN-1", "P:T1", "P:T9")
	plain, err := c.CheckCase(trail, "LN-1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.CheckCaseWithSkips(trail, "LN-1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant || plain.Explanation == nil {
		t.Fatalf("want a violation from both checks: skips %+v, plain %+v", rep, plain)
	}
	x := rep.Explanation
	if x == nil {
		t.Fatal("skip-search violation carries no explanation")
	}
	if x.EntryIndex != plain.Explanation.EntryIndex || x.Task != plain.Explanation.Task || x.Case != "LN-1" {
		t.Fatalf("skip explanation at entry %d (task %q), CheckCase's at entry %d (task %q)",
			x.EntryIndex, x.Task, plain.Explanation.EntryIndex, plain.Explanation.Task)
	}
}

func TestCheckCaseWithSkipsOnBranches(t *testing.T) {
	p := bpmn.NewBuilder("Branch").Pool("P").
		Start("S", "P").Task("T0", "P", "").XOR("G", "P").
		Task("T1", "P", "").Task("T2", "P", "").
		Task("T1b", "P", "").Task("T2b", "P", "").End("E1", "P").End("E2", "P").
		Seq("S", "T0", "G").Seq("G", "T1", "T1b", "E1").Seq("G", "T2", "T2b", "E2").
		MustBuild()
	c := newChecker(t, p, "BR", nil)
	// Log shows T0 then T1b: the skip must be hypothesized on the T1
	// branch specifically.
	rep, err := c.CheckCaseWithSkips(trailOf("BR-1", "P:T0", "P:T1b"), "BR-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant || rep.SkipsUsed != 1 || rep.SkippedLabels[0] != "P.T1" {
		t.Fatalf("branch skip: %+v", rep)
	}
}

func TestSeverityRanking(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	consents := policy.NewConsentRegistry()
	consents.Grant("P9", "Linear")
	scorer := NewSeverityScorer(consents)

	// Three infringing cases of increasing gravity:
	// LN-1: late deviation, consented subject.
	// LN-2: first-entry deviation, non-consenting subject (clinical).
	// LN-3: first-entry deviation, three subjects harvested.
	mk := func(seq int, caseID, task, subject, section string) audit.Entry {
		return audit.Entry{
			User: "u", Role: "P", Action: "read",
			Object: policy.Object{Subject: subject, Path: []string{"EPR", section}},
			Task:   task, Case: caseID,
			Time:   time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Minute),
			Status: audit.Success,
		}
	}
	entries := []audit.Entry{
		mk(0, "LN-1", "T1", "P9", "Clinical"),
		mk(1, "LN-1", "T2", "P9", "Clinical"),
		mk(2, "LN-1", "T1", "P9", "Clinical"), // deviates at entry 2 of 3
		mk(10, "LN-2", "T2", "P1", "Clinical"),
		mk(20, "LN-3", "T2", "A", "Demographics"),
		mk(21, "LN-3", "T2", "B", "Demographics"),
		mk(22, "LN-3", "T2", "C", "Demographics"),
	}
	trail := audit.NewTrail(entries)
	reports, err := c.CheckTrail(trail)
	if err != nil {
		t.Fatal(err)
	}
	res := &AuditResult{CaseReports: reports}
	ranked := NewSeverityScorer(consents).Rank(res, trail)
	if len(ranked) != 3 {
		t.Fatalf("ranked %d infringements, want 3", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatalf("ranking not descending: %v", ranked)
		}
	}
	byCase := map[string]ScoredReport{}
	for _, r := range ranked {
		byCase[r.Report.Case] = r
	}
	// The consented, late, single-subject deviation scores lowest.
	if !(byCase["LN-1"].Score < byCase["LN-2"].Score) {
		t.Errorf("LN-1 (%d) should score below LN-2 (%d)", byCase["LN-1"].Score, byCase["LN-2"].Score)
	}
	if byCase["LN-1"].Consent != 0 {
		t.Errorf("LN-1 consent component = %d, want 0 (P9 consented)", byCase["LN-1"].Consent)
	}
	if byCase["LN-3"].Spread != 15 {
		t.Errorf("LN-3 spread = %d, want 15 (three subjects)", byCase["LN-3"].Spread)
	}
	if byCase["LN-2"].Progress != 15 {
		t.Errorf("LN-2 progress = %d, want 15 (deviated at entry 0)", byCase["LN-2"].Progress)
	}
	// Compliant reports score zero.
	ok := c
	rep, err := ok.CheckCase(trailOf("LN-9", "P:T1"), "LN-9")
	if err != nil {
		t.Fatal(err)
	}
	if s := scorer.Score(rep, trailOf("LN-9", "P:T1")); s.Score != 0 {
		t.Errorf("compliant case scored %d", s.Score)
	}
}

func TestExpirePending(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	trail := trailOf("LN-1", "P:T1") // pending forever
	reports, err := c.CheckTrail(trail)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Compliant || !reports[0].Pending {
		t.Fatalf("setup: %s", reports[0])
	}
	last := trail.At(trail.Len() - 1).Time

	// Within the duration: untouched.
	ExpirePending(reports, trail, 24*time.Hour, last.Add(time.Hour))
	if !reports[0].Compliant {
		t.Fatalf("expired too early: %s", reports[0])
	}
	// Beyond it: infringement of kind expired.
	ExpirePending(reports, trail, 24*time.Hour, last.Add(48*time.Hour))
	if reports[0].Compliant || reports[0].Violation.Kind != ViolationExpired {
		t.Fatalf("not expired: %s", reports[0])
	}
	if got := reports[0].Violation.Kind.String(); got != "expired" {
		t.Fatalf("kind string = %q", got)
	}
}

// TestMonitorSnapshotRestore: feed half a case, snapshot, restore into a
// fresh monitor, feed the rest — verdicts and status must match a
// monitor that saw everything.
func TestMonitorSnapshotRestore(t *testing.T) {
	mkChecker := func() *Checker { return newChecker(t, linearProc(t), "LN", nil) }
	entries := trailOf("LN-1", "P:T1", "P:T1", "P:T2", "P:T3").Entries()
	bad := trailOf("LN-2", "P:T2").Entries()

	// Reference: one continuous monitor.
	ref := NewMonitor(mkChecker())
	for _, e := range entries {
		if v, err := ref.Feed(e); err != nil || !v.OK {
			t.Fatalf("ref feed: %+v %v", v, err)
		}
	}

	// Snapshot after two entries, restore, continue.
	m1 := NewMonitor(mkChecker())
	for _, e := range entries[:2] {
		if v, err := m1.Feed(e); err != nil || !v.OK {
			t.Fatalf("pre-snapshot feed: %+v %v", v, err)
		}
	}
	if v, err := m1.Feed(bad[0]); err != nil || v.OK {
		t.Fatalf("bad case should deviate: %+v %v", v, err)
	}
	var buf strings.Builder
	if err := m1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	m2, err := RestoreMonitor(mkChecker(), strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries[2:] {
		if v, err := m2.Feed(e); err != nil || !v.OK {
			t.Fatalf("post-restore feed: %+v %v", v, err)
		}
	}
	// Deviated case stays dead across the restore.
	if v, err := m2.Feed(bad[0]); err != nil || v.OK {
		t.Fatalf("dead case revived: %+v %v", v, err)
	}

	refSt, err := ref.Status()
	if err != nil {
		t.Fatal(err)
	}
	gotSt, err := m2.Status()
	if err != nil {
		t.Fatal(err)
	}
	// The restored monitor has LN-1 (healthy, complete) and LN-2
	// (deviated); the reference only saw LN-1.
	if len(gotSt) != 2 {
		t.Fatalf("status = %+v", gotSt)
	}
	var ln1 CaseStatus
	for _, st := range gotSt {
		if st.Case == "LN-1" {
			ln1 = st
		}
	}
	if ln1.CanComplete != refSt[0].CanComplete || ln1.Entries != refSt[0].Entries {
		t.Fatalf("restored LN-1 %+v differs from reference %+v", ln1, refSt[0])
	}
}

// TestRestoreMonitorErrors covers the failure paths.
func TestRestoreMonitorErrors(t *testing.T) {
	c := newChecker(t, linearProc(t), "LN", nil)
	cases := []string{
		``,
		`{"version":3,"cases":{}}`,
		`{"version":1,"cases":{"XX-1":{"purpose":"Ghost","configs":[]}}}`,
		`{"version":1,"cases":{"LN-1":{"purpose":"Linear","configs":[{"state":"]["}]}}}`,
		`{"version":2,"states":["nil"],"cases":{"LN-1":{"purpose":"Linear","configs":[{"state_ref":4}]}}}`,
	}
	for i, src := range cases {
		if _, err := RestoreMonitor(c, strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
