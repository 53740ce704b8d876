package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/policy"
)

// multiCaseRegistry binds the linear process to LN and the inclusive
// gateway process to IN.
func multiCaseRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Register(linearProc(t), "LN"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(orProc(t), "IN"); err != nil {
		t.Fatal(err)
	}
	return reg
}

// casePatterns are the step sequences multiCaseTrail draws from:
// complete, pending, deviating and failing runs of both purposes.
var casePatterns = []struct {
	code  string
	steps []string
}{
	{"LN", []string{"T1", "T2", "T3"}},
	{"LN", []string{"T1", "T2"}},
	{"LN", []string{"T1", "T3"}},
	{"LN", []string{"T2"}},
	{"LN", []string{"T1", "T1", "T2", "T2", "T3"}},
	{"IN", []string{"T1", "T3"}},
	{"IN", []string{"T1", "T2", "T3"}},
	{"IN", []string{"T2", "T1"}},
	{"IN", []string{"T3"}},
}

// multiCaseTrail builds an interleaved trail of n cases drawn from
// casePatterns, plus one case whose code names no purpose. Entries are
// merged in a seeded random order, two to a minute, so cases overlap
// and same-minute entries of different cases are common.
func multiCaseTrail(n int, seed int64) *audit.Trail {
	rng := rand.New(rand.NewSource(seed))
	type pending struct {
		caseID string
		steps  []string
	}
	open := make([]pending, 0, n+1)
	for i := 0; i < n; i++ {
		p := casePatterns[rng.Intn(len(casePatterns))]
		open = append(open, pending{fmt.Sprintf("%s-%d", p.code, i+1), p.steps})
	}
	open = append(open, pending{"ZZ-1", []string{"T1", "T2"}})
	subjects := []string{"[P1]EPR/Clinical", "[P2]EPR/Clinical", "[P3]EPR/Demographics"}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var entries []audit.Entry
	for len(open) > 0 {
		k := rng.Intn(len(open))
		p := &open[k]
		entries = append(entries, audit.Entry{
			User: fmt.Sprintf("u%d", k%5), Role: "P", Action: "read",
			Object: policy.MustParseObject(subjects[len(entries)%len(subjects)]),
			Task:   p.steps[0], Case: p.caseID,
			Time:   t0.Add(time.Duration(len(entries)/2) * time.Minute),
			Status: audit.Success,
		})
		if p.steps = p.steps[1:]; len(p.steps) == 0 {
			open[k] = open[len(open)-1]
			open = open[:len(open)-1]
		}
	}
	return audit.NewTrail(entries)
}

// perCase is the reference the indexed audits must reproduce: one
// CheckCase per case, each of which slices the trail with ByCase.
func perCase(t *testing.T, c *Checker, trail *audit.Trail, cases []string) []*Report {
	t.Helper()
	var out []*Report
	for _, id := range cases {
		rep, err := c.CheckCase(trail, id)
		if err != nil {
			t.Fatalf("CheckCase(%s): %v", id, err)
		}
		out = append(out, rep)
	}
	return out
}

func requireReports(t *testing.T, what string, got, want []*Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: report %d differs:\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

// TestIndexedAuditMatchesCheckCase: CheckTrail, CheckTrailParallel and
// CheckObject, which fetch cases through the one-pass index, report
// exactly what per-case CheckCase reports, on both engines, including
// an unknown purpose and a panicking case.
func TestIndexedAuditMatchesCheckCase(t *testing.T) {
	trail := multiCaseTrail(60, 1)
	cases := trail.Cases()
	obj := policy.MustParseObject("[P2]EPR")
	touching := trail.TouchingObject(obj)
	if len(touching) == 0 || len(touching) == len(cases) {
		t.Fatalf("object touches %d of %d cases; want a proper subset", len(touching), len(cases))
	}
	for _, compiled := range []bool{false, true} {
		for _, panicking := range []bool{false, true} {
			if compiled && panicking {
				continue // TraceFn, the panic hook, forces the interpreter
			}
			c := NewChecker(multiCaseRegistry(t), nil)
			c.UseCompiled = compiled
			if panicking {
				c.TraceFn = func(_ int, e audit.Entry, _ []*Configuration) {
					if e.Case == cases[7] {
						panic("instrumentation exploded")
					}
				}
			}
			name := fmt.Sprintf("compiled=%v panicking=%v", compiled, panicking)
			want := perCase(t, c, trail, cases)
			if panicking && want[7].Outcome != OutcomeIndeterminate {
				t.Fatalf("%s: panicking case not isolated: %s", name, want[7])
			}
			got, err := c.CheckTrail(trail)
			if err != nil {
				t.Fatal(err)
			}
			requireReports(t, name+" CheckTrail", got, want)
			got, err = c.CheckTrailParallel(trail, 3)
			if err != nil {
				t.Fatal(err)
			}
			requireReports(t, name+" CheckTrailParallel", got, want)
			got, err = c.CheckObject(trail, obj)
			if err != nil {
				t.Fatal(err)
			}
			requireReports(t, name+" CheckObject", got, perCase(t, c, trail, touching))
		}
	}
}

// TestIndexedAuditCanceledMidTrail: a context canceled partway through
// the trail stops both the sequential and the parallel indexed audit
// with the context's error, and the checker's next audit is unaffected.
func TestIndexedAuditCanceledMidTrail(t *testing.T) {
	trail := multiCaseTrail(40, 2)
	cases := trail.Cases()
	c := NewChecker(multiCaseRegistry(t), nil)
	want := perCase(t, NewChecker(multiCaseRegistry(t), nil), trail, cases)
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		c.TraceFn = func(_ int, e audit.Entry, _ []*Configuration) {
			if e.Case == cases[len(cases)/2] {
				cancel()
			}
		}
		if _, err := c.CheckTrailParallelContext(ctx, trail, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		cancel()
		c.TraceFn = nil
		got, err := c.CheckTrailParallel(trail, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireReports(t, fmt.Sprintf("workers=%d after cancel", workers), got, want)
	}
}

// TestAuditVisitsLinear is the deterministic guard that a full audit
// is linear in the trail: the entries that trail scans and case fetches
// visit stay within a fixed multiple of the trail length whatever the
// case count. A per-case rescan (ByCase in a loop) visits
// 2 × cases × entries and fails at every size.
func TestAuditVisitsLinear(t *testing.T) {
	const perEntry = 3
	obj := policy.MustParseObject("[P1]EPR")
	for _, n := range []int{300, 1200, 4800} {
		trail := multiCaseTrail(n, int64(n))
		fw := NewFramework(multiCaseRegistry(t), nil, nil)
		audits := []struct {
			name string
			run  func() error
		}{
			{"CheckTrail", func() error { _, err := fw.Checker.CheckTrail(trail); return err }},
			{"CheckTrailParallel", func() error { _, err := fw.Checker.CheckTrailParallel(trail, 4); return err }},
			{"CheckObject", func() error { _, err := fw.Checker.CheckObject(trail, obj); return err }},
			{"Framework.Audit", func() error { _, err := fw.Audit(trail); return err }},
		}
		for _, a := range audits {
			var visits atomic.Int64
			trail.CountScans(&visits)
			if err := a.run(); err != nil {
				t.Fatal(err)
			}
			trail.CountScans(nil)
			if max := int64(perEntry * trail.Len()); visits.Load() > max || visits.Load() == 0 {
				t.Errorf("%d cases: %s visited %d entries of a %d-entry trail, want 1..%d",
					n, a.name, visits.Load(), trail.Len(), max)
			}
		}
	}
}

// TestRankAndExpireMatchPerCase: SeverityScorer.Rank and ExpirePending
// fetch cases through the index and must agree with scoring and
// expiring each report against its ByCase slice.
func TestRankAndExpireMatchPerCase(t *testing.T) {
	trail := multiCaseTrail(60, 3)
	fw := NewFramework(multiCaseRegistry(t), nil, nil)
	res, err := fw.Audit(trail)
	if err != nil {
		t.Fatal(err)
	}
	consents := policy.NewConsentRegistry()
	consents.Grant("P1", "Linear")
	scorer := NewSeverityScorer(consents)
	var want []ScoredReport
	for _, rep := range res.Infringements() {
		want = append(want, scorer.Score(rep, trail.ByCase(rep.Case)))
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Score > want[j].Score })
	if got := scorer.Rank(res, trail); !reflect.DeepEqual(got, want) {
		t.Fatalf("Rank differs from per-case scoring:\n got %+v\nwant %+v", got, want)
	}

	// Expire half the pending cases: the cut is the median last
	// activity of the pending cases.
	var lasts []time.Time
	for _, rep := range res.CaseReports {
		if rep.Compliant && rep.Pending {
			slice := trail.ByCase(rep.Case)
			lasts = append(lasts, slice.At(slice.Len()-1).Time)
		}
	}
	if len(lasts) < 4 {
		t.Fatalf("only %d pending cases", len(lasts))
	}
	sort.Slice(lasts, func(i, j int) bool { return lasts[i].Before(lasts[j]) })
	now := lasts[len(lasts)/2].Add(time.Hour)
	got := cloneReports(res.CaseReports)
	ExpirePending(got, trail, time.Hour, now)
	ref := cloneReports(res.CaseReports)
	for _, rep := range ref {
		if !rep.Compliant || !rep.Pending {
			continue
		}
		slice := trail.ByCase(rep.Case)
		if last := slice.At(slice.Len() - 1).Time; now.Sub(last) > time.Hour {
			rep.Compliant = false
			rep.Violation = &Violation{
				Kind:   ViolationExpired,
				Reason: "process instance exceeded its maximum duration: idle since " + last.Format(audit.PaperTimeLayout),
			}
		}
	}
	expired := 0
	for _, rep := range got {
		if rep.Violation != nil && rep.Violation.Kind == ViolationExpired {
			expired++
		}
	}
	if expired == 0 || expired == len(lasts) {
		t.Fatalf("%d of %d pending cases expired; want a proper subset", expired, len(lasts))
	}
	requireReports(t, "ExpirePending", got, ref)
}

func cloneReports(reps []*Report) []*Report {
	out := make([]*Report, len(reps))
	for i, r := range reps {
		c := *r
		out[i] = &c
	}
	return out
}

// inPlaceObserver records, for every accepted entry, the trail
// position it points at (at maps the address of each trail entry to
// its position), and counts entries that are not the trail's own.
type inPlaceObserver struct {
	at     map[*audit.Entry]int
	caseID string
	got    map[string][]int
	stray  int
}

func (o *inPlaceObserver) ReplayBegin(caseID, _, _ string, _ int) { o.caseID = caseID }
func (o *inPlaceObserver) EntryAccepted(_ int, e *audit.Entry, _ StepStats) {
	i, ok := o.at[e]
	if !ok {
		o.stray++
		return
	}
	o.got[o.caseID] = append(o.got[o.caseID], i)
}
func (o *inPlaceObserver) EntryRejected(int, *audit.Entry, *Explanation) {}
func (o *inPlaceObserver) ReplayEnd(*Report)                             {}

// TestCheckTrailReplaysInPlace: a trail audit replays each case from
// the trail's own entries, without gathering them into a buffer. On an
// interleaved trail every entry the observer sees must be a pointer
// into trail.View()'s backing array, and each case must visit its own
// positions in chronological order, on both engines.
func TestCheckTrailReplaysInPlace(t *testing.T) {
	trail := multiCaseTrail(200, 11)
	view := trail.View()
	at := make(map[*audit.Entry]int, len(view))
	for i := range view {
		at[&view[i]] = i
	}
	for _, compiled := range []bool{false, true} {
		c := NewChecker(multiCaseRegistry(t), nil)
		c.UseCompiled = compiled
		obs := &inPlaceObserver{at: at, got: map[string][]int{}}
		c.Observer = obs
		reps, err := c.CheckTrail(trail)
		if err != nil {
			t.Fatal(err)
		}
		if obs.stray != 0 {
			t.Fatalf("compiled=%v: %d accepted entries were not the trail's own", compiled, obs.stray)
		}
		accepted := 0
		for _, rep := range reps {
			got := obs.got[rep.Case]
			accepted += len(got)
			for k, i := range got {
				if view[i].Case != rep.Case || (k > 0 && i <= got[k-1]) {
					t.Fatalf("compiled=%v: case %s replayed trail positions %v", compiled, rep.Case, got)
				}
			}
		}
		if accepted == 0 {
			t.Fatalf("compiled=%v: no entry was accepted", compiled)
		}
	}
}
