package scenario

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/policy"
)

// corpusCase is one corpus fixture set up for a whole-trail run: its
// registry and roles, each distinct case's own trail, and all those
// cases merged into one multi-case trail.
type corpusCase struct {
	fx     *Fixture
	reg    *core.Registry
	roles  *policy.RoleHierarchy
	trails map[string]*audit.Trail
	all    *audit.Trail
}

// eachCorpusFixture runs f as a subtest per fixture of the scenario
// corpus.
func eachCorpusFixture(t *testing.T, f func(t *testing.T, cc *corpusCase)) {
	files, err := Discover([]string{"../../scenarios/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		fx, err := Load(file)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fx.Name, func(t *testing.T) {
			proc, err := fx.process()
			if err != nil {
				t.Fatal(err)
			}
			pol, err := fx.policyOf()
			if err != nil {
				t.Fatal(err)
			}
			cc := &corpusCase{fx: fx, reg: core.NewRegistry(), roles: rolesOf(pol), trails: map[string]*audit.Trail{}}
			if _, err := cc.reg.Register(proc, fx.CaseCodes...); err != nil {
				t.Fatal(err)
			}
			var merged []audit.Entry
			for i := range fx.Trails {
				tr := &fx.Trails[i]
				if cc.trails[tr.Case] != nil {
					continue
				}
				trail, err := tr.trail()
				if err != nil {
					t.Fatal(err)
				}
				cc.trails[tr.Case] = trail
				merged = append(merged, trail.ByCase(tr.Case).Entries()...)
			}
			cc.all = audit.NewTrail(merged)
			f(t, cc)
		})
	}
}

// checker builds a checker for the fixture on one engine.
func (cc *corpusCase) checker(compiled bool) *core.Checker {
	c := core.NewChecker(cc.reg, cc.roles)
	cc.fx.applyChecker(c)
	c.UseCompiled = compiled
	return c
}

// TestCorpusIndexedAudit merges each corpus fixture's trails into one
// multi-case trail and requires the indexed audits (CheckTrail,
// CheckTrailParallel) to report every case exactly as CheckCase does on
// the case's own trail, on both engines.
func TestCorpusIndexedAudit(t *testing.T) {
	eachCorpusFixture(t, func(t *testing.T, cc *corpusCase) {
		for _, eng := range engines {
			c := cc.checker(eng.compiled)
			for _, workers := range []int{1, 3} {
				reps, err := c.CheckTrailParallel(cc.all, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(reps) != len(cc.trails) {
					t.Fatalf("%s, %d workers: %d reports for %d cases", eng.name, workers, len(reps), len(cc.trails))
				}
				for _, rep := range reps {
					want, err := c.CheckCase(cc.trails[rep.Case], rep.Case)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rep, want) {
						t.Errorf("%s, %d workers, case %s:\n got %s\nwant %s", eng.name, workers, rep.Case, rep, want)
					}
				}
			}
		}
	})
}

// TestCorpusFeedInto streams each corpus fixture's merged trail through
// two monitors on each engine, one feeding every entry into a single
// reused Verdict and one through FeedContext, and requires equal
// verdicts entry by entry.
func TestCorpusFeedInto(t *testing.T) {
	eachCorpusFixture(t, func(t *testing.T, cc *corpusCase) {
		for _, eng := range engines {
			into, fresh := core.NewMonitor(cc.checker(eng.compiled)), core.NewMonitor(cc.checker(eng.compiled))
			var v core.Verdict
			entries := cc.all.Entries()
			for i := range entries {
				if err := into.FeedInto(context.Background(), &entries[i], &v); err != nil {
					t.Fatal(err)
				}
				want, err := fresh.FeedContext(context.Background(), entries[i])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(&v, want) {
					t.Fatalf("%s, entry %d (case %s): FeedInto gives\n %+v\nFeedContext gives\n %+v", eng.name, i, entries[i].Case, v, *want)
				}
			}
		}
	})
}

// TestCorpusStreamMatchesBatch feeds each corpus fixture's merged trail
// through a monitor on each engine and requires every case to end as
// CheckCase decides it on the case's own trail: the case's first non-OK
// verdict carries the report's violation, indeterminacy and
// explanation, and a compliant case's final status carries the report's
// completion and configuration count. An unknown-purpose case is the
// one designed difference: the report blames no entry (EntryIndex -1)
// while the monitor blames the first it is fed, so only the kind, the
// reason and the nearest-miss class are compared there.
func TestCorpusStreamMatchesBatch(t *testing.T) {
	eachCorpusFixture(t, func(t *testing.T, cc *corpusCase) {
		for _, eng := range engines {
			c := cc.checker(eng.compiled)
			m := core.NewMonitor(c)
			first := map[string]*core.Verdict{}
			for _, e := range cc.all.Entries() {
				v, err := m.Feed(e)
				if err != nil {
					t.Fatal(err)
				}
				if !v.OK && first[e.Case] == nil {
					first[e.Case] = v
				}
			}
			sts, err := m.Status()
			if err != nil {
				t.Fatal(err)
			}
			status := map[string]core.CaseStatus{}
			for _, s := range sts {
				status[s.Case] = s
			}
			for id, trail := range cc.trails {
				rep, err := c.CheckCase(trail, id)
				if err != nil {
					t.Fatal(err)
				}
				v := first[id]
				switch {
				case rep.Compliant:
					s := status[id]
					if v != nil || s.CanComplete != rep.CanComplete || s.Configurations != rep.FinalConfigurations {
						t.Errorf("%s, case %s: compliant report (complete %v, %d configurations), monitor verdict %+v status %+v",
							eng.name, id, rep.CanComplete, rep.FinalConfigurations, v, s)
					}
				case v == nil:
					t.Errorf("%s, case %s: report %s, but the monitor flagged no entry", eng.name, id, rep)
				case rep.Violation != nil && rep.Violation.Kind == core.ViolationUnknownPurpose:
					if v.Violation == nil || v.Violation.Kind != rep.Violation.Kind || v.Violation.Reason != rep.Violation.Reason ||
						v.Explanation.NearestMissClass != rep.Explanation.NearestMissClass {
						t.Errorf("%s, case %s: unknown purpose reported as\n %+v\nmonitor flagged\n %+v", eng.name, id, rep.Violation, v.Violation)
					}
				default:
					if !reflect.DeepEqual(v.Violation, rep.Violation) || !reflect.DeepEqual(v.Indeterminate, rep.Indeterminate) ||
						!reflect.DeepEqual(v.Explanation, rep.Explanation) {
						t.Errorf("%s, case %s: report\n %s\n%+v\nmonitor's first non-OK verdict\n %+v\n%+v",
							eng.name, id, rep, rep.Explanation, v, v.Explanation)
					}
				}
			}
		}
	})
}
