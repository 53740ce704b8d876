package scenario

import (
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
)

// TestCorpusIndexedAudit merges each corpus fixture's trails into one
// multi-case trail and requires the indexed audits (CheckTrail,
// CheckTrailParallel) to report every case exactly as CheckCase does on
// the case's own trail, on both engines.
func TestCorpusIndexedAudit(t *testing.T) {
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
			reg := core.NewRegistry()
			if _, err := reg.Register(proc, fx.CaseCodes...); err != nil {
				t.Fatal(err)
			}
			var merged []audit.Entry
			trails := map[string]*audit.Trail{}
			for i := range fx.Trails {
				tr := &fx.Trails[i]
				if trails[tr.Case] != nil {
					continue
				}
				trail, err := tr.trail()
				if err != nil {
					t.Fatal(err)
				}
				trails[tr.Case] = trail
				merged = append(merged, trail.ByCase(tr.Case).Entries()...)
			}
			all := audit.NewTrail(merged)
			for _, eng := range engines {
				c := core.NewChecker(reg, rolesOf(pol))
				fx.applyChecker(c)
				c.UseCompiled = eng.compiled
				for _, workers := range []int{1, 3} {
					reps, err := c.CheckTrailParallel(all, workers)
					if err != nil {
						t.Fatal(err)
					}
					if len(reps) != len(trails) {
						t.Fatalf("%s, %d workers: %d reports for %d cases", eng.name, workers, len(reps), len(trails))
					}
					for _, rep := range reps {
						want, err := c.CheckCase(trails[rep.Case], rep.Case)
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
}
