package lts_test

import (
	"testing"

	"repro/internal/cows"
	"repro/internal/encode"
	"repro/internal/lts"
	"repro/internal/workload"
)

// wideAuditProcess encodes the process the wide-audit benchmark audits:
// workload.Generate at 50 tasks, seed 7. Its term is a parallel of 63
// replications and one start token.
func wideAuditProcess(tb testing.TB) cows.Service {
	tb.Helper()
	p, err := workload.Generate(workload.DefaultProcParams("W", 7, 50))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := encode.Encode(p)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func observeAll(cows.Label) bool { return true }

// TestColdExploreAllocs bounds what a cold state costs: a step unfolds
// only the replications that can fire and canonicalizes each successor
// once. Unfolding all 63 replications on every step took ≈7,100
// allocations per state of this LTS; selective unfolding takes under
// 1,000.
func TestColdExploreAllocs(t *testing.T) {
	s := wideAuditProcess(t)
	const perStateMax = 2500
	var states int
	allocs := testing.AllocsPerRun(1, func() {
		g, err := lts.NewSystem(observeAll).Explore(s, 1000)
		if err != nil {
			t.Fatal(err)
		}
		states = g.NumStates()
	})
	per := allocs / float64(states)
	t.Logf("cold Explore: %d states, %.0f allocations, %.0f per state", states, allocs, per)
	if per > perStateMax {
		t.Fatalf("cold Explore allocated %.0f times per state, want at most %d", per, perStateMax)
	}
}
