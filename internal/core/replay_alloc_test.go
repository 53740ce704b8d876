package core

import (
	"context"
	"testing"

	"repro/internal/audit"
	"repro/internal/bpmn"
)

// loopedProc is benchtab's looped process: T1, then T2 or T3, then
// back to T1 or on to T4 and the end.
func loopedProc() *bpmn.Process {
	return bpmn.NewBuilder("Loop").Pool("P").
		Start("S", "P").Task("T1", "P", "").XOR("G", "P").
		Task("T2", "P", "").Task("T3", "P", "").
		XOR("M", "P").XOR("G2", "P").Task("T4", "P", "").End("E", "P").
		Seq("S", "T1", "G").Seq("G", "T2", "M").Seq("G", "T3", "M").
		Seq("M", "G2").Seq("G2", "T1").Seq("G2", "T4", "E").
		MustBuild()
}

// loopedTrail is n entries of case LP-1 through the looped process:
// (n-1)/2 rounds of T1, T2, then T4.
func loopedTrail(n int) *audit.Trail {
	steps := make([]string, 0, n)
	for len(steps) < n-1 {
		steps = append(steps, "P:T1", "P:T2")
	}
	return trailOf("LP-1", append(steps, "P:T4")...)
}

// TestWarmReplayAllocs: warm replay allocates per case, never per
// entry. CheckCase allocates as much at 2,001 entries as at 21 (no more
// than the report and, on the interpreter, its configuration buffers),
// and a monitor feeding a live compliant case allocates nothing.
func TestWarmReplayAllocs(t *testing.T) {
	for _, eng := range []struct {
		name     string
		compiled bool
		max      float64
	}{{EngineInterpreted, false, 3}, {EngineCompiled, true, 1}} {
		c := newChecker(t, loopedProc(), "LP", nil)
		c.UseCompiled = eng.compiled
		var allocs []float64
		for _, n := range []int{21, 2001} {
			trail := loopedTrail(n)
			rep := check(t, c, trail, "LP-1")
			if !rep.Compliant || rep.Entries != n {
				t.Fatalf("%s: %d-entry trail: %s", eng.name, n, rep)
			}
			allocs = append(allocs, testing.AllocsPerRun(20, func() {
				if _, err := c.CheckCase(trail, "LP-1"); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if allocs[0] != allocs[1] || allocs[1] > eng.max {
			t.Errorf("%s: warm CheckCase allocates %v at 21 entries and %v at 2,001, want equal and at most %v", eng.name, allocs[0], allocs[1], eng.max)
		}

		m := NewMonitor(c)
		round := loopedTrail(3).Entries()[:2]
		var v Verdict
		feed := func() {
			for i := range round {
				if err := m.FeedInto(context.Background(), &round[i], &v); err != nil || !v.OK {
					t.Fatalf("%s: feeding %s: %+v %v", eng.name, round[i].Task, v, err)
				}
			}
		}
		feed()
		if a := testing.AllocsPerRun(100, feed); a != 0 {
			t.Errorf("%s: warm FeedInto allocates %v per round of two entries, want 0", eng.name, a)
		}
	}
}

// TestSymbolCacheCollidingTasks: two tasks sharing a symbol-cache slot
// (same length, last byte and role) are told apart by the compiled
// step, whose reports match the interpreter's.
func TestSymbolCacheCollidingTasks(t *testing.T) {
	if symCacheIdx("X1", "P") != symCacheIdx("Y1", "P") {
		t.Fatal("X1 and Y1 no longer share a cache slot; pick two tasks that do")
	}
	proc := bpmn.NewBuilder("Collide").Pool("P").
		Start("S", "P").Task("X1", "P", "").Task("Y1", "P", "").End("E", "P").
		Seq("S", "X1", "Y1", "E").
		MustBuild()
	interp := newChecker(t, proc, "CL", nil)
	compiled := newChecker(t, proc, "CL", nil)
	compiled.UseCompiled = true
	for _, steps := range [][]string{{"P:X1", "P:Y1"}, {"P:X1", "P:Y1", "P:X1"}, {"P:X1", "P:Y1", "P:Y1"}} {
		trail := trailOf("CL-1", steps...)
		want, got := check(t, interp, trail, "CL-1"), check(t, compiled, trail, "CL-1")
		if got.Engine != EngineCompiled || got.String() != want.String() || got.CanComplete != want.CanComplete {
			t.Errorf("%v: compiled %s (engine %s, can complete %v), interpreted %s (can complete %v)",
				steps, got, got.Engine, got.CanComplete, want, want.CanComplete)
		}
	}
}
