package lts

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cows"
)

// TestInternIdentity: congruent services (equal cows.Canon) intern to
// one StateID; distinct services get distinct IDs; representatives are
// stable.
func TestInternIdentity(t *testing.T) {
	y := NewSystem(obsAllComm)
	a := cows.MustParse("a.t!<> | b.u?<>.0")
	b := cows.MustParse("b.u?<>.0 | a.t!<>") // same state, reordered
	c := cows.MustParse("c.v!<>")
	if y.Intern(a) != y.Intern(b) {
		t.Fatalf("congruent services interned to different StateIDs")
	}
	if y.Intern(a) == y.Intern(c) {
		t.Fatalf("distinct services share a StateID")
	}
	if y.Representative(a) != y.Representative(b) {
		t.Fatalf("congruent services have different representatives")
	}
	if y.CanonOf(a) != cows.Canon(b) {
		t.Fatalf("CanonOf disagrees with cows.Canon")
	}
	if y.StateCount() != 2 {
		t.Fatalf("StateCount = %d, want 2", y.StateCount())
	}
}

// TestRepresentativeDoesNotPinCopy: resolving a congruent copy (a
// parsed checkpoint term) to its representative leaves no pointer
// entry for the copy, so the copy can be collected, while the
// representative itself stays a pointer hit.
func TestRepresentativeDoesNotPinCopy(t *testing.T) {
	y := NewSystem(obsAllComm)
	id := y.Intern(cows.MustParse("a.t!<> | b.u?<>.0"))
	cp := cows.MustParse("b.u?<>.0 | a.t!<>")
	rep := y.Representative(cp)
	if rep == cp {
		t.Fatalf("the copy became the representative")
	}
	if _, ok := y.byPtr.Load(cp); ok {
		t.Fatalf("Representative indexed the copy by pointer")
	}
	if _, ok := y.byPtr.Load(rep); !ok {
		t.Fatalf("the representative is not indexed by pointer")
	}
	if got := y.Intern(rep); got != id {
		t.Fatalf("Intern(representative) = %d, want %d", got, id)
	}
	if y.StateCount() != 1 {
		t.Fatalf("StateCount = %d, want 1", y.StateCount())
	}
}

// TestShareKeepsWarmCaches: Share returns the same warm System (the
// fan-out discipline), while Clone deliberately starts cold.
func TestShareKeepsWarmCaches(t *testing.T) {
	y := NewSystem(obsAllComm)
	if _, err := y.WeakNext(fig7()); err != nil {
		t.Fatal(err)
	}
	steps, weak := y.CacheStats()
	if steps == 0 || weak == 0 {
		t.Fatalf("warmup left caches empty: %d %d", steps, weak)
	}
	sh := y.Share()
	if sh != y {
		t.Fatalf("Share returned a different System")
	}
	if s2, w2 := sh.CacheStats(); s2 != steps || w2 != weak {
		t.Fatalf("Share lost warm caches: %d %d vs %d %d", s2, w2, steps, weak)
	}
	if s0, w0 := y.Clone().CacheStats(); s0 != 0 || w0 != 0 {
		t.Fatalf("Clone inherited caches: %d %d", s0, w0)
	}
}

// TestCanTerminateSilentlyMemo: the verdict is derived once per state
// and served from the per-state cache afterwards, including across
// congruent (re-parsed) services, and concurrent queries agree.
func TestCanTerminateSilentlyMemo(t *testing.T) {
	obs := func(l cows.Label) bool { return l.Kind == cows.LComm && l.Op == "o" }
	// Silent chain to quiescence: CanTerminateSilently = true.
	src := `a.t1!<> | a.t1?<>.a.t2!<> | a.t2?<>.0`
	y := NewSystem(obs)
	s := cows.MustParse(src)
	ok, err := y.CanTerminateSilently(s)
	if err != nil || !ok {
		t.Fatalf("CanTerminateSilently = %v %v", ok, err)
	}
	// A congruent re-parse hits the same interned state and its cached
	// verdict.
	ok2, err := y.CanTerminateSilently(cows.MustParse(src))
	if err != nil || ok2 != ok {
		t.Fatalf("memoized verdict disagrees: %v %v", ok2, err)
	}
	// Negative verdict (pending observable step) is cached too and
	// stable under concurrent queries.
	pending := cows.MustParse(`x.o!<> | x.o?<>.0`)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := y.CanTerminateSilently(pending)
			if err != nil || ok {
				t.Errorf("pending state: CanTerminateSilently = %v %v", ok, err)
			}
		}()
	}
	wg.Wait()
}

// TestSystemConcurrentWarmup: many goroutines racing to derive the same
// states agree on IDs and results (run under -race).
func TestSystemConcurrentWarmup(t *testing.T) {
	y := NewSystem(obsAllComm)
	s := fig8()
	want, err := y.Clone().WeakNext(s) // reference from a private cold system
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := y.WeakNext(s)
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(want) {
				t.Errorf("WeakNext len = %d, want %d", len(got), len(want))
				return
			}
			for j := range got {
				if got[j].Label.String() != want[j].Label.String() || got[j].Canon != want[j].Canon {
					t.Errorf("WeakNext[%d] disagrees", j)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// chainGraph builds a synthetic Graph with n states and k outgoing
// edges per state (to the next state), exercising Succ.
func chainGraph(n, k int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.States = append(g.States, fmt.Sprintf("s%d", i))
		g.Services = append(g.Services, nil)
	}
	for i := 0; i < n-1; i++ {
		for j := 0; j < k; j++ {
			g.Edges = append(g.Edges, Edge{From: i, Label: cows.CommLabel("P", fmt.Sprintf("T%d", j)), To: i + 1})
		}
	}
	return g
}

// TestGraphSuccIndex: the adjacency index returns exactly the edges of
// each state in insertion order, and out-of-range ids are empty.
func TestGraphSuccIndex(t *testing.T) {
	g := chainGraph(50, 3)
	for i := 0; i < 49; i++ {
		es := g.Succ(i)
		if len(es) != 3 {
			t.Fatalf("Succ(%d) = %d edges, want 3", i, len(es))
		}
		for j, e := range es {
			if e.From != i || e.To != i+1 || e.Label.Op != fmt.Sprintf("T%d", j) {
				t.Fatalf("Succ(%d)[%d] = %+v (insertion order lost)", i, j, e)
			}
		}
	}
	if len(g.Succ(49)) != 0 {
		t.Fatalf("terminal state has successors")
	}
	if g.Succ(-1) != nil || g.Succ(50) != nil {
		t.Fatalf("out-of-range ids not empty")
	}
}

// BenchmarkGraphSucc: regression guard for the Succ adjacency index —
// a full sweep over a 2000-state graph used to be O(V·E); with the
// index it is O(V+E) amortized.
func BenchmarkGraphSucc(b *testing.B) {
	g := chainGraph(2000, 4)
	g.Succ(0) // build the index outside the timer
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		for id := 0; id < g.NumStates(); id++ {
			total += len(g.Succ(id))
		}
	}
	if total == 0 {
		b.Fatal("no edges visited")
	}
}
