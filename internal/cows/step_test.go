package cows

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// run derives one transition step and returns the labels, failing the
// test on derivation errors.
func run(t *testing.T, e *Engine, s Service) []Transition {
	t.Helper()
	ts, err := e.Step(s)
	if err != nil {
		t.Fatalf("Step(%s): %v", String(s), err)
	}
	return ts
}

func labels(ts []Transition) []string {
	out := make([]string, len(ts))
	for i, tr := range ts {
		out[i] = tr.Label.String()
	}
	sort.Strings(out)
	return out
}

// only asserts the service has exactly one transition and returns it.
func only(t *testing.T, e *Engine, s Service) Transition {
	t.Helper()
	ts := run(t, e, s)
	if len(ts) != 1 {
		t.Fatalf("expected exactly 1 transition from %s, got %v", String(s), labels(ts))
	}
	return ts[0]
}

func TestBasicSynchronization(t *testing.T) {
	s := MustParse("P.T!<> | P.T?<>.P.E!<> | P.E?<>")
	e := NewEngine()

	tr := only(t, e, s)
	if got, want := tr.Label.String(), "P.T"; got != want {
		t.Fatalf("first label = %q, want %q", got, want)
	}
	tr = only(t, e, tr.Next)
	if got, want := tr.Label.String(), "P.E"; got != want {
		t.Fatalf("second label = %q, want %q", got, want)
	}
	ts := run(t, e, tr.Next)
	if len(ts) != 0 {
		t.Fatalf("expected terminal state, got %v", labels(ts))
	}
	if !IsNil(Normalize(tr.Next)) {
		t.Fatalf("final state not nil: %s", String(tr.Next))
	}
}

func TestNoPartnerNoTransition(t *testing.T) {
	e := NewEngine()
	for _, src := range []string{"P.T!<>", "P.T?<>.0", "P.T!<> | P.U?<>", "P.T!<a> | P.T?<b>"} {
		ts := run(t, e, MustParse(src))
		if len(ts) != 0 {
			t.Errorf("%s: expected stuck, got %v", src, labels(ts))
		}
	}
}

func TestValuePassingBindsVariable(t *testing.T) {
	s := MustParse("P.T!<msg1> | [x] P.T?<$x>.Q.U!<$x> | Q.U?<msg1>.done.ok!<> | done.ok?<>")
	e := NewEngine()

	tr := only(t, e, s)
	if got, want := tr.Label.String(), "P.T(msg1)"; got != want {
		t.Fatalf("label = %q, want %q", got, want)
	}
	tr = only(t, e, tr.Next)
	if got, want := tr.Label.String(), "Q.U(msg1)"; got != want {
		t.Fatalf("label = %q, want %q", got, want)
	}
	tr = only(t, e, tr.Next)
	if got, want := tr.Label.String(), "done.ok"; got != want {
		t.Fatalf("label = %q, want %q", got, want)
	}
}

func TestLiteralParameterMatch(t *testing.T) {
	// Two requests on the same endpoint with different literal
	// patterns: only the matching one can synchronize.
	s := MustParse("P.T!<a> | P.T?<a>.P.yes!<> | P.T?<b>.P.no!<>")
	e := NewEngine()
	tr := only(t, e, s)
	ts := run(t, e, tr.Next)
	if len(ts) != 0 {
		t.Fatalf("expected stuck after match (no partner for P.yes), got %v", labels(ts))
	}
	if !strings.Contains(String(tr.Next), "yes") {
		t.Fatalf("wrong branch consumed: %s", String(tr.Next))
	}
	if !strings.Contains(String(tr.Next), "no") {
		t.Fatalf("non-matching branch should remain: %s", String(tr.Next))
	}
}

func TestChoiceCommitsToOneBranch(t *testing.T) {
	s := MustParse("P.a!<> | P.b!<> | P.a?<>.P.ra!<> + P.b?<>.P.rb!<>")
	e := NewEngine()
	ts := run(t, e, s)
	if got := labels(ts); len(got) != 2 || got[0] != "P.a" || got[1] != "P.b" {
		t.Fatalf("labels = %v, want [P.a P.b]", got)
	}
	// Taking P.a must discard the P.b branch of the choice: afterwards
	// the P.b invoke has no partner.
	var next Service
	for _, tr := range ts {
		if tr.Label.String() == "P.a" {
			next = tr.Next
		}
	}
	after := run(t, e, next)
	if len(after) != 0 {
		t.Fatalf("choice not committed, residual transitions %v", labels(after))
	}
}

func TestPrivateNamesDoNotCollide(t *testing.T) {
	// Two scopes both binding "sys": the invoke in one scope must not
	// synchronize with the request in the other.
	s := MustParse("[sys:name](sys.go!<>) | [sys:name](sys.go?<>.P.leak!<>)")
	e := NewEngine()
	ts := run(t, e, s)
	if len(ts) != 0 {
		t.Fatalf("cross-scope synchronization on private name: %v", labels(ts))
	}

	// Within one scope it synchronizes fine.
	s2 := MustParse("[sys:name](sys.go!<> | sys.go?<>.0)")
	tr := only(t, e, s2)
	if got, want := tr.Label.String(), "sys.go"; got != want {
		t.Fatalf("label = %q, want %q", got, want)
	}
}

func TestKillPriorityAndProtection(t *testing.T) {
	// kill(k) must preempt the available communication, terminate the
	// unprotected invoke and spare the protected one.
	s := MustParse("[k:kill]( kill(k) | P.a!<> | P.a?<>.0 | {|P.b!<>|} ) | P.b?<>.0")
	e := NewEngine()
	ts := run(t, e, s)
	if len(ts) != 1 || ts[0].Label.Kind != LKill {
		t.Fatalf("expected only the kill transition, got %v", labels(ts))
	}
	if got, want := ts[0].Label.String(), "†k"; got != want {
		t.Fatalf("kill label = %q, want %q", got, want)
	}
	// After the kill, only the protected invoke survives.
	tr := only(t, e, ts[0].Next)
	if got, want := tr.Label.String(), "P.b"; got != want {
		t.Fatalf("label after kill = %q, want %q", got, want)
	}
}

func TestReplicationServesMultipleClients(t *testing.T) {
	s := MustParse("P.T!<> | P.T!<> | *P.T?<>.P.E!<> | P.E?<> | P.E?<>")
	e := NewEngine()
	cur := s
	want := []string{"P.T", "P.E", "P.T", "P.E"}
	for i, w := range want {
		ts := run(t, e, cur)
		if len(ts) == 0 {
			t.Fatalf("step %d: stuck at %s", i, String(cur))
		}
		var chosen *Transition
		for j := range ts {
			if ts[j].Label.String() == w {
				chosen = &ts[j]
				break
			}
		}
		if chosen == nil {
			t.Fatalf("step %d: no %q among %v", i, w, labels(ts))
		}
		cur = chosen.Next
	}
	ts := run(t, e, cur)
	if len(ts) != 0 {
		t.Fatalf("expected quiescence, got %v", labels(ts))
	}
}

func TestReplicationUnfoldingIsGarbageCollected(t *testing.T) {
	// Stepping a service with an unused replication must not grow the
	// canonical state: s | *s ≡ *s.
	s := MustParse("P.a!<> | P.a?<>.0 | *Q.srv?<>.Q.done!<>")
	e := NewEngine()
	tr := only(t, e, s)
	if got, want := Canon(tr.Next), Canon(MustParse("*Q.srv?<>.Q.done!<>")); got != want {
		t.Fatalf("replication garbage not collected:\n got %s\nwant %s", got, want)
	}
}

func TestUnionExpressionMergesOrigins(t *testing.T) {
	s := MustParse("P.j!<u(T01,T02)> | [x] P.j?<$x>.P.next!<$x> | [y] P.next?<$y>.0")
	e := NewEngine()
	tr := only(t, e, s)
	if got, want := tr.Label.String(), "P.j(T01+T02)"; got != want {
		t.Fatalf("label = %q, want %q", got, want)
	}
	if got := tr.Label.Origins(); len(got) != 2 || got[0] != "T01" || got[1] != "T02" {
		t.Fatalf("origins = %v", got)
	}
	tr = only(t, e, tr.Next)
	if got, want := tr.Label.String(), "P.next(T01+T02)"; got != want {
		t.Fatalf("propagated label = %q, want %q", got, want)
	}
}

func TestStuckInvokeWithUnboundVariable(t *testing.T) {
	// An invoke whose argument variable is not yet bound cannot fire.
	s := MustParse("[x]( P.out!<$x> | P.in?<$x>.0 ) | P.in!<v>")
	e := NewEngine()
	ts := run(t, e, s)
	if got := labels(ts); len(got) != 1 || got[0] != "P.in(v)" {
		t.Fatalf("labels = %v, want [P.in(v)]", got)
	}
	tr := ts[0]
	// After binding, the invoke becomes executable... but with no
	// matching request it stays stuck; check the bound value is there.
	if !strings.Contains(String(tr.Next), "P.out!<v>") {
		t.Fatalf("substitution missing: %s", String(tr.Next))
	}
}

func TestDeterministicTransitionOrder(t *testing.T) {
	s := MustParse("P.b!<> | P.a!<> | P.a?<>.0 | P.b?<>.0")
	e1, e2 := NewEngine(), NewEngine()
	ts1 := run(t, e1, s)
	ts2 := run(t, e2, s)
	if len(ts1) != len(ts2) {
		t.Fatalf("nondeterministic transition count")
	}
	for i := range ts1 {
		if ts1[i].Label.String() != ts2[i].Label.String() {
			t.Fatalf("nondeterministic order: %v vs %v", labels(ts1), labels(ts2))
		}
		if Canon(ts1[i].Next) != Canon(ts2[i].Next) {
			t.Fatalf("nondeterministic successors at %d", i)
		}
	}
}

func TestTwoConcurrentInstancesOfReplicatedScope(t *testing.T) {
	// A replicated service with a private scope must give each
	// instance its own private name: the two pending continuations
	// must not cross-talk. Each instance does in.go -> sys.mid -> out.done.
	src := "*[sys:name]( P.go?<>.sys.mid!<> | sys.mid?<>.P.done!<> ) | P.go!<> | P.go!<> | P.done?<> | P.done?<>"
	s := MustParse(src)
	e := NewEngine()

	// Fire both P.go first, then both internal syncs, then both dones.
	seen := map[string]int{}
	cur := s
	for i := 0; i < 6; i++ {
		ts := run(t, e, cur)
		if len(ts) == 0 {
			t.Fatalf("stuck after %d steps (%v)", i, seen)
		}
		cur = ts[0].Next
		seen[ts[0].Label.String()]++
	}
	if seen["P.go"] != 2 || seen["sys.mid"] != 2 || seen["P.done"] != 2 {
		t.Fatalf("unexpected label multiset: %v", seen)
	}
	ts := run(t, e, cur)
	if len(ts) != 0 {
		t.Fatalf("expected quiescence, got %v", labels(ts))
	}
}

func TestScopeConsumedOnBinding(t *testing.T) {
	s := MustParse("[x]( P.r?<$x>.P.s!<$x> ) | P.r!<v> | P.s?<v>.0")
	e := NewEngine()
	tr := only(t, e, s)
	if strings.Contains(String(tr.Next), "[x]") {
		t.Fatalf("variable scope not consumed: %s", String(tr.Next))
	}
	tr = only(t, e, tr.Next)
	if got, want := tr.Label.String(), "P.s(v)"; got != want {
		t.Fatalf("label = %q, want %q", got, want)
	}
}

func TestNonLinearPatternRequiresEqualValues(t *testing.T) {
	e := NewEngine()
	s := MustParse("[x] P.r?<$x,$x>.0 | P.r!<a,b>")
	if ts := run(t, e, s); len(ts) != 0 {
		t.Fatalf("non-linear pattern matched unequal values: %v", labels(ts))
	}
	s2 := MustParse("[x] P.r?<$x,$x>.0 | P.r!<a,a>")
	if ts := run(t, e, s2); len(ts) != 1 {
		t.Fatalf("non-linear pattern failed on equal values")
	}
}

// TestUnboundVariableInFoldedReplication: the well-formedness check
// covers replication bodies a step leaves folded. Here nothing matches
// P.r, so *P.r?<$x>.0 is never unfolded, and the step still fails as
// it did when every replication was unfolded.
func TestUnboundVariableInFoldedReplication(t *testing.T) {
	for _, src := range []string{
		"*P.r?<$x>.0 | P.s!<>",
		"*[y:name]P.r?<$y>.0 | P.s!<> | P.s?<>.0",
		"*(P.q?<$z>.0 | *P.r?<$x>.0) | P.s!<>",
	} {
		_, err := NewEngine().Step(MustParse(src))
		if err == nil {
			t.Fatalf("%s: step succeeded, want an unbound-variable error", src)
		}
		_, want := referenceStep(NewEngine(), MustParse(src))
		if want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: error %q, reference %v", src, err, want)
		}
	}
	_, err := NewEngine().Step(MustParse("*P.r?<$x>.0 | P.s!<>"))
	if got, want := err.Error(), `cows: request P.r uses unbound variable "x"`; got != want {
		t.Fatalf("error %q, want %q", got, want)
	}
}

// TestStepSkipsUnfiredReplications: in a parallel of replications only
// the one whose request meets the token is unfolded; the others keep
// their nodes (the successor shares them) and the result is the
// reference engine's.
func TestStepSkipsUnfiredReplications(t *testing.T) {
	s := MustParse("P.a!<v> | *[x:var]P.a?<$x>.P.b!<$x> | *[x:var]P.b?<$x>.P.c!<$x> | *[x:var]P.c?<$x>.0")
	var p unfoldPlan
	if err := p.plan(s); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false, false}; !slices.Equal(p.unfold, want) {
		t.Fatalf("unfold = %v, want %v", p.unfold, want)
	}
	tr := only(t, NewEngine(), s)
	want, err := referenceStep(NewEngine(), s)
	if err != nil || len(want) != 1 {
		t.Fatalf("reference: %v %v", want, err)
	}
	if tr.NextCanon() != referenceCanon(want[0].Next) {
		t.Fatalf("successor %s, reference %s", tr.NextCanon(), referenceCanon(want[0].Next))
	}
	kids := tr.Next.(*Par).Kids
	orig := s.(*Par).Kids
	for _, k := range kids {
		if r, ok := k.(*Repl); ok && r != orig[1] && r != orig[2] && r != orig[3] {
			t.Fatalf("replication %s was rebuilt", String(r))
		}
	}
}
