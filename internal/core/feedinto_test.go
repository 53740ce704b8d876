package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/audit"
)

// feedKinds builds one entry of each verdict kind on a fresh case of
// the two-purpose registry twoPurposeRegistry returns: OK (a case's
// first step), violation (a case opening on its last task),
// indeterminate (an inclusive split past a one-configuration cap) and
// unknown purpose (an unregistered case code).
var feedKinds = []struct {
	name  string
	entry func(n int) audit.Entry
	check func(v *Verdict) bool
}{
	{"ok", func(n int) audit.Entry { return entryAt(n, "u", "P", "T1", fmt.Sprintf("LN-ok%d", n)) },
		func(v *Verdict) bool { return v.OK && v.Engine == EngineInterpreted && v.CaseEntries == 1 }},
	{"violation", func(n int) audit.Entry { return entryAt(n, "u", "P", "T3", fmt.Sprintf("LN-bad%d", n)) },
		func(v *Verdict) bool { return !v.OK && v.Violation != nil && v.Explanation != nil }},
	{"indeterminate", func(n int) audit.Entry { return entryAt(n, "u", "P", "T1", fmt.Sprintf("IN-%d", n)) },
		func(v *Verdict) bool { return !v.OK && v.Indeterminate != nil && v.Violation == nil }},
	{"unknown purpose", func(n int) audit.Entry { return entryAt(n, "u", "P", "T1", fmt.Sprintf("ZZ-%d", n)) },
		func(v *Verdict) bool {
			return v.Violation != nil && v.Violation.Kind == ViolationUnknownPurpose && v.Engine == "" && v.CaseEntries == 0
		}},
}

// twoPurposeRegistry binds the linear process to case code LN and the
// inclusive-gateway process to IN.
func twoPurposeRegistry(t *testing.T) *Registry {
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

// TestFeedIntoReusedVerdict: a Verdict reused across FeedInto calls
// carries nothing from the previous entry. Through every order of an
// OK, a violation, an indeterminacy and an unknown purpose, the reused
// verdict equals the one a twin monitor's FeedContext returns for the
// same entry.
func TestFeedIntoReusedVerdict(t *testing.T) {
	reg := twoPurposeRegistry(t)
	monitor := func() *Monitor {
		c := NewChecker(reg, nil)
		c.MaxConfigurations = 1
		return NewMonitor(c)
	}
	var orders [][]int
	var perms func(prefix, rest []int)
	perms = func(prefix, rest []int) {
		if len(rest) == 0 {
			orders = append(orders, append([]int(nil), prefix...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			perms(append(prefix, rest[i]), next)
		}
	}
	perms(nil, []int{0, 1, 2, 3})
	for _, order := range orders {
		into, fresh := monitor(), monitor()
		var v Verdict
		for n, k := range order {
			kind := feedKinds[k]
			e := kind.entry(n)
			if err := into.FeedInto(context.Background(), &e, &v); err != nil {
				t.Fatal(err)
			}
			want, err := fresh.FeedContext(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			if !kind.check(&v) {
				t.Errorf("order %v, step %d (%s): verdict %+v", order, n, kind.name, v)
			}
			if !reflect.DeepEqual(&v, want) {
				t.Errorf("order %v, step %d (%s): reused verdict\n %+v\nfresh verdict\n %+v", order, n, kind.name, v, *want)
			}
		}
	}
}

// TestFeedIntoCanceledResets: a canceled FeedInto returns the context's
// error and leaves the verdict reset, not holding the previous entry's.
func TestFeedIntoCanceledResets(t *testing.T) {
	m := NewMonitor(newChecker(t, linearProc(t), "LN", nil))
	var v Verdict
	e := entryAt(0, "u", "P", "T3", "LN-1")
	if err := m.FeedInto(context.Background(), &e, &v); err != nil || v.Violation == nil {
		t.Fatalf("violation not flagged: %+v %v", v, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e = entryAt(1, "u", "P", "T1", "LN-2")
	if err := m.FeedInto(ctx, &e, &v); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(v, Verdict{Case: "LN-2"}) {
		t.Errorf("canceled feed left %+v", v)
	}
}

// TestSuccessorCacheMatchesMemo: after warm parallel audits on one
// checker, every successor that cached its target holds exactly the
// memo's configuration for its (state, active set), and the reports
// equal a fresh checker's.
func TestSuccessorCacheMatchesMemo(t *testing.T) {
	reg := twoPurposeRegistry(t)
	steps := [][]string{
		{"P:T1", "P:T2", "P:T3"},
		{"P:T1", "P:T3"},
		{"P:T2", "P:T1", "P:T3"},
		{"P:T3"},
		{"P:T1", "P:T1", "P:T2"},
	}
	var entries []audit.Entry
	for i := 0; i < 40; i++ {
		code := "LN"
		if i%2 == 1 {
			code = "IN"
		}
		for _, e := range trailOf(fmt.Sprintf("%s-%d", code, i), steps[i%len(steps)]...).Entries() {
			e.Time = e.Time.Add(time.Duration(i) * time.Hour)
			entries = append(entries, e)
		}
	}
	trail := audit.NewTrail(entries)
	c := NewChecker(reg, nil)
	var got []*Report
	for pass := 0; pass < 2; pass++ {
		reps, err := c.CheckTrailParallel(trail, 4)
		if err != nil {
			t.Fatal(err)
		}
		got = reps
	}
	want, err := NewChecker(reg, nil).CheckTrail(trail)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm parallel reports differ from a fresh checker's")
	}
	cached := 0
	for name, rt := range c.rt.purposes {
		rt.configs.Range(func(_, v any) bool {
			conf := v.(*Configuration)
			for i := range conf.next {
				s := &conf.next[i]
				target := s.conf.Load()
				if target == nil {
					continue
				}
				cached++
				memo, ok := rt.configs.Load(confKey(s.id, s.active.id))
				if !ok || memo.(*Configuration) != target {
					t.Errorf("%s: successor %s caches %p, memo holds %v", name, s.label.Endpoint(), target, memo)
				}
			}
			return true
		})
	}
	if cached == 0 {
		t.Fatal("no successor cached its configuration")
	}
}
