package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/bpmn"
)

// snapshotFixture is a monitor over a two-purpose registry holding, at
// snapshot time, one mid-flight compliant case (LN-1), one dead
// violating case (LN-2) and one dead indeterminate case (IN-1, killed
// by an artificial configuration cap).
func snapshotChecker(t *testing.T) *Checker {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Register(linearProc(t), "LN"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(orProc(t), "IN"); err != nil {
		t.Fatal(err)
	}
	c := NewChecker(reg, nil)
	// Kills IN-* replays (the OR split overflows a 1-configuration
	// budget) while LN-* replays, which never branch, are untouched.
	c.MaxConfigurations = 1
	return c
}

// TestSnapshotMidTrailResume snapshots a monitor holding compliant,
// violating and indeterminate cases mid-trail, restores it into a fresh
// checker, replays the tail, and requires every post-restore verdict
// and the final Status() to be identical to a monitor that never
// stopped.
func TestSnapshotMidTrailResume(t *testing.T) {
	ln1 := trailOf("LN-1", "P:T1", "P:T2", "P:T3").Entries()
	ln2bad := trailOf("LN-2", "P:T2").Entries()
	in1 := trailOf("IN-1", "P:T1", "P:T3").Entries()

	// Feed indices address the three trails back to back: 0-2 are ln1,
	// 3-4 ln2bad, 5-6 in1. The head runs before the snapshot, the tail
	// after the restore (refeeding the dead cases to check their
	// verdicts stay sticky and identical).
	feedHead := []int{0, 1, 3, 5, 6} // ln1[0], ln1[1], ln2bad[0], in1[0], in1[1]
	feedTail := []int{2, 3, 5}       // ln1[2], ln2bad[0] again, in1[0] again

	feed := func(m *Monitor, idx int) *Verdict {
		t.Helper()
		var v *Verdict
		var err error
		switch {
		case idx < 3:
			v, err = m.Feed(ln1[idx])
		case idx < 5:
			v, err = m.Feed(ln2bad[idx-3])
		default:
			v, err = m.Feed(in1[idx-5])
		}
		if err != nil {
			t.Fatalf("feed %d: %v", idx, err)
		}
		return v
	}

	// Reference: continuous monitor over head + tail.
	ref := NewMonitor(snapshotChecker(t))
	for _, i := range feedHead {
		feed(ref, i)
	}
	var refTail []*Verdict
	for _, i := range feedTail {
		refTail = append(refTail, feed(ref, i))
	}

	// Interrupted monitor: head, snapshot, restore, tail.
	m1 := NewMonitor(snapshotChecker(t))
	for _, i := range feedHead {
		feed(m1, i)
	}
	var buf strings.Builder
	if err := m1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// The snapshot is the deduplicated v2 format and records the
	// indeterminacy cause.
	var st MonitorState
	if err := json.Unmarshal([]byte(buf.String()), &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || len(st.States) == 0 {
		t.Fatalf("snapshot version=%d states=%d, want v2 with a state table", st.Version, len(st.States))
	}
	if cs := st.Cases["IN-1"]; !cs.Dead || cs.Cause == nil || cs.Cause.Cause != CauseConfigurationCap {
		t.Fatalf("IN-1 snapshot lost its indeterminacy: %+v", cs)
	}
	if cs := st.Cases["LN-2"]; !cs.Dead || cs.Cause != nil {
		t.Fatalf("LN-2 snapshot should be dead without a cause: %+v", cs)
	}

	m2, err := RestoreMonitor(snapshotChecker(t), strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range feedTail {
		v := feed(m2, i)
		if !reflect.DeepEqual(v, refTail[k]) {
			t.Errorf("tail verdict %d diverges after restore:\n got %+v\nwant %+v", k, v, refTail[k])
		}
	}

	refSt := statusOf(t, ref)
	gotSt := statusOf(t, m2)
	if !reflect.DeepEqual(gotSt, refSt) {
		t.Fatalf("final status diverges:\n got %+v\nwant %+v", gotSt, refSt)
	}
	for _, cs := range gotSt {
		switch cs.Case {
		case "LN-1":
			if cs.Deviated || cs.Entries != 3 {
				t.Errorf("LN-1 = %+v, want 3 compliant entries", cs)
			}
		case "LN-2":
			if !cs.Deviated || cs.Indeterminate != nil {
				t.Errorf("LN-2 = %+v, want dead violation", cs)
			}
		case "IN-1":
			if !cs.Deviated || cs.Indeterminate == nil || cs.Indeterminate.Cause != CauseConfigurationCap {
				t.Errorf("IN-1 = %+v, want dead indeterminate (configuration cap)", cs)
			}
		}
	}
}

// TestSnapshotRejectsOtherVersions: only version 2 restores; a
// version-1 (inline-term) snapshot or a future version is refused
// rather than half-loaded.
func TestSnapshotRejectsOtherVersions(t *testing.T) {
	for _, v := range []int{0, 1, 3} {
		raw := fmt.Sprintf(`{"version":%d,"cases":{}}`, v)
		if _, err := RestoreMonitor(snapshotChecker(t), strings.NewReader(raw)); err == nil {
			t.Errorf("version %d snapshot accepted", v)
		}
	}
}

func statusOf(t *testing.T, m *Monitor) []CaseStatus {
	t.Helper()
	st, err := m.Status()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(st, func(i, j int) bool { return st[i].Case < st[j].Case })
	return st
}

// sharedTableChecker registers two purposes whose processes encode to
// the same COWS terms, so their cases share state-table entries.
func sharedTableChecker(t *testing.T, compiled bool) *Checker {
	t.Helper()
	reg := NewRegistry()
	for _, p := range []struct{ name, code string }{{"LinearA", "LA"}, {"LinearB", "LB"}} {
		proc := bpmn.NewBuilder(p.name).Pool("P").
			Start("S", "P").Task("T1", "P", "").Task("T2", "P", "").Task("T3", "P", "").End("E", "P").
			Seq("S", "T1", "T2", "T3", "E").MustBuild()
		if _, err := reg.Register(proc, p.code); err != nil {
			t.Fatal(err)
		}
	}
	c := NewChecker(reg, nil)
	c.UseCompiled = compiled
	return c
}

// TestLoadStateSharedTableTwoPurposes restores a snapshot whose table
// entries are each referenced by many cases of two purposes. Restore
// resolves a term once per purpose, so every restored configuration
// must hold its own purpose system's representative and StateID, and
// every case must keep feeding exactly as on the monitor that wrote
// the snapshot.
func TestLoadStateSharedTableTwoPurposes(t *testing.T) {
	steps := []string{"P:T1", "P:T2", "P:T3"}
	type run struct {
		id         string
		head, tail []audit.Entry
	}
	var runs []run
	for _, code := range []string{"LA", "LB"} {
		for i := 0; i < 9; i++ {
			id := fmt.Sprintf("%s-%d", code, i)
			all := trailOf(id, steps...).Entries()
			cut := 1 + i%3
			runs = append(runs, run{id, all[:cut], all[cut:]})
		}
		bad := fmt.Sprintf("%s-bad", code)
		e := trailOf(bad, "P:T2").Entries()
		runs = append(runs, run{bad, e, e})
	}

	for _, compiled := range []bool{false, true} {
		writer := NewMonitor(sharedTableChecker(t, compiled))
		for _, r := range runs {
			for _, e := range r.head {
				if _, err := writer.Feed(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := writer.State()
		purposesOf := map[int]map[string]bool{}
		for _, cs := range st.Cases {
			for _, cfg := range cs.Configs {
				if purposesOf[cfg.StateRef] == nil {
					purposesOf[cfg.StateRef] = map[string]bool{}
				}
				purposesOf[cfg.StateRef][cs.Purpose] = true
			}
		}
		shared := 0
		for _, ps := range purposesOf {
			if len(ps) == 2 {
				shared++
			}
		}
		if shared == 0 {
			t.Fatalf("compiled=%v: no table entry is shared by both purposes (table %d terms)", compiled, len(st.States))
		}

		// The restoring monitor first runs a full case of each purpose,
		// so each system has already interned every state of the run
		// with trees of its own: a configuration holding the other
		// purpose's tree is caught by pointer identity below.
		m := NewMonitor(sharedTableChecker(t, compiled))
		for _, code := range []string{"LA", "LB"} {
			for _, e := range trailOf(code+"-warm", steps...).Entries() {
				if _, err := m.Feed(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := m.LoadState(st); err != nil {
			t.Fatalf("compiled=%v: %v", compiled, err)
		}
		for id, cs := range m.cases {
			rt := m.checker.runtime(cs.run.pur)
			for _, conf := range cs.run.configs {
				if rt.sys.Representative(conf.state) != conf.state || rt.sys.Intern(conf.state) != conf.id {
					t.Fatalf("compiled=%v: case %s holds a state not interned by purpose %s", compiled, id, cs.run.pur.Name)
				}
			}
		}

		for _, r := range runs {
			for _, e := range r.tail {
				want, err := writer.Feed(e)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.Feed(e)
				if err != nil {
					t.Fatal(err)
				}
				// Dead cases resume on the interpreter under either
				// engine, so the engine marker is not compared.
				got.Engine, want.Engine = "", ""
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("compiled=%v: case %s verdict diverges after restore:\n got %+v\nwant %+v", compiled, r.id, got, want)
				}
			}
		}
		var gotSt []CaseStatus
		for _, cs := range statusOf(t, m) {
			if !strings.HasSuffix(cs.Case, "-warm") {
				cs.Engine = ""
				gotSt = append(gotSt, cs)
			}
		}
		want := statusOf(t, writer)
		for i := range want {
			want[i].Engine = ""
		}
		if !reflect.DeepEqual(gotSt, want) {
			t.Fatalf("compiled=%v: status diverges after restore:\n got %+v\nwant %+v", compiled, gotSt, want)
		}
	}
}

// TestLoadStateBadTableTerm: a table term that does not parse fails the
// restore, naming a case that references it.
func TestLoadStateBadTableTerm(t *testing.T) {
	m := NewMonitor(sharedTableChecker(t, false))
	for _, id := range []string{"LA-1", "LB-1", "LA-2"} {
		if _, err := m.Feed(trailOf(id, "P:T1").Entries()[0]); err != nil {
			t.Fatal(err)
		}
	}
	st := m.State()
	bad := st.Cases["LA-2"].Configs[0].StateRef
	st.States[bad] = "P.T!<é>"
	var users []string
	for id, cs := range st.Cases {
		for _, cfg := range cs.Configs {
			if cfg.StateRef == bad {
				users = append(users, id)
				break
			}
		}
	}
	err := NewMonitor(sharedTableChecker(t, false)).LoadState(st)
	if err == nil {
		t.Fatal("snapshot with an unparsable table term restored")
	}
	named := false
	for _, id := range users {
		named = named || strings.Contains(err.Error(), "case "+id+":")
	}
	if !named || !strings.Contains(err.Error(), `"é"`) {
		t.Fatalf("error %q names neither a referencing case of %v nor the bad character", err, users)
	}
}

// TestSplitRestoreParsesTermsOnce restores one snapshot into one
// monitor and, split, into eight monitors over clones of one checker,
// as a sharded server does: every part resolves its terms into the one
// memo the split shares, one slice per purpose, so both restores
// resolve each table term once per purpose that references it; and the
// eight parts together hold the same cases in the same state as the
// single monitor.
func TestSplitRestoreParsesTermsOnce(t *testing.T) {
	steps := []string{"P:T1", "P:T2", "P:T3"}
	writer := NewMonitor(sharedTableChecker(t, false))
	for _, code := range []string{"LA", "LB"} {
		for i := 0; i < 40; i++ {
			for _, e := range trailOf(fmt.Sprintf("%s-%d", code, i), steps...).Entries()[:1+i%3] {
				if _, err := writer.Feed(e); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	data, err := json.Marshal(writer.State())
	if err != nil {
		t.Fatal(err)
	}
	restore := func(shards int) (resolved int, status []CaseStatus) {
		t.Helper()
		var st MonitorState
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		c := sharedTableChecker(t, false)
		parts := st.Split(shards)
		for i, part := range parts {
			if part == nil {
				continue
			}
			if part.terms != st.terms {
				t.Fatalf("%d shards, part %d: does not share the split's term memo", shards, i)
			}
			m := NewMonitor(c.Clone())
			if err := m.LoadState(part); err != nil {
				t.Fatalf("%d shards, part %d: %v", shards, i, err)
			}
			status = append(status, statusOf(t, m)...)
		}
		sort.Slice(status, func(i, j int) bool { return status[i].Case < status[j].Case })
		if len(st.terms.byRT) != 2 {
			t.Fatalf("%d shards: memo holds %d term slices, want one per purpose (2)", shards, len(st.terms.byRT))
		}
		for _, terms := range st.terms.byRT {
			for _, ts := range terms {
				if ts.state != nil {
					resolved++
				}
			}
		}
		return resolved, status
	}
	var st MonitorState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	pairs := map[string]bool{}
	for _, cs := range st.Cases {
		for _, cfg := range cs.Configs {
			pairs[fmt.Sprint(cs.Purpose, cfg.StateRef)] = true
		}
	}
	resolved1, status1 := restore(1)
	resolved8, status8 := restore(8)
	if resolved1 != len(pairs) || resolved8 != len(pairs) {
		t.Errorf("terms resolved: %d into 1 monitor, %d into 8; want %d (one per purpose and term)", resolved1, resolved8, len(pairs))
	}
	if !reflect.DeepEqual(status8, status1) {
		t.Errorf("8-part restore status differs from the 1-monitor restore:\n got %+v\nwant %+v", status8, status1)
	}
	if want := statusOf(t, writer); !reflect.DeepEqual(status1, want) {
		t.Errorf("restored status differs from the writer's:\n got %+v\nwant %+v", status1, want)
	}
}
