package audit

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// TestNewTrailStableOrder: out-of-order input is sorted stably, so the
// paper's same-minute rows (Figure 4) keep their given order, and
// already-chronological input comes back unchanged.
func TestNewTrailStableOrder(t *testing.T) {
	a := mkEntry("John", "GP", "read", "[Jane]EPR/Clinical", "T01", "HT-1", "201003121210", Success)
	b := mkEntry("John", "GP", "write", "[Jane]EPR/Clinical", "T02", "HT-1", "201003121210", Success)
	c := mkEntry("Mary", "GP", "read", "[David]EPR/Clinical", "T01", "HT-2", "201003121210", Success)
	late := mkEntry("Bob", "Cardiologist", "read", "[Jane]EPR/Clinical", "T06", "HT-1", "201003141010", Success)
	early := mkEntry("John", "GP", "read", "[David]EPR/Demographics", "T01", "HT-2", "201003120900", Success)

	got := NewTrail([]Entry{late, b, a, early, c}).Entries()
	if want := []Entry{early, b, a, c, late}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted trail = %v, want %v", got, want)
	}
	in := []Entry{early, c, a, b, late}
	if got := NewTrail(in).Entries(); !reflect.DeepEqual(got, in) {
		t.Fatalf("chronological input reordered: %v", got)
	}
}

// TestCaseIndex: the one-pass index fetches exactly ByCase's slice for
// every case, lists cases as Cases does, and visits each entry a fixed
// number of times however many cases are fetched.
func TestCaseIndex(t *testing.T) {
	tr := NewTrail(sampleEntries())
	var visits atomic.Int64
	tr.CountScans(&visits)
	x := tr.IndexByCase()
	if !reflect.DeepEqual(x.Cases(), tr.Cases()) {
		t.Fatalf("index cases %v, trail cases %v", x.Cases(), tr.Cases())
	}
	want := map[string][]Entry{}
	for _, id := range x.Cases() {
		want[id] = tr.ByCase(id).Entries()
	}
	visits.Store(0)
	var buf []Entry
	for _, id := range x.Cases() {
		buf = x.AppendCase(buf[:0], id)
		if !reflect.DeepEqual(buf, want[id]) {
			t.Fatalf("case %s: index %v, ByCase %v", id, buf, want[id])
		}
		if got := x.Case(id).Entries(); !reflect.DeepEqual(got, buf) {
			t.Fatalf("case %s: Case %v, AppendCase %v", id, got, buf)
		}
	}
	// Each fetch visits only its own case's entries.
	if visits.Load() != int64(2*tr.Len()) {
		t.Errorf("fetching every case twice visited %d entries, want %d", visits.Load(), 2*tr.Len())
	}
	if got := x.AppendCase(buf[:0], "XX-1"); len(got) != 0 {
		t.Errorf("unknown case fetched %v", got)
	}
	if x.Case("XX-1").Len() != 0 {
		t.Error("unknown case has a non-empty sub-trail")
	}
	if empty := NewTrail(nil).IndexByCase(); len(empty.Cases()) != 0 {
		t.Errorf("empty trail indexed cases %v", empty.Cases())
	}
}
