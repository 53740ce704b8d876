// Package audit implements the paper's audit trails (Section 3.4): log
// entries capturing who performed which action on which object, within
// which task and process instance, when, and whether the task step
// succeeded (Definition 4); chronologically ordered trails
// (Definition 5); an indexed store that answers the queries Algorithm 1
// and the preventive layer need; and a hash-chained secure log standing
// in for the integrity mechanisms the paper cites ([18,19]).
package audit

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/policy"
)

// Status is the task status indicator of Definition 4.
type Status int

const (
	// Success marks a completed action within a succeeding task step.
	Success Status = iota
	// Failure marks a failed task; per the paper, a failure completes
	// the task and the process proceeds only through an error handler.
	Failure
)

// String returns "success" or "failure".
func (s Status) String() string {
	if s == Failure {
		return "failure"
	}
	return "success"
}

// ParseStatus reads "success" or "failure".
func ParseStatus(s string) (Status, error) {
	switch strings.ToLower(s) {
	case "success":
		return Success, nil
	case "failure":
		return Failure, nil
	default:
		return 0, fmt.Errorf("audit: unknown status %q", s)
	}
}

// Entry is a log entry (Definition 4): (u, r, a, o, q, c, t, s).
type Entry struct {
	User   string
	Role   string
	Action string
	Object policy.Object
	Task   string
	Case   string
	Time   time.Time
	Status Status
}

// String renders the entry as a Figure 4 row.
func (e Entry) String() string {
	return fmt.Sprintf("%s %s %s %s %s %s %s %s",
		e.User, e.Role, e.Action, e.Object, e.Task, e.Case, e.Time.Format(PaperTimeLayout), e.Status)
}

// Before implements the Definition 5 order: strictly earlier timestamp.
func (e Entry) Before(other Entry) bool { return e.Time.Before(other.Time) }

// PaperTimeLayout is the paper's year-month-day-hour-minute timestamp
// format (e.g. 201003121210).
const PaperTimeLayout = "200601021504"

// ParsePaperTime reads a Figure 4 timestamp.
func ParsePaperTime(s string) (time.Time, error) {
	t, err := time.Parse(PaperTimeLayout, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("audit: bad timestamp %q: %w", s, err)
	}
	return t, nil
}

// Trail is a chronologically ordered sequence of entries
// (Definition 5). Construct with NewTrail (which sorts) or maintain
// order through Append.
type Trail struct {
	entries []Entry
	// scans, when set by CountScans, accumulates the entries that
	// whole-trail scans and case-index lookups visit.
	scans *atomic.Int64
}

// NewTrail builds a trail from entries, sorting them chronologically
// (stable, so same-timestamp entries keep their given order — the paper
// itself logs two same-minute entries in Figure 4). Input that is
// already chronological, as decoded logs are, is only checked.
//
// NewTrail takes ownership of entries: it may reorder them in place and
// the trail reads them without a copy, so the caller must not modify
// the slice's entries afterwards. Callers that keep using the slice
// pass a clone. The trail's capacity is clipped to the slice's length,
// so Append never writes past it into the caller's backing array.
func NewTrail(entries []Entry) *Trail {
	t := &Trail{entries: entries[:len(entries):len(entries)]}
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i].Time.Before(t.entries[i-1].Time) {
			sort.SliceStable(t.entries, func(i, j int) bool {
				return t.entries[i].Time.Before(t.entries[j].Time)
			})
			break
		}
	}
	return t
}

// CountScans makes every later whole-trail scan of t (Cases, ByCase,
// TouchingObject, ByUser, Window, IndexByCase) and every case fetched
// through t's CaseIndex add the number of entries it visits to n. It
// is a deterministic work counter for tests that bound how often an
// audit visits each entry; it must not be called concurrently with
// scans.
func (t *Trail) CountScans(n *atomic.Int64) { t.scans = n }

func (t *Trail) scanned(n int) {
	if t.scans != nil {
		t.scans.Add(int64(n))
	}
}

// Append adds an entry, which must not be earlier than the last one.
func (t *Trail) Append(e Entry) error {
	if n := len(t.entries); n > 0 && e.Time.Before(t.entries[n-1].Time) {
		return fmt.Errorf("audit: entry at %s is earlier than trail tail %s",
			e.Time.Format(PaperTimeLayout), t.entries[n-1].Time.Format(PaperTimeLayout))
	}
	t.entries = append(t.entries, e)
	return nil
}

// Len returns the number of entries.
func (t *Trail) Len() int { return len(t.entries) }

// At returns the i-th entry in chronological order.
func (t *Trail) At(i int) Entry { return t.entries[i] }

// Entries returns a copy of the entries in chronological order.
func (t *Trail) Entries() []Entry { return append([]Entry(nil), t.entries...) }

// View returns the entries without copying. The caller must treat the
// slice as read-only; it is invalidated by Append. Replay loops use it
// so that scanning a long case is not dominated by the defensive copy
// Entries makes.
func (t *Trail) View() []Entry { return t.entries }

// Cases returns the distinct case identifiers in order of first
// appearance.
func (t *Trail) Cases() []string {
	t.scanned(len(t.entries))
	seen := map[string]bool{}
	var out []string
	for _, e := range t.entries {
		if !seen[e.Case] {
			seen[e.Case] = true
			out = append(out, e.Case)
		}
	}
	return out
}

// ByCase returns the sub-trail of one process instance, preserving
// order. This is the slice Algorithm 1 replays: "for each case in which
// the object under investigation was accessed, we determine if the
// portion of the audit trail related to that case is a valid execution"
// (Section 4). It scans the whole trail; callers fetching many cases
// use IndexByCase.
func (t *Trail) ByCase(caseID string) *Trail {
	t.scanned(len(t.entries))
	n := 0
	for _, e := range t.entries {
		if e.Case == caseID {
			n++
		}
	}
	// Single-case trails (the per-case replay loop's common shape) are
	// returned as-is: copying thousands of entries per check would
	// dominate the replay itself.
	if n == len(t.entries) {
		return t
	}
	t.scanned(len(t.entries))
	out := make([]Entry, 0, n)
	for _, e := range t.entries {
		if e.Case == caseID {
			out = append(out, e)
		}
	}
	return &Trail{entries: out}
}

// TouchingObject returns the case identifiers under which the given
// object (or a sub-resource of it) was accessed — the starting point of
// a per-object investigation.
func (t *Trail) TouchingObject(o policy.Object) []string {
	t.scanned(len(t.entries))
	seen := map[string]bool{}
	var out []string
	for _, e := range t.entries {
		if o.Covers(e.Object) && !seen[e.Case] {
			seen[e.Case] = true
			out = append(out, e.Case)
		}
	}
	return out
}

// ByUser returns the sub-trail of one user's actions.
func (t *Trail) ByUser(user string) *Trail {
	t.scanned(len(t.entries))
	var out []Entry
	for _, e := range t.entries {
		if e.User == user {
			out = append(out, e)
		}
	}
	return &Trail{entries: out}
}

// Window returns the sub-trail with from ≤ time < to.
func (t *Trail) Window(from, to time.Time) *Trail {
	t.scanned(len(t.entries))
	var out []Entry
	for _, e := range t.entries {
		if !e.Time.Before(from) && e.Time.Before(to) {
			out = append(out, e)
		}
	}
	return &Trail{entries: out}
}

// CaseIndex groups a trail's entries by case, built in one pass by
// IndexByCase. It holds positions into the trail, not entry copies, so
// fetching a case costs O(its own entries) where ByCase rescans the
// whole trail. It is read-only and safe for concurrent use; Append on
// the trail invalidates it.
type CaseIndex struct {
	trail *Trail
	cases []string         // first-appearance order, as Trail.Cases
	slot  map[string]int32 // case id -> its position in cases
	start []int32          // case s occupies pos[start[s]:start[s+1]]
	pos   []int32          // trail positions grouped by case, chronological within one
}

// IndexByCase indexes the trail by case in one pass. Positions are
// int32: a trail of 2^31 entries would hold over 300 GB of entries.
func (t *Trail) IndexByCase() *CaseIndex {
	t.scanned(len(t.entries))
	x := &CaseIndex{trail: t, slot: map[string]int32{}}
	caseOf := make([]int32, len(t.entries))
	var count []int32
	// Consecutive entries often share a case; they share its slot
	// without a map probe.
	prev, s := "", int32(-1)
	for i := range t.entries {
		id := t.entries[i].Case
		if s < 0 || id != prev {
			var ok bool
			if s, ok = x.slot[id]; !ok {
				s = int32(len(x.cases))
				x.slot[id] = s
				x.cases = append(x.cases, id)
				count = append(count, 0)
			}
			prev = id
		}
		caseOf[i] = s
		count[s]++
	}
	x.start = make([]int32, len(x.cases)+1)
	for s, n := range count {
		x.start[s+1] = x.start[s] + n
	}
	// count becomes each case's fill cursor.
	copy(count, x.start)
	x.pos = make([]int32, len(t.entries))
	for i, s := range caseOf {
		x.pos[count[s]] = int32(i)
		count[s]++
	}
	return x
}

// Cases returns the distinct case identifiers in order of first
// appearance, as Trail.Cases does. The slice is shared: treat it as
// read-only.
func (x *CaseIndex) Cases() []string { return x.cases }

// Positions returns caseID's positions into the trail's View, in
// chronological order, or nil for an unknown case: the case's entries
// without a copy. The slice is shared: treat it as read-only.
func (x *CaseIndex) Positions(caseID string) []int32 {
	s, ok := x.slot[caseID]
	if !ok {
		return nil
	}
	pos := x.pos[x.start[s]:x.start[s+1]]
	x.trail.scanned(len(pos))
	return pos
}

// AppendCase appends caseID's entries, in chronological order, to dst
// and returns the extended slice; an unknown case appends nothing.
// Passing the previous result[:0] back reuses one buffer across cases.
func (x *CaseIndex) AppendCase(dst []Entry, caseID string) []Entry {
	pos := x.Positions(caseID)
	dst = slices.Grow(dst, len(pos))
	for _, p := range pos {
		dst = append(dst, x.trail.entries[p])
	}
	return dst
}

// Case returns caseID's sub-trail, the same as the trail's ByCase, in
// O(its own entries).
func (x *CaseIndex) Case(caseID string) *Trail {
	return &Trail{entries: x.AppendCase(nil, caseID)}
}
