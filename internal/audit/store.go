package audit

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/policy"
)

// OrderMode selects how a Store enforces Definition 5's chronological
// order at ingest time.
type OrderMode int

const (
	// OrderGlobalStrict rejects any entry earlier than the store tail:
	// the whole database is one non-decreasing timeline (the HIS writes
	// entries as actions happen). Equal timestamps are accepted — the
	// paper itself logs two same-minute entries in Figure 4.
	OrderGlobalStrict OrderMode = iota
	// OrderPerCaseLenient enforces time order per case only, with a
	// bounded reorder buffer: a late arrival is re-inserted at its
	// chronological position within its case as long as it lands within
	// ReorderWindow entries of the case tail. Duplicates and excess
	// clock skew are recorded as Anomaly entries instead of errors, so
	// ingest from skewed multi-application sources never fails.
	OrderPerCaseLenient
)

// DefaultReorderWindow is the per-case reorder buffer used when
// StoreOptions.ReorderWindow is zero.
const DefaultReorderWindow = 16

// StoreOptions configures a Store.
type StoreOptions struct {
	Order OrderMode
	// ReorderWindow bounds, per case, how many recent entries a late
	// arrival may be re-inserted behind (OrderPerCaseLenient only).
	// 0 means DefaultReorderWindow.
	ReorderWindow int
}

// AnomalyKind classifies an ingest anomaly recorded in lenient mode.
type AnomalyKind int

const (
	// AnomalyReordered: a late arrival was placed at its chronological
	// position within the reorder window. The case trail stays ordered.
	AnomalyReordered AnomalyKind = iota
	// AnomalySkew: an arrival was earlier than everything in the reorder
	// window; it was placed at the window edge, so residual disorder may
	// remain in the case trail.
	AnomalySkew
	// AnomalyDuplicate: an exact duplicate of a recent entry of the same
	// case; the duplicate was dropped.
	AnomalyDuplicate
)

// String names the kind.
func (k AnomalyKind) String() string {
	switch k {
	case AnomalyReordered:
		return "reordered"
	case AnomalySkew:
		return "skew"
	case AnomalyDuplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("AnomalyKind(%d)", int(k))
	}
}

// Anomaly records one ingest irregularity a lenient store absorbed
// instead of failing.
type Anomaly struct {
	Kind   AnomalyKind
	Case   string
	Entry  Entry
	Detail string
}

// String renders a one-line account.
func (a Anomaly) String() string {
	return fmt.Sprintf("[%s] case %s: %s (%s)", a.Kind, a.Case, a.Detail, a.Entry)
}

// Store is the paper's single audit database: "logs are collected from
// all applications in a single database with the structure given in
// Def. 4" (Section 3.4). It keeps entries in arrival order per case and
// maintains the indexes the investigation workflow needs (case, user,
// object root). Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	opts    StoreOptions
	all     []Entry
	byCase  map[string][]int
	byUser  map[string][]int
	subject map[string][]int // index by data subject of the object

	anomalies []Anomaly
}

// NewStore returns an empty store with strict global ordering.
func NewStore() *Store { return NewStoreWith(StoreOptions{}) }

// NewStoreWith returns an empty store with the given options.
func NewStoreWith(opts StoreOptions) *Store {
	return &Store{
		opts:    opts,
		byCase:  map[string][]int{},
		byUser:  map[string][]int{},
		subject: map[string][]int{},
	}
}

// entryEqual reports field-for-field equality (duplicate detection).
func entryEqual(a, b Entry) bool {
	return a.User == b.User && a.Role == b.Role && a.Action == b.Action &&
		a.Task == b.Task && a.Case == b.Case && a.Status == b.Status &&
		a.Time.Equal(b.Time) && a.Object.Subject == b.Object.Subject &&
		slices.Equal(a.Object.Path, b.Object.Path)
}

// Append records an entry. Under OrderGlobalStrict, entries must arrive
// in non-decreasing time order (equal timestamps are fine) and an
// out-of-order entry is an error naming the offending case. Under
// OrderPerCaseLenient, Append never fails: late arrivals are buffered
// back into per-case order and irregularities are recorded as
// anomalies (see Anomalies).
func (s *Store) Append(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.Order == OrderPerCaseLenient {
		s.appendPerCase(e)
		return nil
	}
	if n := len(s.all); n > 0 && e.Time.Before(s.all[n-1].Time) {
		return fmt.Errorf("audit: out-of-order entry for case %s at %s (store tail %s)",
			e.Case, e.Time.Format(PaperTimeLayout), s.all[n-1].Time.Format(PaperTimeLayout))
	}
	s.insertLocked(e, len(s.byCase[e.Case]))
	return nil
}

// insertLocked appends e to the arrival log and all indexes, placing
// its case index at position pos of the case's (time-ordered) slice.
func (s *Store) insertLocked(e Entry, pos int) {
	idx := len(s.all)
	s.all = append(s.all, e)
	idxs := s.byCase[e.Case]
	idxs = append(idxs, 0)
	copy(idxs[pos+1:], idxs[pos:])
	idxs[pos] = idx
	s.byCase[e.Case] = idxs
	s.byUser[e.User] = append(s.byUser[e.User], idx)
	if subj := e.Object.Subject; subj != "" {
		s.subject[subj] = append(s.subject[subj], idx)
	}
}

// appendPerCase is lenient ingest: per-case order with a bounded
// reorder buffer, duplicates dropped, skew recorded.
func (s *Store) appendPerCase(e Entry) {
	window := s.opts.ReorderWindow
	if window <= 0 {
		window = DefaultReorderWindow
	}
	idxs := s.byCase[e.Case]
	n := len(idxs)

	// Exact duplicates within the window are dropped: multi-source
	// collection commonly delivers the same record twice.
	for back := 0; back < window && back < n; back++ {
		if entryEqual(s.all[idxs[n-1-back]], e) {
			s.anomalies = append(s.anomalies, Anomaly{
				Kind: AnomalyDuplicate, Case: e.Case, Entry: e,
				Detail: fmt.Sprintf("duplicate of case entry %d, dropped", n-1-back),
			})
			return
		}
	}

	// Walk back at most window positions to find the chronological slot.
	pos := n
	for pos > 0 && n-pos < window && e.Time.Before(s.all[idxs[pos-1]].Time) {
		pos--
	}
	switch {
	case pos == n:
		// In order; nothing to record.
	case pos > 0 && e.Time.Before(s.all[idxs[pos-1]].Time):
		// Still earlier than everything inside the window: clock skew
		// beyond the buffer. Place at the window edge and flag it.
		s.anomalies = append(s.anomalies, Anomaly{
			Kind: AnomalySkew, Case: e.Case, Entry: e,
			Detail: fmt.Sprintf("late arrival beyond reorder window %d, placed at window edge", window),
		})
	default:
		s.anomalies = append(s.anomalies, Anomaly{
			Kind: AnomalyReordered, Case: e.Case, Entry: e,
			Detail: fmt.Sprintf("late arrival re-inserted %d position(s) back", n-pos),
		})
	}
	s.insertLocked(e, pos)
}

// AppendAll records a batch.
func (s *Store) AppendAll(entries []Entry) error {
	for _, e := range entries {
		if err := s.Append(e); err != nil {
			return err
		}
	}
	return nil
}

// Anomalies returns the ingest anomalies recorded so far (lenient mode
// only; strict stores never record any).
func (s *Store) Anomalies() []Anomaly {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Anomaly(nil), s.anomalies...)
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.all)
}

// Trail snapshots the full store as a Trail. A strict store's arrival
// log is already chronological; a lenient store's snapshot is sorted
// (stably) first.
func (s *Store) Trail() *Trail {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// The clone is the trail's own: the store keeps appending to s.all,
	// and NewTrail sorts in place.
	if s.opts.Order == OrderPerCaseLenient {
		return NewTrail(slices.Clone(s.all))
	}
	return &Trail{entries: slices.Clone(s.all)}
}

// Case returns the trail of one process instance, in the per-case
// order the store maintains.
func (s *Store) Case(caseID string) *Trail {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idxs := s.byCase[caseID]
	out := make([]Entry, len(idxs))
	for i, idx := range idxs {
		out[i] = s.all[idx]
	}
	return &Trail{entries: out}
}

// Cases returns all case identifiers, sorted.
func (s *Store) Cases() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byCase))
	for c := range s.byCase {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// CasesTouching returns the cases in which the object (or any
// sub-resource) was accessed — the per-object investigation entry point
// of Section 4. It uses the subject index when the object names a
// subject.
func (s *Store) CasesTouching(o policy.Object) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	scan := func(idxs []int) {
		for _, idx := range idxs {
			e := s.all[idx]
			if o.Covers(e.Object) && !seen[e.Case] {
				seen[e.Case] = true
				out = append(out, e.Case)
			}
		}
	}
	if o.Subject != "" && o.Subject != policy.AnySubject && o.Subject != policy.ConsentSubject {
		scan(s.subject[o.Subject])
	} else {
		idxs := make([]int, len(s.all))
		for i := range s.all {
			idxs[i] = i
		}
		scan(idxs)
	}
	sort.Strings(out)
	return out
}

// User returns the trail of one user (arrival order; lenient-mode
// reordering is maintained per case, not per user).
func (s *Store) User(user string) *Trail {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idxs := s.byUser[user]
	out := make([]Entry, len(idxs))
	for i, idx := range idxs {
		out[i] = s.all[idx]
	}
	return &Trail{entries: out}
}
