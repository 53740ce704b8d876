package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/audit"
)

// Monitor is the online variant of Algorithm 1 the paper calls for in
// Section 4 ("the analysis should be resumed when new actions within
// the process instance are recorded"): it keeps one live configuration
// set per case and consumes entries as they are logged, flagging the
// first deviating entry of each case immediately.
//
// A Monitor is NOT safe for concurrent use (it owns a Checker); wrap it
// or shard cases across monitors for concurrency.
//
// Sharding contract: a monitor's state is partitioned by case — no
// field is shared across cases except the checker's caches, which are
// concurrency-safe and semantics-free (memoization only). Feeding a
// trail through N monitors, routing every entry of one case to the
// same monitor (ShardCase) and preserving per-case entry order, yields
// verdicts and final Status() identical to one monitor consuming the
// whole trail. TestShardedMonitorEquivalence enforces this under the
// race detector; internal/server builds its worker pool on it.
type Monitor struct {
	checker *Checker
	cases   map[string]*caseState
	// scratch is the steps' working memory across feeds and peeks: the
	// symbol cache every compiled case shares and the interpreter's
	// dedup set and output buffer. Owned by the feeding goroutine.
	scratch replayScratch
	// symHits/symMisses count symbol-cache outcomes. Atomics so an
	// exporter on another goroutine (auditd /metrics) can read them
	// while the shard goroutine feeds.
	symHits, symMisses atomic.Uint64
}

// SymbolCacheStats reports the compiled fast path's symbol-cache
// counters. Safe to call from any goroutine.
func (m *Monitor) SymbolCacheStats() (hits, misses uint64) {
	return m.symHits.Load(), m.symMisses.Load()
}

// step feeds e to the case's run through the monitor's scratch,
// bumping the symbol-cache counters.
func (m *Monitor) step(st *caseState, e *audit.Entry, commit bool) (int, error) {
	n, look, err := st.run.step(m.checker, e, &m.scratch, commit)
	switch look {
	case symHit:
		m.symHits.Add(1)
	case symMiss:
		m.symMisses.Add(1)
	}
	return n, err
}

// ShardCase maps a case id to a shard in [0, shards) by FNV-1a hash.
// All entries of one case land on one shard, which is what preserves
// the sharding contract above. shards < 2 always yields 0.
func ShardCase(caseID string, shards int) int {
	if shards < 2 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(caseID); i++ {
		h ^= uint64(caseID[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

type caseState struct {
	// run is the case's replay position. Cases restored from a snapshot
	// that cannot be mapped onto the automaton run interpreted even
	// with the fast path on; the two engines coexist per case within
	// one monitor.
	run     caseRun
	entries int
	dead    bool // a violation or indeterminacy was already flagged; further entries are reported, not replayed
	// cause is set when the case died of an analysis abandon (budget,
	// configuration cap, recovered panic) rather than a violation.
	cause *Indeterminacy
	// expl is the explanation captured when the case died; repeated
	// feeds of a dead case re-surface it, and snapshots carry it so a
	// restored monitor keeps the narrative.
	expl *Explanation
}

// Verdict is the outcome of feeding one entry.
type Verdict struct {
	Case string
	// OK is true when the entry extended a valid execution.
	OK bool
	// Violation describes the deviation when !OK and the case's analysis
	// reached a verdict.
	Violation *Violation
	// Indeterminate is set when !OK because the case's analysis was
	// abandoned (budget, configuration cap, recovered panic); neither
	// compliance nor violation is claimed for this case.
	Indeterminate *Indeterminacy
	// CaseEntries counts entries seen for the case so far.
	CaseEntries int
	// Configurations is the live configuration count after the entry.
	Configurations int
	// Engine is the replay engine that consumed the entry ("compiled"
	// or "interpreted"); empty when no engine ran (unknown purpose).
	Engine string
	// Explanation accounts for a non-OK verdict (see Report.Explanation);
	// engine-neutral and sticky — repeated feeds of a dead case carry
	// the original explanation, including across snapshot restores.
	Explanation *Explanation
}

// NewMonitor builds a monitor sharing the checker's configuration (the
// checker must not be used elsewhere concurrently).
func NewMonitor(c *Checker) *Monitor {
	return &Monitor{checker: c, cases: map[string]*caseState{}, scratch: replayScratch{isolate: true}}
}

// Watch initializes a case's live state without feeding an entry, so
// Enabled can be queried before any activity (a workflow engine starting
// a fresh instance).
func (m *Monitor) Watch(caseID string) error {
	_, err := m.caseStateFor(caseID, true)
	return err
}

// errUnknownPurpose distinguishes resolution failures in caseStateFor.
var errUnknownPurpose = fmt.Errorf("core: case code is not bound to any registered purpose")

// caseStateFor returns the case's state, starting a case the monitor
// has not seen; keep stores the started case, so queries that must not
// change the monitor pass false.
func (m *Monitor) caseStateFor(caseID string, keep bool) (*caseState, error) {
	if st, ok := m.cases[caseID]; ok {
		return st, nil
	}
	pur := m.checker.registry.ForCase(caseID)
	if pur == nil {
		return nil, fmt.Errorf("%w: %q", errUnknownPurpose, CaseCode(caseID))
	}
	d, _ := m.checker.compiledFor(pur)
	run, err := m.checker.newRun(pur, d)
	st := &caseState{run: run}
	if err != nil {
		st.cause = indeterminacyFor(err)
		if st.cause == nil {
			return nil, err
		}
		// The purpose's process cannot even be set up within budget:
		// the case is born dead-indeterminate instead of erroring out
		// the whole monitoring run.
		st.dead = true
	}
	if keep {
		m.cases[caseID] = st
	}
	return st, nil
}

// Offer is one unit of available work in a monitored case: either a
// task that can start now (Fire) or a task already active that can
// absorb further actions (Active). Failing describes whether the task
// may fail here (an error boundary is reachable).
type Offer struct {
	Role   string
	Task   string
	Active bool
}

// Enabled returns the union, over the case's live configurations, of
// startable tasks and active tasks — a workflow worklist. Deviated
// cases return nil. Like Peek, it registers no case.
func (m *Monitor) Enabled(caseID string) ([]Offer, error) {
	st, err := m.caseStateFor(caseID, false)
	if err != nil {
		return nil, err
	}
	if st.dead {
		return nil, nil
	}
	seen := map[Offer]bool{}
	var out []Offer
	add := func(o Offer) {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	st.run.offers(add)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return !out[i].Active && out[j].Active
	})
	return out, nil
}

// Peek reports whether the entry would extend the case's valid
// execution, without mutating any state — the dry run a workflow engine
// needs to refuse an operation instead of recording a deviation. A case
// the monitor has not seen is stepped from a fresh start it does not
// keep.
func (m *Monitor) Peek(e audit.Entry) (bool, error) {
	st, err := m.caseStateFor(e.Case, false)
	if err != nil {
		if errors.Is(err, errUnknownPurpose) {
			return false, nil
		}
		return false, err
	}
	if st.dead {
		return false, nil
	}
	n, err := m.step(st, &e, false)
	if err != nil {
		return false, fmt.Errorf("core: peeking case %s: %w", e.Case, err)
	}
	return n > 0, nil
}

// Feed consumes one entry.
func (m *Monitor) Feed(e audit.Entry) (*Verdict, error) {
	return m.FeedContext(context.Background(), e)
}

// FeedContext is Feed honoring ctx: FeedInto a verdict of its own.
func (m *Monitor) FeedContext(ctx context.Context, e audit.Entry) (*Verdict, error) {
	v := new(Verdict)
	if err := m.FeedInto(ctx, &e, v); err != nil {
		return nil, err
	}
	return v, nil
}

// FeedInto consumes one entry and writes its verdict into *v, which it
// resets first, so a caller feeding many entries can reuse one Verdict
// (only the pointers a non-OK verdict carries point to fresh values).
// A budget/cap overflow or a panic while advancing the case yields an
// indeterminate verdict and kills the case (further feeds keep
// reporting it indeterminate); other monitored cases are unaffected.
// On error *v is left reset.
//
// Only a violation keeps the entry (Violation.Entry), as a copy: e is
// not retained past the call.
func (m *Monitor) FeedInto(ctx context.Context, e *audit.Entry, v *Verdict) error {
	*v = Verdict{Case: e.Case}
	if err := ctx.Err(); err != nil {
		return err
	}
	st, err := m.caseStateFor(e.Case, true)
	if err != nil {
		if errors.Is(err, errUnknownPurpose) {
			kept := *e
			v.Violation = &Violation{
				Kind:   ViolationUnknownPurpose,
				Entry:  &kept,
				Reason: fmt.Sprintf("case code %q is not bound to any registered purpose", CaseCode(e.Case)),
			}
			v.Explanation = m.checker.explainViolation(nil, e.Case, v.Violation, 0)
			return nil
		}
		return err
	}
	st.entries++
	v.CaseEntries = st.entries
	v.Engine = st.run.engine()

	if st.dead {
		if st.expl == nil && st.cause != nil {
			// Born-dead case (setup exceeded its budget): derive the
			// narrative on first feed.
			st.expl = explainIndeterminacy(e.Case, st.run.pur.Name, st.cause)
		}
		v.Explanation = st.expl
		if st.cause != nil {
			v.Indeterminate = st.cause
		} else {
			kept := *e
			v.Violation = &Violation{
				Kind:   ViolationInvalidExecution,
				Entry:  &kept,
				Reason: "case already deviated from its purpose's process",
			}
		}
		return nil
	}

	n, err := m.step(st, e, true)
	if err != nil {
		if ind := indeterminacyFor(err); ind != nil {
			ind.EntryIndex = st.entries - 1
			st.dead = true
			st.cause = ind
			st.expl = explainIndeterminacy(e.Case, st.run.pur.Name, ind)
			v.Indeterminate = ind
			v.Explanation = st.expl
			return nil
		}
		return fmt.Errorf("core: monitoring case %s: %w", e.Case, err)
	}
	if n == 0 {
		st.dead = true
		v.Configurations = st.run.configCount()
		v.Violation, st.expl = st.run.describe(m.checker, e.Case, st.entries-1, *e)
		v.Explanation = st.expl
		return nil
	}
	v.OK = true
	v.Configurations = n
	return nil
}

// CaseStatus summarizes a monitored case.
type CaseStatus struct {
	Case           string
	Purpose        string
	Entries        int
	Deviated       bool
	Configurations int
	CanComplete    bool
	// Indeterminate is set when the case's analysis was abandoned
	// (budget, configuration cap, recovered panic); Deviated is then
	// true without a violation verdict.
	Indeterminate *Indeterminacy
	// Engine is the replay engine carrying the case: "compiled" or
	// "interpreted". Cases restored from snapshots may stay interpreted
	// even when the fast path is on (DESIGN.md §11).
	Engine string
}

// Status reports all monitored cases, sorted by case id.
func (m *Monitor) Status() ([]CaseStatus, error) {
	var out []CaseStatus
	for id, st := range m.cases {
		cs := CaseStatus{
			Case:           id,
			Purpose:        st.run.pur.Name,
			Entries:        st.entries,
			Deviated:       st.dead,
			Configurations: st.run.configCount(),
			Indeterminate:  st.cause,
			Engine:         st.run.engine(),
		}
		if !st.dead {
			var err error
			// Completion unknowable within budget leaves CanComplete
			// false rather than failing the sweep.
			cs.CanComplete, err = st.run.canComplete()
			if err != nil && indeterminacyFor(err) == nil {
				return nil, err
			}
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Case < out[j].Case })
	return out, nil
}

// Forget drops a case's live state (e.g. after it completed and was
// archived).
func (m *Monitor) Forget(caseID string) { delete(m.cases, caseID) }

// CheckStoreParallel fans the per-case analysis of a store out over
// nWorkers goroutines — the "massive parallelization" the paper notes is
// possible because case analyses are independent (Section 7). Workers
// share the checker (and thus its warm LTS and configuration caches; the
// caches are concurrency-safe). Reports come back keyed by case.
func CheckStoreParallel(c *Checker, store *audit.Store, nWorkers int) (map[string]*Report, error) {
	return CheckStoreParallelContext(context.Background(), c, store, nWorkers)
}

// CheckStoreParallelContext is CheckStoreParallel honoring ctx: workers
// stop claiming cases once the context is done, and the first context
// error is returned.
func CheckStoreParallelContext(ctx context.Context, c *Checker, store *audit.Store, nWorkers int) (map[string]*Report, error) {
	cases := store.Cases()
	reports, err := c.checkCases(ctx, cases, nWorkers, func(caseID string) caseView {
		return caseView{all: store.Case(caseID).View()}
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Report, len(cases))
	for _, rep := range reports {
		out[rep.Case] = rep
	}
	return out, nil
}
