package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/automaton"
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
	// syms caches (task, role, failure) → symbol lookups across feeds
	// for every compiled case; slots key on the DFA pointer so one
	// table serves all purposes. Owned by the feeding goroutine.
	syms symCacheTable
	// symHits/symMisses count syms outcomes. Atomics so an exporter on
	// another goroutine (auditd /metrics) can read them while the shard
	// goroutine feeds.
	symHits, symMisses atomic.Uint64
	// seen and spare are the interpreter's scratch across feeds and
	// peeks (see Checker.advance): the dedup set and the output buffer,
	// which a feed swaps with the fed case's configuration set.
	seen  map[uint64]bool
	spare []*Configuration
}

// SymbolCacheStats reports the compiled fast path's symbol-cache
// counters. Safe to call from any goroutine.
func (m *Monitor) SymbolCacheStats() (hits, misses uint64) {
	return m.symHits.Load(), m.symMisses.Load()
}

// symbolFor resolves an entry's automaton symbol through the monitor's
// persistent cache, bumping the hit/miss counters.
func (m *Monitor) symbolFor(d *automaton.DFA, e *audit.Entry) (int32, bool) {
	task, role := e.Task, e.Role
	failure := e.Status == audit.Failure
	if failure {
		role = ""
	}
	sym, ok, hit := m.syms.lookup(d, task, role, failure)
	if hit {
		m.symHits.Add(1)
	} else {
		m.symMisses.Add(1)
	}
	return sym, ok
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
	purpose *Purpose
	configs []*Configuration
	entries int
	dead    bool // a violation or indeterminacy was already flagged; further entries are reported, not replayed
	// cause is set when the case died of an analysis abandon (budget,
	// configuration cap, recovered panic) rather than a violation.
	cause *Indeterminacy
	// dfa/dstate, when dfa is non-nil, carry the case on the compiled
	// fast path (DESIGN.md §11): dstate is the current automaton state
	// and configs stays nil. Cases restored from a snapshot that cannot
	// be mapped onto the automaton run interpreted instead; the two
	// engines coexist per case within one monitor.
	dfa    *automaton.DFA
	dstate int32
	// expl is the explanation captured when the case died; repeated
	// feeds of a dead case re-surface it, and snapshots carry it so a
	// restored monitor keeps the narrative.
	expl *Explanation
}

// configCount is the live configuration-set size under either engine.
func (cs *caseState) configCount() int {
	if cs.dfa != nil {
		return len(cs.dfa.States[cs.dstate].Members)
	}
	return len(cs.configs)
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
	return &Monitor{checker: c, cases: map[string]*caseState{}}
}

// Watch initializes a case's live state without feeding an entry, so
// Enabled can be queried before any activity (a workflow engine starting
// a fresh instance).
func (m *Monitor) Watch(caseID string) error {
	_, err := m.caseStateFor(caseID)
	return err
}

// errUnknownPurpose distinguishes resolution failures in caseStateFor.
var errUnknownPurpose = fmt.Errorf("core: case code is not bound to any registered purpose")

func (m *Monitor) caseStateFor(caseID string) (*caseState, error) {
	st, ok := m.cases[caseID]
	if ok {
		return st, nil
	}
	pur := m.checker.registry.ForCase(caseID)
	if pur == nil {
		return nil, fmt.Errorf("%w: %q", errUnknownPurpose, CaseCode(caseID))
	}
	if d, _ := m.checker.compiledFor(pur); d != nil {
		st = &caseState{purpose: pur, dfa: d, dstate: d.Start}
		m.cases[caseID] = st
		return st, nil
	}
	initial, err := m.checker.initialConfiguration(m.checker.runtime(pur), pur)
	if err != nil {
		if ind := indeterminacyFor(err); ind != nil {
			// The purpose's process cannot even be set up within budget:
			// the case is born dead-indeterminate instead of erroring out
			// the whole monitoring run.
			st = &caseState{purpose: pur, dead: true, cause: ind}
			m.cases[caseID] = st
			return st, nil
		}
		return nil, err
	}
	st = &caseState{purpose: pur, configs: []*Configuration{initial}}
	m.cases[caseID] = st
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
// cases return nil.
func (m *Monitor) Enabled(caseID string) ([]Offer, error) {
	st, err := m.caseStateFor(caseID)
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
	if st.dfa != nil {
		ds := &st.dfa.States[st.dstate]
		for _, o := range ds.Active {
			add(Offer{Role: o.Role, Task: o.Task, Active: true})
		}
		for _, o := range ds.Fire {
			add(Offer{Role: o.Role, Task: o.Task})
		}
	}
	for _, conf := range st.configs {
		for _, a := range conf.active.tasks {
			add(Offer{Role: a.Role, Task: a.Task, Active: true})
		}
		for i := range conf.next {
			s := &conf.next[i]
			if s.label.Op == "Err" {
				continue
			}
			if st.purpose.Process.HasTask(s.label.Op) {
				add(Offer{Role: s.label.Partner, Task: s.label.Op})
			}
		}
	}
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
// needs to refuse an operation instead of recording a deviation.
func (m *Monitor) Peek(e audit.Entry) (bool, error) {
	st, err := m.caseStateFor(e.Case)
	if err != nil {
		if errors.Is(err, errUnknownPurpose) {
			return false, nil
		}
		return false, err
	}
	if st.dead {
		return false, nil
	}
	if st.dfa != nil {
		sym, ok := m.symbolFor(st.dfa, &e)
		return ok && st.dfa.Step(st.dstate, sym) != automaton.Reject, nil
	}
	maxConfigs := m.checker.MaxConfigurations
	if maxConfigs <= 0 {
		maxConfigs = DefaultMaxConfigurations
	}
	rt := m.checker.runtime(st.purpose)
	_, found, err := m.checker.advance(rt, st.purpose, st.configs, &e, maxConfigs, &m.seen, m.spare)
	if err != nil {
		return false, fmt.Errorf("core: peeking case %s: %w", e.Case, err)
	}
	return found, nil
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
	st, err := m.caseStateFor(e.Case)
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
	v.Engine = EngineInterpreted
	if st.dfa != nil {
		v.Engine = EngineCompiled
	}

	if st.dead {
		if st.expl == nil && st.cause != nil {
			// Born-dead case (setup exceeded its budget): derive the
			// narrative on first feed.
			st.expl = explainIndeterminacy(e.Case, st.purpose.Name, st.cause)
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

	if st.dfa != nil {
		dnext := automaton.Reject
		if sym, ok := m.symbolFor(st.dfa, e); ok {
			dnext = st.dfa.Step(st.dstate, sym)
		}
		if dnext == automaton.Reject {
			st.dead = true
			v.Violation = m.checker.describeViolationCompiled(st.dfa, st.dstate, st.purpose, st.entries-1, *e)
			v.Configurations = st.configCount()
			st.expl = m.checker.explainViolation(st.purpose, e.Case, v.Violation, st.configCount())
			v.Explanation = st.expl
			return nil
		}
		st.dstate = dnext
		v.OK = true
		v.Configurations = st.configCount()
		return nil
	}

	maxConfigs := m.checker.MaxConfigurations
	if maxConfigs <= 0 {
		maxConfigs = DefaultMaxConfigurations
	}
	rt := m.checker.runtime(st.purpose)
	next, found, err := func() (next []*Configuration, found bool, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: %v", errRecoveredPanic, r)
			}
		}()
		return m.checker.advance(rt, st.purpose, st.configs, e, maxConfigs, &m.seen, m.spare)
	}()
	if err != nil {
		if ind := indeterminacyFor(err); ind != nil {
			ind.EntryIndex = st.entries - 1
			st.dead = true
			st.cause = ind
			st.expl = explainIndeterminacy(e.Case, st.purpose.Name, ind)
			v.Indeterminate = ind
			v.Explanation = st.expl
			return nil
		}
		return fmt.Errorf("core: monitoring case %s: %w", e.Case, err)
	}
	if !found {
		st.dead = true
		v.Violation = m.checker.describeViolation(st.purpose, st.configs, st.entries-1, *e)
		v.Configurations = len(st.configs)
		st.expl = m.checker.explainViolation(st.purpose, e.Case, v.Violation, len(st.configs))
		v.Explanation = st.expl
		return nil
	}
	// The case's previous set becomes the next feed's output buffer.
	st.configs, m.spare = next, st.configs[:0]
	v.OK = true
	v.Configurations = len(next)
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
			Purpose:        st.purpose.Name,
			Entries:        st.entries,
			Deviated:       st.dead,
			Configurations: st.configCount(),
			Indeterminate:  st.cause,
			Engine:         EngineInterpreted,
		}
		if st.dfa != nil {
			cs.Engine = EngineCompiled
			if !st.dead {
				cs.CanComplete = st.dfa.States[st.dstate].CanComplete
			}
			out = append(out, cs)
			continue
		}
		if !st.dead {
			y := m.checker.runtime(st.purpose).sys
			for _, conf := range st.configs {
				done, err := y.CanTerminateSilently(conf.state)
				if err != nil {
					if indeterminacyFor(err) != nil {
						// Completion is unknowable within budget; leave
						// CanComplete false rather than failing the sweep.
						break
					}
					return nil, err
				}
				if done {
					cs.CanComplete = true
					break
				}
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
