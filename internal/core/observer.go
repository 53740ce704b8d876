package core

import "repro/internal/audit"

// Observer receives replay-progress events from both engines. It is
// the core half of the internal/obs tracing subsystem: the checker
// stays free of span/export concerns and only reports what Algorithm 1
// (or its compiled equivalent) actually did, entry by entry.
//
// The nil observer is the fast path: every call site is guarded by a
// single predictable `!= nil` branch and all observer-only statistics
// (candidate counts, absorption checks) are computed only when an
// observer is attached, so the PR 1/PR 4 hot loops stay
// allocation-free when tracing is off.
//
// Observers are invoked synchronously from the replaying goroutine.
// Like TraceFn, the field is per-checker state: Clone() does not copy
// it, and implementations need not be safe for concurrent use unless
// the same checker instance replays cases concurrently. Unlike
// TraceFn, an Observer does not force the interpreter: the compiled
// fast path emits the same event sequence from its DFA tables.
type Observer interface {
	// ReplayBegin opens a case replay. engine is EngineInterpreted or
	// EngineCompiled; entries is the case-slice length.
	ReplayBegin(caseID, purpose, engine string, entries int)
	// EntryAccepted fires after entry step was consumed and the
	// configuration set advanced. e points at the replayed entry
	// itself (trail audits replay the trail's entries in place): treat
	// it as read-only and do not keep it past the call.
	EntryAccepted(step int, e *audit.Entry, st StepStats)
	// EntryRejected fires when entry step diverges from every live
	// configuration; expl carries the expected observable set at that
	// point. ReplayEnd still follows.
	EntryRejected(step int, e *audit.Entry, expl *Explanation)
	// ReplayEnd closes the replay with the decided report (compliant,
	// violation, or indeterminate). It is not called when the replay
	// aborts with a transport-level error (e.g. context cancellation).
	ReplayEnd(rep *Report)
}

// StepStats describes one accepted entry from the engine's point of
// view.
type StepStats struct {
	// ConfigsBefore/ConfigsAfter are the configuration-set sizes
	// around the WeakNext expansion. On the compiled engine these are
	// the member counts of the DFA states, which the differential
	// suite keeps equal to the interpreter's deduplicated sets.
	ConfigsBefore int
	ConfigsAfter  int
	// Candidates is the number of enabled observable transitions
	// (WeakNext targets) examined across the configuration set.
	// Interpreter only; 0 on the compiled engine, whose tables have
	// pre-resolved the candidate set.
	Candidates int
	// Absorbed reports that at least one configuration accepted the
	// entry via line-8 absorption (an action inside an already-active
	// task) rather than a task-boundary transition. Interpreter only.
	Absorbed bool
	// SymbolCacheHit reports that the compiled engine resolved the
	// entry's (task, role, failure) symbol from its direct-mapped
	// cache instead of the DFA's symbol index. Compiled engine only.
	SymbolCacheHit bool
}
