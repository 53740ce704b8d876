// Package lts derives and explores the labeled transition systems of
// COWS services (paper Section 3.3) and implements the WeakNext function
// of Definition 7, including the finitely-observable guard of
// Definition 8 that underpins the termination results of Section 5.
//
// A System wraps a COWS derivation engine with an observability
// predicate: the paper's set of observable labels is
//
//	L = { r·q | r a role, q a task } ∪ { sys·Err }
//
// (Section 3.5); everything else — gateway bookkeeping, message flows,
// kill signals — is silent. The predicate is injected so other label
// disciplines (e.g. logging message flows too) can reuse the machinery.
//
// # Performance architecture
//
// A System interns every state it meets: the canonical string of a
// service (cows.Canon) is mapped to a dense StateID. A successor's
// canonical string is computed once, by the engine's Step, which hands
// it over on the transition (cows.Transition.NextCanon). All per-state results — outgoing
// transitions, WeakNext sets, silent-termination verdicts — live on the
// interned state record and are derived at most once, guarded by
// sync.Once, so the steady-state read path is an atomic load with no
// lock acquisition at all. The intern table itself is sharded by canon
// hash, and a pointer-identity side index short-circuits
// re-canonicalization of services the System has already seen (every
// successor a System hands out is an interned representative, so the
// replay hot path never recomputes a canonical string). This is what
// makes the paper's Section 7 "massive parallelization" real: any number
// of per-case analyses can share one warm System without convoying on a
// global cache lock.
package lts

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cows"
)

// ErrNotFinitelyObservable reports a silent cycle: from some reachable
// state the service can perform infinitely many consecutive unobservable
// transitions, violating Definition 8. BPMN processes whose encoding
// triggers this are not well-founded (Section 5) and cannot be audited.
var ErrNotFinitelyObservable = errors.New("lts: silent cycle: transition system is not finitely observable")

// DefaultMaxSilentDepth bounds the silent-prefix exploration of WeakNext
// as a belt-and-braces guard in addition to cycle detection.
const DefaultMaxSilentDepth = 100000

// Observability classifies labels as observable (recorded in audit
// trails) or silent.
type Observability func(cows.Label) bool

// StateID is the interned identity of a state: two services receive the
// same StateID iff they are structurally congruent (equal cows.Canon).
// IDs are dense within one System and are the currency higher layers use
// to key their own memoization (e.g. core's configuration cache) without
// carrying canonical strings around.
type StateID int32

// state is the interned record of one distinct state. Derived results
// are computed at most once each (sync.Once / atomic publication), so
// concurrent readers never contend once a state is warm.
type state struct {
	id    StateID
	svc   cows.Service
	canon string

	stepsOnce sync.Once
	steps     []cows.Transition
	stepsErr  error

	weakOnce sync.Once
	weak     []Observable
	weakErr  error

	// term caches CanTerminateSilently. Published atomically; positive
	// verdicts are recorded for every state on a terminating path,
	// negative verdicts only where the full silent closure was explored.
	term atomic.Pointer[termResult]
}

type termResult struct {
	ok  bool
	err error
}

// internShards shards the canon→state table so concurrent cold misses on
// unrelated states do not serialize. Must be a power of two.
const internShards = 64

type internShard struct {
	mu      sync.RWMutex
	byCanon map[string]*state
}

// System memoizes transition derivation for a family of services sharing
// one observability discipline. A System is safe for concurrent use and
// is designed to be *shared*: per-state results are derived once and
// read lock-free afterwards, so Algorithm 1's per-case analyses should
// all run against one warm System — the "massive parallelization" the
// paper notes in Section 7. See Share.
type System struct {
	engine    *cows.Engine
	obs       Observability
	maxSilent int

	shards [internShards]internShard
	// byPtr short-circuits interning for service values already seen,
	// keyed by pointer identity: every successor the System returns is an
	// interned representative, so warm replay never re-canonicalizes.
	byPtr  sync.Map // cows.Service -> *state
	nextID atomic.Int32

	stepsCached atomic.Int64
	weakCached  atomic.Int64
}

// Option configures a System.
type Option func(*System)

// WithMaxSilentDepth overrides the silent-prefix depth guard.
func WithMaxSilentDepth(n int) Option {
	return func(y *System) { y.maxSilent = n }
}

// NewSystem builds a System with the given observability predicate.
func NewSystem(obs Observability, opts ...Option) *System {
	y := &System{
		engine:    cows.NewEngine(),
		obs:       obs,
		maxSilent: DefaultMaxSilentDepth,
	}
	for i := range y.shards {
		y.shards[i].byCanon = map[string]*state{}
	}
	for _, o := range opts {
		o(y)
	}
	return y
}

// Clone returns a fresh System with the same configuration and empty
// caches. Use it only when cache *isolation* is the point (memory
// experiments, cold-start measurements); parallel workers should call
// Share instead — a System's caches are concurrency-safe and re-deriving
// the LTS per goroutine throws the warm caches away.
func (y *System) Clone() *System {
	return NewSystem(y.obs, WithMaxSilentDepth(y.maxSilent))
}

// Share returns y itself, documenting the sharing discipline: a System
// is safe for concurrent use and per-case analyses are independent, so
// fan-out workers share one warm instance instead of cloning cold ones.
func (y *System) Share() *System { return y }

// Observable says whether the system's discipline records the label.
func (y *System) Observable(l cows.Label) bool { return y.obs(l) }

func shardOf(canon string) uint32 {
	// FNV-1a; only shard selection, not identity, depends on it.
	h := uint32(2166136261)
	for i := 0; i < len(canon); i++ {
		h ^= uint32(canon[i])
		h *= 16777619
	}
	return h & (internShards - 1)
}

// intern resolves s to its interned state record, canonicalizing at most
// once per distinct pointer and once per distinct state overall.
func (y *System) intern(s cows.Service) *state {
	if v, ok := y.byPtr.Load(s); ok {
		return v.(*state)
	}
	st := y.internCanon(s, cows.Canon(s))
	if st.svc != s {
		y.byPtr.Store(s, st)
	}
	return st
}

// internCanon resolves s, whose canonical form is canon, to its
// interned state record. A new record's service is indexed by pointer.
func (y *System) internCanon(s cows.Service, canon string) *state {
	sh := &y.shards[shardOf(canon)]
	sh.mu.RLock()
	st, ok := sh.byCanon[canon]
	sh.mu.RUnlock()
	if ok {
		return st
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.byCanon[canon]; ok {
		return st
	}
	st = &state{id: StateID(y.nextID.Add(1) - 1), svc: s, canon: canon}
	sh.byCanon[canon] = st
	y.byPtr.Store(s, st)
	return st
}

// Intern returns the StateID of s, interning it if new. Congruent
// services (equal cows.Canon) always map to the same StateID.
func (y *System) Intern(s cows.Service) StateID { return y.intern(s).id }

// CanonOf returns the canonical form of s, memoized by the intern table
// (for services the System has already seen this is a pointer lookup,
// not a re-canonicalization).
func (y *System) CanonOf(s cows.Service) string { return y.intern(s).canon }

// Representative returns the interned service congruent to s. All
// transitions the System returns already point at representatives, so
// pointer identity of representatives implies state identity. Unlike
// Intern it does not index s by pointer: a caller that hands in a
// throwaway copy (a parsed checkpoint term) and keeps the
// representative leaves nothing in the System that pins the copy.
func (y *System) Representative(s cows.Service) cows.Service {
	if v, ok := y.byPtr.Load(s); ok {
		return v.(*state).svc
	}
	return y.internCanon(s, cows.Canon(s)).svc
}

// StateCount reports how many distinct states have been interned.
func (y *System) StateCount() int { return int(y.nextID.Load()) }

// Transitions returns the outgoing transitions of s, derived at most
// once per distinct state.
func (y *System) Transitions(s cows.Service) ([]cows.Transition, error) {
	return y.transitions(y.intern(s))
}

func (y *System) transitions(st *state) ([]cows.Transition, error) {
	st.stepsOnce.Do(func() {
		ts, err := y.engine.Step(st.svc)
		if err != nil {
			st.stepsErr = fmt.Errorf("deriving transitions: %w", err)
			return
		}
		// Intern successors by the canonical form Step computed, so
		// repeated states share one representative (and downstream
		// interning of them is a pointer lookup).
		for i := range ts {
			ts[i].Next = y.internCanon(ts[i].Next, ts[i].NextCanon()).svc
		}
		st.steps = ts
		y.stepsCached.Add(1)
	})
	return st.steps, st.stepsErr
}

// Observable is one result of WeakNext: an observable label, the state
// reached by performing it after a finite silent prefix, that state's
// interned ID and canonical form. The compliance layer keys its own
// memoization by ID; Canon is retained for rendering and debugging.
type Observable struct {
	Label  cows.Label
	State  cows.Service
	ID     StateID
	Canon  string
	Silent int // length of the silent prefix before the observable step
}

// WeakNext implements Definition 7: the set of states reachable from s
// by a finite (possibly empty) sequence of unobservable transitions
// followed by exactly one observable transition, paired with that
// transition's label.
//
// WeakNext performs a depth-first search over silent transitions. A
// silent edge back into a state on the current DFS stack means the
// service can diverge silently; WeakNext then fails with
// ErrNotFinitelyObservable (Definition 8, Proposition 1).
//
// Results are deduplicated by (label, state), deterministically ordered,
// and computed at most once per distinct state.
func (y *System) WeakNext(s cows.Service) ([]Observable, error) {
	st := y.intern(s)
	st.weakOnce.Do(func() {
		st.weak, st.weakErr = y.computeWeak(st)
		if st.weakErr == nil {
			y.weakCached.Add(1)
		}
	})
	return st.weak, st.weakErr
}

func (y *System) computeWeak(root *state) ([]Observable, error) {
	type dedupKey struct {
		label string
		id    StateID
	}
	var results []Observable
	var keys []string            // results[i].Label.Key()
	seen := map[*state]bool{}    // states fully expanded
	onStack := map[*state]bool{} // states on the current DFS path
	dedup := map[dedupKey]bool{} // (label, state) pairs already emitted

	var dfs func(st *state, depth int) error
	dfs = func(st *state, depth int) error {
		if depth > y.maxSilent {
			return fmt.Errorf("%w (silent depth exceeds %d)", ErrNotFinitelyObservable, y.maxSilent)
		}
		onStack[st] = true
		defer delete(onStack, st)
		seen[st] = true

		ts, err := y.transitions(st)
		if err != nil {
			return err
		}
		for _, tr := range ts {
			next := y.intern(tr.Next)
			if y.obs(tr.Label) {
				dk := dedupKey{label: tr.Label.Key(), id: next.id}
				if !dedup[dk] {
					dedup[dk] = true
					keys = append(keys, dk.label)
					results = append(results, Observable{
						Label:  tr.Label,
						State:  next.svc,
						ID:     next.id,
						Canon:  next.canon,
						Silent: depth,
					})
				}
				continue
			}
			if onStack[next] {
				return fmt.Errorf("%w (cycle through %s)", ErrNotFinitelyObservable, tr.Label)
			}
			if seen[next] {
				continue
			}
			if err := dfs(next, depth+1); err != nil {
				return err
			}
		}
		return nil
	}

	if err := dfs(root, 0); err != nil {
		return nil, err
	}
	sort.Sort(byLabelCanon{keys: keys, obs: results})
	return results, nil
}

// byLabelCanon orders WeakNext results by label key, then canonical
// form, with each key computed once.
type byLabelCanon struct {
	keys []string
	obs  []Observable
}

func (b byLabelCanon) Len() int { return len(b.obs) }

func (b byLabelCanon) Less(i, j int) bool {
	if b.keys[i] != b.keys[j] {
		return b.keys[i] < b.keys[j]
	}
	return b.obs[i].Canon < b.obs[j].Canon
}

func (b byLabelCanon) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.obs[i], b.obs[j] = b.obs[j], b.obs[i]
}

// Quiescent reports whether s has no transitions at all (the process
// instance has run to completion or is stuck).
func (y *System) Quiescent(s cows.Service) (bool, error) {
	ts, err := y.Transitions(s)
	if err != nil {
		return false, err
	}
	return len(ts) == 0, nil
}

// CanTerminateSilently reports whether s can reach a quiescent state via
// unobservable transitions only — i.e. whether the process instance can
// be considered complete without further observable activity. The
// compliance layer uses it to decide whether a fully-replayed trail ends
// in a final state or leaves the process mid-flight.
//
// Verdicts are memoized per state: replaying the same case (or many
// cases ending in congruent states) pays for the silent DFS once.
func (y *System) CanTerminateSilently(s cows.Service) (bool, error) {
	st := y.intern(s)
	if r := st.term.Load(); r != nil {
		return r.ok, r.err
	}
	seen := map[*state]bool{}
	ok, err := y.canTerm(st, seen, 0)
	// The root's silent closure was fully explored, so even a negative
	// (or failed) verdict is complete and safe to publish.
	st.term.Store(&termResult{ok: ok, err: err})
	return ok, err
}

func (y *System) canTerm(st *state, seen map[*state]bool, depth int) (bool, error) {
	if r := st.term.Load(); r != nil {
		return r.ok, r.err
	}
	if depth > y.maxSilent {
		return false, fmt.Errorf("%w (silent depth exceeds %d)", ErrNotFinitelyObservable, y.maxSilent)
	}
	if seen[st] {
		return false, nil
	}
	seen[st] = true
	ts, err := y.transitions(st)
	if err != nil {
		return false, err
	}
	if len(ts) == 0 {
		st.term.Store(&termResult{ok: true})
		return true, nil
	}
	for _, tr := range ts {
		if y.obs(tr.Label) {
			continue
		}
		ok, err := y.canTerm(y.intern(tr.Next), seen, depth+1)
		if err != nil {
			return false, err
		}
		if ok {
			// Positive verdicts are path-independent: a silent route to
			// quiescence exists regardless of how we got here.
			st.term.Store(&termResult{ok: true})
			return true, nil
		}
	}
	// A negative here may be an artifact of the shared visited set (a
	// successor on the current path was skipped), so only the root —
	// whose closure is complete — publishes negatives.
	return false, nil
}

// CacheStats reports memoization sizes (states with derived transitions,
// states with derived WeakNext sets), for diagnostics and benchmarks.
func (y *System) CacheStats() (steps, weak int) {
	return int(y.stepsCached.Load()), int(y.weakCached.Load())
}
