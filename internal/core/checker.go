package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/automaton"
	"repro/internal/cows"
	"repro/internal/lts"
	"repro/internal/policy"
)

// errConfigCap marks a configuration-set overflow; the replay loop
// converts it to an indeterminate verdict rather than failing the run.
var errConfigCap = errors.New("core: configuration set cap exceeded")

// errRecoveredPanic marks a panic recovered during one case's analysis.
var errRecoveredPanic = errors.New("core: recovered panic")

// indeterminacyFor classifies err as an abandon-this-case condition
// (budget exhaustion, configuration cap, isolated panic) and returns
// the corresponding Indeterminacy, or nil for genuine errors.
func indeterminacyFor(err error) *Indeterminacy {
	switch {
	case errors.Is(err, errConfigCap):
		return &Indeterminacy{Cause: CauseConfigurationCap, EntryIndex: -1, Reason: err.Error()}
	case errors.Is(err, lts.ErrBudgetExceeded), errors.Is(err, lts.ErrNotFinitelyObservable):
		return &Indeterminacy{Cause: CauseBudgetExceeded, EntryIndex: -1, Reason: err.Error()}
	case errors.Is(err, errRecoveredPanic):
		return &Indeterminacy{Cause: CauseRecoveredPanic, EntryIndex: -1, Reason: err.Error()}
	}
	return nil
}

// indeterminateReport builds the tri-state "cannot decide" report,
// explanation included (every abstention names the budget it hit).
func indeterminateReport(caseID, purpose string, entries, steps int, ind *Indeterminacy) *Report {
	return &Report{
		Case: caseID, Purpose: purpose, Entries: entries,
		Outcome: OutcomeIndeterminate, Indeterminate: ind,
		StepsReplayed: steps,
		Explanation:   explainIndeterminacy(caseID, purpose, ind),
	}
}

// ActiveTask is one element of a configuration's active-task set
// (Definition 6): a task currently in execution, with the role (pool)
// it belongs to.
type ActiveTask struct {
	Role string
	Task string
}

func (a ActiveTask) String() string { return a.Role + "·" + a.Task }

// activeLess orders active tasks by (Role, Task); the internal canonical
// order of activeSet slices (reports re-sort by String for display).
func activeLess(a, b ActiveTask) bool {
	if a.Role != b.Role {
		return a.Role < b.Role
	}
	return a.Task < b.Task
}

// activeSet is an interned active-task set: a sorted, deduplicated slice
// with a dense per-purpose ID. Equal sets share one value, so comparing
// sets — and keying the configuration memo — is an integer compare
// instead of rebuilding and hashing a map per step.
type activeSet struct {
	id    uint32
	tasks []ActiveTask // sorted by activeLess, deduplicated; never mutated
}

// activeInterner deduplicates active sets per purpose.
type activeInterner struct {
	mu    sync.RWMutex
	byKey map[string]*activeSet
}

// intern returns the canonical activeSet for tasks (which must be sorted
// by activeLess and deduplicated). The input slice is copied on first
// sight, so callers may reuse scratch buffers.
func (ai *activeInterner) intern(tasks []ActiveTask) *activeSet {
	var b strings.Builder
	for _, t := range tasks {
		b.WriteString(t.Role)
		b.WriteByte(0)
		b.WriteString(t.Task)
		b.WriteByte(1)
	}
	key := b.String()
	ai.mu.RLock()
	as, ok := ai.byKey[key]
	ai.mu.RUnlock()
	if ok {
		return as
	}
	ai.mu.Lock()
	defer ai.mu.Unlock()
	if as, ok := ai.byKey[key]; ok {
		return as
	}
	as = &activeSet{id: uint32(len(ai.byKey)), tasks: append([]ActiveTask(nil), tasks...)}
	ai.byKey[key] = as
	return as
}

// succ is one precomputed successor of a configuration: an observable
// label, the interned state it leads to, and the interned active-task
// set in that state.
type succ struct {
	label  cows.Label
	state  cows.Service
	id     lts.StateID
	active *activeSet
}

// Configuration is Definition 6: the current state, the set of active
// tasks in that state, and the WeakNext successors with their active
// sets. Configurations are immutable and memoized per purpose by
// (state ID, active-set ID): in looping processes the same handful of
// configurations recur thousands of times, so replay fetches them from
// a hash map instead of rebuilding successor slices and active maps per
// entry. The memo is shared by every checker cloned from the same
// runtime and is safe for concurrent use.
type Configuration struct {
	state  cows.Service
	id     lts.StateID
	active *activeSet
	next   []succ
}

// ActiveTasks returns the sorted active-task set (for reports and
// tests).
func (c *Configuration) ActiveTasks() []ActiveTask {
	out := append([]ActiveTask(nil), c.active.tasks...)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// NextLabels returns the sorted distinct observable labels available
// from the configuration.
func (c *Configuration) NextLabels() []string {
	set := map[string]bool{}
	for _, s := range c.next {
		set[s.label.Endpoint()] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// memoKey identifies a configuration up to state congruence and active
// set — two small dense integers packed into one word.
func (c *Configuration) memoKey() uint64 { return confKey(c.id, c.active.id) }

func confKey(id lts.StateID, activeID uint32) uint64 {
	return uint64(uint32(id))<<32 | uint64(activeID)
}

// purposeRT is the shared per-purpose runtime: the warm LTS system, the
// active-set interner and the configuration memo. All fields are safe
// for concurrent use, so any number of case checks (and checkers cloned
// from the same runtime) share one warm instance.
type purposeRT struct {
	sys     *lts.System
	active  activeInterner
	empty   *activeSet
	configs sync.Map // uint64 (confKey) -> *Configuration

	// compiled is the purpose's ahead-of-time automaton slot (DESIGN.md
	// §11): one compile attempt shared by every checker cloned from the
	// same runtime. compiledMu serializes the lazy compile; readers go
	// through the atomic pointer.
	compiledMu sync.Mutex
	compiled   atomic.Pointer[compiledResult]
}

func newPurposeRT(p *Purpose, maxSilent int) *purposeRT {
	var opts []lts.Option
	if maxSilent > 0 {
		opts = append(opts, lts.WithMaxSilentDepth(maxSilent))
	}
	rt := &purposeRT{
		sys:    lts.NewSystem(p.Observable, opts...),
		active: activeInterner{byKey: map[string]*activeSet{}},
	}
	rt.empty = rt.active.intern(nil)
	return rt
}

// checkerRT is the cache state shared between a checker and its clones:
// one purposeRT per purpose, created on demand.
type checkerRT struct {
	mu       sync.RWMutex
	purposes map[string]*purposeRT
}

// Checker runs Algorithm 1. Checking methods are safe for concurrent
// use (per-purpose LTS systems and configuration memos are shared,
// read-mostly and internally synchronized, so parallel per-case analyses
// share warm caches — the Section 7 parallelization); mutating the
// exported configuration fields or setting TraceFn concurrently with
// checks is not.
type Checker struct {
	registry *Registry
	roles    *policy.RoleHierarchy

	// StrictFailureTask requires a failure entry's sys·Err label to
	// originate from the failing entry's own task. The paper's
	// Algorithm 1 (line 10) accepts any sys·Err; strict matching is
	// the sharper default, switchable for fidelity experiments.
	StrictFailureTask bool

	// DisableAbsorption ablates Algorithm 1's line 8 (actions within an
	// active task are absorbed): every entry must then fire a task
	// label. The ablation demonstrates why the paper's 1-to-n
	// task↔action mapping (Section 3.5) needs the active-task set —
	// any task logging more than one action becomes a false positive.
	DisableAbsorption bool

	// MaxConfigurations caps the configuration set as a safeguard
	// against pathological nondeterminism; 0 means DefaultMaxConfigurations.
	// Exceeding the cap yields an OutcomeIndeterminate report for the
	// case, not an error.
	MaxConfigurations int

	// MaxSilentDepth overrides the per-purpose LTS silent-depth guard
	// (0 = lts.DefaultMaxSilentDepth). It must be set before the first
	// check against a purpose: the per-purpose runtime is built once.
	MaxSilentDepth int

	// TraceFn, when set, is invoked after each replayed entry with the
	// surviving configuration set — the data behind the paper's
	// Figure 6 walkthrough. The configurations are shared memoized
	// values: treat them as read-only. Leave nil in production use.
	// Setting TraceFn disables the compiled fast path (the automaton
	// has no per-entry configuration sets to hand out).
	TraceFn func(step int, entry audit.Entry, configs []*Configuration)

	// UseCompiled enables the ahead-of-time automaton fast path
	// (DESIGN.md §11): replay becomes one table lookup per entry. The
	// automaton is compiled lazily on first use (or eagerly via
	// EnsureCompiled); when it is absent — the purpose is not
	// compilable, compilation exceeded its budgets, or the checker's
	// flags differ from the automaton's — the interpreter runs instead
	// and the report records the fallback cause.
	UseCompiled bool

	// MaxAutomatonStates bounds subset construction when compiling
	// (0 = automaton.DefaultMaxStates). Exceeding it makes the purpose
	// fall back to the interpreter; it never affects verdicts.
	MaxAutomatonStates int

	// Observer, when set, receives per-entry replay events from
	// whichever engine decides the case (see Observer). Unlike TraceFn
	// it does not disable the compiled fast path, and like TraceFn it
	// is per-clone state: Clone() does not copy it, and the observer is
	// invoked synchronously from the replaying goroutine. Leave nil in
	// production hot paths — the nil check is the only cost then.
	Observer Observer

	// Coverage, when set, records which compiled-DFA states and
	// transitions replays visit (automaton.CoverageSet, keyed per
	// automaton). The scenario runner uses it to report per-fixture
	// state/edge coverage; it only observes the compiled engine — the
	// interpreter has no finite table to cover. Like Observer it is
	// per-clone state (Clone does not copy it) and costs one nil check
	// per replay when unset. Leave nil in production.
	Coverage *automaton.CoverageSet

	rt *checkerRT
}

// DefaultMaxConfigurations bounds the configuration set.
const DefaultMaxConfigurations = 4096

// NewChecker builds a checker over the registry. roles may be nil for
// exact role matching.
func NewChecker(reg *Registry, roles *policy.RoleHierarchy) *Checker {
	return &Checker{
		registry:          reg,
		roles:             roles,
		StrictFailureTask: true,
		rt:                &checkerRT{purposes: map[string]*purposeRT{}},
	}
}

// Clone returns a checker sharing the registry, configuration AND the
// warm per-purpose caches (LTS systems and configuration memos — both
// concurrency-safe), for use on another goroutine. Workers fanned out
// over clones therefore share one warm LTS instead of each re-deriving
// it cold; flag fields (StrictFailureTask, MaxConfigurations) remain
// per-clone, and TraceFn/Observer are deliberately NOT copied — an
// observer belongs to exactly one replaying goroutine.
func (c *Checker) Clone() *Checker {
	return &Checker{
		registry:           c.registry,
		roles:              c.roles,
		StrictFailureTask:  c.StrictFailureTask,
		DisableAbsorption:  c.DisableAbsorption,
		MaxConfigurations:  c.MaxConfigurations,
		MaxSilentDepth:     c.MaxSilentDepth,
		UseCompiled:        c.UseCompiled,
		MaxAutomatonStates: c.MaxAutomatonStates,
		rt:                 c.rt,
	}
}

// runtime returns the shared per-purpose runtime, creating it on first
// use. Read path is a shared-lock map hit.
func (c *Checker) runtime(p *Purpose) *purposeRT {
	c.rt.mu.RLock()
	rt, ok := c.rt.purposes[p.Name]
	c.rt.mu.RUnlock()
	if ok {
		return rt
	}
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	if rt, ok := c.rt.purposes[p.Name]; ok {
		return rt
	}
	rt = newPurposeRT(p, c.MaxSilentDepth)
	c.rt.purposes[p.Name] = rt
	return rt
}

// system exposes the warm per-purpose LTS (diagnostics, tests).
func (c *Checker) system(p *Purpose) *lts.System { return c.runtime(p).sys }

// roleMatches reports whether the entry's role may perform a task of the
// given pool role: equality, or specialization under the hierarchy
// (Algorithm 1 line 5: r is a generalization of e.role).
func (c *Checker) roleMatches(entryRole, poolRole string) bool {
	if entryRole == poolRole {
		return true
	}
	if c.roles == nil {
		return false
	}
	return c.roles.Specializes(entryRole, poolRole)
}

// newConfiguration returns the memoized configuration for (state,
// active), building it — WeakNext successors and their interned active
// sets — only on first sight of that pair.
func (c *Checker) newConfiguration(rt *purposeRT, pur *Purpose, state cows.Service, id lts.StateID, active *activeSet) (*Configuration, error) {
	key := confKey(id, active.id)
	if v, ok := rt.configs.Load(key); ok {
		return v.(*Configuration), nil
	}
	obs, err := rt.sys.WeakNext(state)
	if err != nil {
		return nil, fmt.Errorf("core: WeakNext for purpose %q: %w", pur.Name, err)
	}
	conf := &Configuration{state: state, id: id, active: active}
	if len(obs) > 0 {
		conf.next = make([]succ, 0, len(obs))
	}
	var scratch []ActiveTask
	for _, o := range obs {
		var na *activeSet
		na, scratch = nextActive(rt, pur, active, o.Label, scratch)
		conf.next = append(conf.next, succ{
			label:  o.Label,
			state:  o.State,
			id:     o.ID,
			active: na,
		})
	}
	v, _ := rt.configs.LoadOrStore(key, conf)
	return v.(*Configuration), nil
}

// nextActive applies the origin discipline: tasks whose token produced
// the label stop being active; a task label activates its task
// (DESIGN.md §4). The result is interned; scratch is reused across
// successors of one configuration build.
func nextActive(rt *purposeRT, pur *Purpose, active *activeSet, l cows.Label, scratch []ActiveTask) (*activeSet, []ActiveTask) {
	origins := l.Origins()
	out := scratch[:0]
	for _, a := range active.tasks {
		consumed := false
		for _, o := range origins {
			if o == a.Task {
				consumed = true
				break
			}
		}
		if !consumed {
			out = append(out, a)
		}
	}
	if l.Op != "Err" && pur.Process.HasTask(l.Op) {
		na := ActiveTask{Role: l.Partner, Task: l.Op}
		pos := sort.Search(len(out), func(i int) bool { return !activeLess(out[i], na) })
		if pos == len(out) || out[pos] != na {
			out = append(out, ActiveTask{})
			copy(out[pos+1:], out[pos:])
			out[pos] = na
		}
	}
	return rt.active.intern(out), out
}

// matchesEntry reports whether a successor's label accepts the entry
// (Algorithm 1 line 10): a successful entry needs the task's own label
// performed by a pool the entry's role specializes; a failure needs
// sys·Err (strictly: originating from the entry's task).
func (c *Checker) matchesEntry(s *succ, e *audit.Entry) bool {
	if e.Status == audit.Failure {
		if s.label.Op != "Err" {
			return false
		}
		if !c.StrictFailureTask {
			return true
		}
		for _, o := range s.label.Origins() {
			if o == e.Task {
				return true
			}
		}
		return false
	}
	return s.label.Op == e.Task && c.roleMatches(e.Role, s.label.Partner)
}

// isActive reports whether the entry's task is active in the
// configuration under the role hierarchy (Algorithm 1 line 8).
func (c *Checker) isActive(conf *Configuration, e *audit.Entry) bool {
	for _, a := range conf.active.tasks {
		if a.Task == e.Task && c.roleMatches(e.Role, a.Role) {
			return true
		}
	}
	return false
}

// CheckCase replays the case's slice of the trail against the purpose
// its case code names — Algorithm 1. The returned report says whether
// the replay is a valid (prefix of an) execution of the purpose's
// process, and if not, which entry deviated and what was expected.
func (c *Checker) CheckCase(trail *audit.Trail, caseID string) (*Report, error) {
	return c.CheckCaseContext(context.Background(), trail, caseID)
}

// CheckCaseContext is CheckCase honoring ctx: cancellation or deadline
// expiry inside the replay loop returns the context's error promptly.
// The checker's shared caches stay consistent, so the same checker can
// be reused after a cancellation. A panic during the case's analysis is
// recovered and isolated into an OutcomeIndeterminate report instead of
// taking down the whole run.
func (c *Checker) CheckCaseContext(ctx context.Context, trail *audit.Trail, caseID string) (*Report, error) {
	pur := c.registry.ForCase(caseID)
	if pur == nil {
		return c.checkEntries(ctx, nil, caseID, caseView{})
	}
	return c.checkEntries(ctx, pur, caseID, caseView{all: trail.ByCase(caseID).View()})
}

// caseView is one case's chronological entries, read in place: the
// entries of a trail at the positions pos, or all of them, in order,
// when pos is nil. Replay reads each entry through a pointer into the
// trail's own array, so fetching a case copies nothing.
type caseView struct {
	all []audit.Entry
	pos []int32
}

// len returns the number of entries in the case.
func (v caseView) len() int {
	if v.pos == nil {
		return len(v.all)
	}
	return len(v.pos)
}

// at returns the case's i-th entry.
func (v caseView) at(i int) *audit.Entry {
	if v.pos == nil {
		return &v.all[i]
	}
	return &v.all[v.pos[i]]
}

// checkEntries is CheckCaseContext's body over the case's chronological
// entries, given the purpose its case code names (nil when none does).
func (c *Checker) checkEntries(ctx context.Context, pur *Purpose, caseID string, entries caseView) (rep *Report, err error) {
	if pur == nil {
		v := &Violation{
			Kind:   ViolationUnknownPurpose,
			Reason: fmt.Sprintf("case code %q is not bound to any registered purpose", CaseCode(caseID)),
		}
		return &Report{
			Case:        caseID,
			Compliant:   false,
			Outcome:     OutcomeViolation,
			Violation:   v,
			Explanation: explainUnknownPurpose(caseID, v),
		}, nil
	}
	defer func() {
		if r := recover(); r != nil {
			rep = indeterminateReport(caseID, pur.Name, entries.len(), 0, &Indeterminacy{
				Cause:      CauseRecoveredPanic,
				EntryIndex: -1,
				Reason:     fmt.Sprintf("recovered panic: %v", r),
			})
			err = nil
		}
	}()
	return c.replay(ctx, pur, caseID, entries)
}

// initialConfiguration returns the memoized configuration of the
// purpose's initial state with no active tasks.
func (c *Checker) initialConfiguration(rt *purposeRT, pur *Purpose) (*Configuration, error) {
	return c.newConfiguration(rt, pur, pur.Initial, rt.sys.Intern(pur.Initial), rt.empty)
}

// replay decides one case, dispatching to the compiled automaton when
// the fast path is on and available, and to the Algorithm 1 interpreter
// otherwise (recording why — DESIGN.md §11 fallback rules).
func (c *Checker) replay(ctx context.Context, pur *Purpose, caseID string, entries caseView) (*Report, error) {
	if c.UseCompiled {
		d, why := c.compiledFor(pur)
		if d != nil {
			return c.replayCompiled(ctx, d, pur, caseID, entries)
		}
		rep, err := c.replayInterpreted(ctx, pur, caseID, entries)
		if rep != nil {
			rep.Engine = EngineInterpreted
			rep.EngineFallback = why
		}
		return rep, err
	}
	return c.replayInterpreted(ctx, pur, caseID, entries)
}

// replayInterpreted is the body of Algorithm 1 over a case's
// chronological entries. Budget exhaustion and configuration-cap
// overflow yield an OutcomeIndeterminate report; ctx cancellation
// yields the context's error.
func (c *Checker) replayInterpreted(ctx context.Context, pur *Purpose, caseID string, entries caseView) (*Report, error) {
	rt := c.runtime(pur)
	n := entries.len()
	maxConfigs := c.MaxConfigurations
	if maxConfigs <= 0 {
		maxConfigs = DefaultMaxConfigurations
	}

	// obs is hoisted so the hot loop pays one predictable nil check per
	// entry; all observer-only bookkeeping hides behind it.
	obs := c.Observer
	if obs != nil {
		obs.ReplayBegin(caseID, pur.Name, EngineInterpreted, n)
	}

	initial, err := c.initialConfiguration(rt, pur)
	if err != nil {
		if ind := indeterminacyFor(err); ind != nil {
			return observed(obs, indeterminateReport(caseID, pur.Name, n, 0, ind)), nil
		}
		return nil, err
	}
	configs := []*Configuration{initial}
	rep := &Report{Case: caseID, Purpose: pur.Name, Entries: n}

	// Background contexts have a nil Done channel; skip the per-entry
	// poll entirely then.
	done := ctx.Done()

	// Scratch reused across entries: the dedup set (used only by steps
	// with large configuration sets) and the output buffer, which
	// alternates with the input slice, so a warm replay performs no
	// per-entry allocations.
	var seen map[uint64]bool
	var spare []*Configuration

	for i := 0; i < n; i++ {
		e := entries.at(i)
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		nextConfigs, found, err := c.advance(rt, pur, configs, e, maxConfigs, &seen, spare)
		if err != nil {
			if ind := indeterminacyFor(err); ind != nil {
				ind.EntryIndex = i
				return observed(obs, indeterminateReport(caseID, pur.Name, n, i, ind)), nil
			}
			return nil, fmt.Errorf("core: at entry %d of case %s: %w", i, caseID, err)
		}
		if !found {
			rep.Compliant = false
			rep.Outcome = OutcomeViolation
			rep.Violation = c.describeViolation(pur, configs, i, *e)
			rep.StepsReplayed = i
			rep.Explanation = c.explainViolation(pur, caseID, rep.Violation, len(configs))
			if obs != nil {
				obs.EntryRejected(i, e, rep.Explanation)
				obs.ReplayEnd(rep)
			}
			return rep, nil
		}
		if len(nextConfigs) > rep.PeakConfigurations {
			rep.PeakConfigurations = len(nextConfigs)
		}
		if obs != nil {
			obs.EntryAccepted(i, e, c.stepStats(configs, nextConfigs, e))
		}
		spare = configs[:0]
		configs = nextConfigs
		if c.TraceFn != nil {
			c.TraceFn(i, *e, configs)
		}
	}

	rep.Compliant = true
	rep.Outcome = OutcomeCompliant
	rep.StepsReplayed = n
	rep.FinalConfigurations = len(configs)
	for _, conf := range configs {
		done, err := rt.sys.CanTerminateSilently(conf.state)
		if err != nil {
			if ind := indeterminacyFor(err); ind != nil {
				ind.EntryIndex = n
				ind.Reason = "completion check: " + ind.Reason
				return observed(obs, indeterminateReport(caseID, pur.Name, n, n, ind)), nil
			}
			return nil, err
		}
		if done {
			rep.CanComplete = true
			break
		}
	}
	rep.Pending = !rep.CanComplete
	return observed(obs, rep), nil
}

// observed closes an observer's replay with the decided report; the
// identity function when no observer is attached.
func observed(obs Observer, rep *Report) *Report {
	if obs != nil {
		obs.ReplayEnd(rep)
	}
	return rep
}

// stepStats assembles the observer-only per-entry statistics. Only
// called with an observer attached — the extra isActive sweep and
// candidate count never run on the bare hot path.
func (c *Checker) stepStats(configs, next []*Configuration, e *audit.Entry) StepStats {
	st := StepStats{ConfigsBefore: len(configs), ConfigsAfter: len(next)}
	for _, conf := range configs {
		st.Candidates += len(conf.next)
		if !st.Absorbed && !c.DisableAbsorption && e.Status == audit.Success && c.isActive(conf, e) {
			st.Absorbed = true
		}
	}
	return st
}

// advance performs one iteration of Algorithm 1's while loop: it feeds
// one entry to every configuration, absorbing in-task actions (line 8)
// and firing matching weak-next labels (line 10). It returns the
// deduplicated next configuration set and whether any configuration
// accepted the entry. The set is deduplicated by a linear scan while it
// holds at most linearDedup configurations and through *seen above
// that; *seen is created on first need and cleared before reuse, so a
// caller that keeps it, and out, across steps allocates nothing in the
// steady state. The returned slice aliases out's backing array when
// capacity suffices.
func (c *Checker) advance(rt *purposeRT, pur *Purpose, configs []*Configuration, e *audit.Entry, maxConfigs int, seen *map[uint64]bool, out []*Configuration) ([]*Configuration, bool, error) {
	nextConfigs := out[:0]
	found := false
	indexed := false
	addConfig := func(conf *Configuration) error {
		k := conf.memoKey()
		if !indexed {
			for _, have := range nextConfigs {
				if have.memoKey() == k {
					return nil
				}
			}
		} else if (*seen)[k] {
			return nil
		}
		if len(nextConfigs) >= maxConfigs {
			return fmt.Errorf("%w: configuration set exceeds %d", errConfigCap, maxConfigs)
		}
		nextConfigs = append(nextConfigs, conf)
		switch {
		case indexed:
			(*seen)[k] = true
		case len(nextConfigs) > linearDedup:
			if *seen == nil {
				*seen = make(map[uint64]bool, 2*linearDedup)
			} else {
				clear(*seen)
			}
			for _, have := range nextConfigs {
				(*seen)[have.memoKey()] = true
			}
			indexed = true
		}
		return nil
	}

	for _, conf := range configs {
		// Line 8: an action within an active, succeeding task is
		// absorbed by the configuration.
		if !c.DisableAbsorption && e.Status == audit.Success && c.isActive(conf, e) {
			found = true
			if err := addConfig(conf); err != nil {
				return nil, false, err
			}
			continue
		}
		// Line 10: otherwise the entry must fire one of the
		// configuration's weak-next labels.
		for i := range conf.next {
			s := &conf.next[i]
			if !c.matchesEntry(s, e) {
				continue
			}
			found = true
			nc, err := c.newConfiguration(rt, pur, s.state, s.id, s.active)
			if err != nil {
				return nil, false, err
			}
			if err := addConfig(nc); err != nil {
				return nil, false, err
			}
		}
	}
	return nextConfigs, found, nil
}

// linearDedup is the largest next-configuration set advance
// deduplicates by a linear scan. Most steps produce one or two
// configurations, where a scan beats hashing, and clearing a Go map
// costs more than the scan.
const linearDedup = 8

// describeViolation assembles the diagnostic for a rejected entry: what
// the surviving configurations would have accepted instead.
func (c *Checker) describeViolation(pur *Purpose, configs []*Configuration, idx int, e audit.Entry) *Violation {
	v := &Violation{
		Kind:       ViolationInvalidExecution,
		EntryIndex: idx,
		Entry:      &e,
	}
	expected := map[string]bool{}
	activeSet := map[string]bool{}
	for _, conf := range configs {
		for i := range conf.next {
			s := &conf.next[i]
			if s.label.Op == "Err" {
				expected["sys.Err("+strings.Join(s.label.Origins(), "+")+")"] = true
			} else {
				expected[s.label.Endpoint()] = true
			}
		}
		for _, a := range conf.active.tasks {
			activeSet[a.String()] = true
		}
	}
	for l := range expected {
		v.Expected = append(v.Expected, l)
	}
	sort.Strings(v.Expected)
	for a := range activeSet {
		v.ActiveTasks = append(v.ActiveTasks, a)
	}
	sort.Strings(v.ActiveTasks)

	switch {
	case !pur.Process.HasTask(e.Task) && e.Status == audit.Success:
		v.Reason = fmt.Sprintf("task %q is not part of process %q", e.Task, pur.Name)
	case e.Status == audit.Failure:
		v.Reason = fmt.Sprintf("failure of task %q has no matching error handler at this point", e.Task)
	case pur.Process.TaskRole(e.Task) != "" && !c.roleMatches(e.Role, pur.Process.TaskRole(e.Task)):
		v.Reason = fmt.Sprintf("role %q may not perform task %q (pool %q)", e.Role, e.Task, pur.Process.TaskRole(e.Task))
	default:
		v.Reason = fmt.Sprintf("task %q is neither active nor enabled at this point of the process", e.Task)
	}
	return v
}

// CheckTrail replays every case occurring in the trail and returns one
// report per case, ordered by first appearance. The trail is indexed by
// case once, so an audit costs O(entries) plus each case's replay.
func (c *Checker) CheckTrail(trail *audit.Trail) ([]*Report, error) {
	return c.CheckTrailContext(context.Background(), trail)
}

// CheckTrailContext is CheckTrail honoring ctx between and within case
// replays.
func (c *Checker) CheckTrailContext(ctx context.Context, trail *audit.Trail) ([]*Report, error) {
	return c.CheckTrailParallelContext(ctx, trail, 1)
}

// CheckTrailParallel is CheckTrail fanned out over a pool of workers
// sharing this checker's warm caches — the paper's Section 7
// observation that per-case analyses are independent, made concrete.
// Reports are returned in the same order as CheckTrail (first appearance
// of each case), and because configurations and LTS derivations are
// memoized deterministically, the reports are identical to a sequential
// run. workers <= 1 degenerates to CheckTrail.
func (c *Checker) CheckTrailParallel(trail *audit.Trail, workers int) ([]*Report, error) {
	return c.CheckTrailParallelContext(context.Background(), trail, workers)
}

// CheckTrailParallelContext is CheckTrailParallel honoring ctx: workers
// stop claiming cases once the context is done, and the first context
// error is returned.
func (c *Checker) CheckTrailParallelContext(ctx context.Context, trail *audit.Trail, workers int) ([]*Report, error) {
	idx := trail.IndexByCase()
	return c.checkCases(ctx, idx.Cases(), workers, indexedEntries(trail, idx))
}

// CheckObject investigates one object per Section 4: for each case in
// which the object (or a sub-resource) was accessed, replay that case.
func (c *Checker) CheckObject(trail *audit.Trail, obj policy.Object) ([]*Report, error) {
	return c.CheckObjectContext(context.Background(), trail, obj)
}

// CheckObjectContext is CheckObject honoring ctx.
func (c *Checker) CheckObjectContext(ctx context.Context, trail *audit.Trail, obj policy.Object) ([]*Report, error) {
	cases := trail.TouchingObject(obj)
	if len(cases) == 0 {
		return nil, nil
	}
	return c.checkCases(ctx, cases, 1, indexedEntries(trail, trail.IndexByCase()))
}

// indexedEntries fetches a case's entries through idx as positions
// into the trail, so workers replay the trail's entries in place. A
// single-case trail is replayed whole, as ByCase would return it.
func indexedEntries(trail *audit.Trail, idx *audit.CaseIndex) func(string) caseView {
	if len(idx.Cases()) == 1 {
		return func(string) caseView { return caseView{all: trail.View()} }
	}
	return func(caseID string) caseView {
		pos := idx.Positions(caseID)
		if pos == nil {
			return caseView{} // an unknown case; nil positions would mean the whole trail
		}
		return caseView{all: trail.View(), pos: pos}
	}
}

// checkCases decides every case on up to workers goroutines sharing
// this checker's warm caches, and returns the reports in cases order.
// Dispatch is a lock-free work counter over the case list: per-case
// checks on a warm checker are microseconds, so channel coordination
// would dominate. fetch returns one case's chronological entries.
// Workers stop claiming cases once ctx is done or their own case
// failed; the error of the earliest failed case is returned.
func (c *Checker) checkCases(ctx context.Context, cases []string, workers int, fetch func(caseID string) caseView) ([]*Report, error) {
	if len(cases) == 0 {
		return nil, nil
	}
	workers = min(max(workers, 1), len(cases))
	reports := make([]*Report, len(cases))
	errs := make([]error, len(cases))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(cases) {
				return
			}
			if errs[i] = ctx.Err(); errs[i] != nil {
				return
			}
			var entries caseView
			pur := c.registry.ForCase(cases[i])
			if pur != nil {
				entries = fetch(cases[i])
			}
			if reports[i], errs[i] = c.checkEntries(ctx, pur, cases[i], entries); errs[i] != nil {
				return
			}
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}
