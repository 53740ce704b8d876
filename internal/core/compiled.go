package core

// Compiled fast path (DESIGN.md §11). For well-founded processes the
// observable-trace semantics of Definition 6 is a regular language over
// task/error labels, so Algorithm 1's configuration-set machine can be
// determinized once, ahead of time (internal/automaton), and replay
// becomes one dense-table lookup per entry. The checker compiles each
// purpose lazily on first use (or accepts a preloaded artifact via
// SetCompiled) and falls back to the interpreter — recording the cause
// — whenever the automaton is absent: the purpose is not compilable
// within its budgets, the checker's semantic flags differ from the
// automaton's, or a TraceFn needs live configuration sets.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/audit"
	"repro/internal/automaton"
)

// Engine names recorded in Report.Engine when UseCompiled is on.
const (
	EngineCompiled    = "compiled"
	EngineInterpreted = "interpreted"
)

// compiledResult is one purpose's compile outcome, stored in the shared
// runtime: either a usable automaton or the error explaining its
// absence, plus the semantic flags it was built under.
type compiledResult struct {
	dfa *automaton.DFA
	err error

	strict       bool
	noAbsorption bool
	maxConfigs   int
}

func (c *Checker) effectiveMaxConfigurations() int {
	if c.MaxConfigurations > 0 {
		return c.MaxConfigurations
	}
	return DefaultMaxConfigurations
}

// automatonInput assembles the compiler input for a purpose under this
// checker's semantic flags, reusing the warm shared LTS.
func (c *Checker) automatonInput(pur *Purpose, rt *purposeRT) automaton.CompileInput {
	in := automaton.CompileInput{
		Purpose:           pur.Name,
		Initial:           pur.Initial,
		Observable:        pur.Observable,
		Roles:             c.roles,
		StrictFailureTask: c.StrictFailureTask,
		DisableAbsorption: c.DisableAbsorption,
		MaxConfigurations: c.MaxConfigurations,
		MaxSilentDepth:    c.MaxSilentDepth,
		MaxStates:         c.MaxAutomatonStates,
		System:            rt.sys,
	}
	for _, task := range pur.Process.Tasks() {
		in.Tasks = append(in.Tasks, automaton.TaskSpec{Name: task, Role: pur.Process.TaskRole(task)})
	}
	return in
}

// purposeByName resolves a registered purpose for the compiled-artifact
// API surface.
func (c *Checker) purposeByName(name string) (*Purpose, error) {
	pur := c.registry.Purpose(name)
	if pur == nil {
		return nil, fmt.Errorf("core: unknown purpose %q", name)
	}
	return pur, nil
}

// AutomatonFingerprint returns the content address a compiled automaton
// for the purpose would have under this checker's current flags —
// computable without compiling, so callers can probe an artifact cache
// (encode.LoadAutomaton) before paying for subset construction.
func (c *Checker) AutomatonFingerprint(purpose string) (string, error) {
	pur, err := c.purposeByName(purpose)
	if err != nil {
		return "", err
	}
	return automaton.Fingerprint(c.automatonInput(pur, c.runtime(pur))), nil
}

// EnsureCompiled compiles the purpose's automaton under the checker's
// current flags (replacing any slot compiled under different flags) and
// returns it. Non-compilable purposes return an error wrapping
// automaton.ErrNotCompilable; the failure is recorded so replay falls
// back to the interpreter without retrying the compile.
func (c *Checker) EnsureCompiled(purpose string) (*automaton.DFA, error) {
	pur, err := c.purposeByName(purpose)
	if err != nil {
		return nil, err
	}
	rt := c.runtime(pur)
	rt.compiledMu.Lock()
	defer rt.compiledMu.Unlock()
	if r := rt.compiled.Load(); r != nil && c.flagsMatch(r) {
		return r.dfa, r.err
	}
	return c.compileLocked(pur, rt)
}

// SetCompiled installs a previously compiled automaton (typically
// loaded from an artifact via encode.LoadAutomaton) for the purpose.
// The automaton's fingerprint must equal the one this checker would
// compile to under its current flags; a mismatched artifact is refused
// so a stale cache can never change verdicts.
func (c *Checker) SetCompiled(purpose string, d *automaton.DFA) error {
	pur, err := c.purposeByName(purpose)
	if err != nil {
		return err
	}
	rt := c.runtime(pur)
	want := automaton.Fingerprint(c.automatonInput(pur, rt))
	if d.Fingerprint != want {
		return fmt.Errorf("core: automaton fingerprint %.12s does not match purpose %q under current flags (want %.12s)",
			d.Fingerprint, purpose, want)
	}
	rt.compiledMu.Lock()
	defer rt.compiledMu.Unlock()
	rt.compiled.Store(&compiledResult{
		dfa:          d,
		strict:       c.StrictFailureTask,
		noAbsorption: c.DisableAbsorption,
		maxConfigs:   c.effectiveMaxConfigurations(),
	})
	return nil
}

// CompiledStatus reports the purpose's automaton table sizes, or the
// recorded reason no automaton is in use (never compiled, or the
// compile failed).
func (c *Checker) CompiledStatus(purpose string) (automaton.Stats, error) {
	pur, err := c.purposeByName(purpose)
	if err != nil {
		return automaton.Stats{}, err
	}
	r := c.runtime(pur).compiled.Load()
	switch {
	case r == nil:
		return automaton.Stats{}, fmt.Errorf("core: purpose %q has no compiled automaton", purpose)
	case r.err != nil:
		return automaton.Stats{}, r.err
	default:
		return r.dfa.Stats(), nil
	}
}

func (c *Checker) flagsMatch(r *compiledResult) bool {
	return r.strict == c.StrictFailureTask &&
		r.noAbsorption == c.DisableAbsorption &&
		r.maxConfigs == c.effectiveMaxConfigurations()
}

// compileLocked compiles and records the result; rt.compiledMu held.
func (c *Checker) compileLocked(pur *Purpose, rt *purposeRT) (*automaton.DFA, error) {
	d, err := automaton.Compile(c.automatonInput(pur, rt))
	r := &compiledResult{
		dfa:          d,
		err:          err,
		strict:       c.StrictFailureTask,
		noAbsorption: c.DisableAbsorption,
		maxConfigs:   c.effectiveMaxConfigurations(),
	}
	rt.compiled.Store(r)
	return d, err
}

// compiledFor returns the purpose's automaton when the fast path
// applies, compiling lazily on first use. Otherwise it returns nil and
// the fallback cause to record.
func (c *Checker) compiledFor(pur *Purpose) (*automaton.DFA, string) {
	if !c.UseCompiled {
		return nil, ""
	}
	if c.TraceFn != nil {
		return nil, "TraceFn requires live configuration sets"
	}
	rt := c.runtime(pur)
	r := rt.compiled.Load()
	if r == nil {
		rt.compiledMu.Lock()
		if r = rt.compiled.Load(); r == nil {
			c.compileLocked(pur, rt)
			r = rt.compiled.Load()
		}
		rt.compiledMu.Unlock()
	}
	if !c.flagsMatch(r) {
		return nil, "automaton was compiled under different checker flags"
	}
	if r.err != nil {
		return nil, r.err.Error()
	}
	return r.dfa, ""
}

// symbolForEntry classifies an audit entry into the automaton's
// alphabet. No symbol means no configuration could accept the entry —
// a violation, mirroring the interpreter's matchesEntry.
func symbolForEntry(d *automaton.DFA, e audit.Entry) (int32, bool) {
	if e.Status == audit.Failure {
		return d.SymbolFor(e.Task, "", true)
	}
	return d.SymbolFor(e.Task, e.Role, false)
}

// symCacheSize is the direct-mapped symbol-cache size of one compiled
// replay. Trails draw tasks and roles from a small alphabet, so even a
// tiny cache turns the two map probes of SymbolFor into one string
// compare per entry on the hot path.
const symCacheSize = 32

type symCacheSlot struct {
	dfa        *automaton.DFA // nil = empty slot; also invalidates across automata
	task, role string
	failure    bool
	sym        int32
	ok         bool
}

// symCacheTable is a direct-mapped (task, role, failure) → symbol
// cache. replayCompiled keeps one on its stack per replay; a Monitor
// keeps one across feeds (its slots key on the DFA pointer, so one
// table safely serves every purpose's automaton).
type symCacheTable [symCacheSize]symCacheSlot

// lookup resolves the symbol for (task, role, failure) under d,
// reporting whether the answer came from the cache.
func (t *symCacheTable) lookup(d *automaton.DFA, task, role string, failure bool) (sym int32, ok, hit bool) {
	slot := &t[symCacheIdx(task, role)]
	if slot.dfa == d && slot.task == task && slot.role == role && slot.failure == failure {
		return slot.sym, slot.ok, true
	}
	slot.sym, slot.ok = d.SymbolFor(task, role, failure)
	slot.dfa, slot.task, slot.role, slot.failure = d, task, role, failure
	return slot.sym, slot.ok, false
}

func symCacheIdx(task, role string) uint8 {
	h := uint32(len(task))*131 + uint32(len(role))*31
	if len(task) > 0 {
		h += uint32(task[len(task)-1]) * 7
	}
	if len(role) > 0 {
		h += uint32(role[0])
	}
	return uint8(h % symCacheSize)
}

// replayCompiled is Algorithm 1 as one table lookup per entry.
func (c *Checker) replayCompiled(ctx context.Context, d *automaton.DFA, pur *Purpose, caseID string, entries caseView) (*Report, error) {
	n := entries.len()
	rep := &Report{Case: caseID, Purpose: pur.Name, Entries: n, Engine: EngineCompiled}
	obs := c.Observer
	if obs != nil {
		obs.ReplayBegin(caseID, pur.Name, EngineCompiled, n)
	}
	// cov is hoisted like obs: one nil check per entry, nothing else on
	// the bare hot path.
	var cov *automaton.Coverage
	if c.Coverage != nil {
		cov = c.Coverage.For(d)
		cov.VisitState(d.Start)
	}
	state := d.Start
	done := ctx.Done()
	var cache symCacheTable
	for i := 0; i < n; i++ {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		e := entries.at(i)
		task, role := e.Task, e.Role
		failure := e.Status == audit.Failure
		if failure {
			role = ""
		}
		sym, ok, hit := cache.lookup(d, task, role, failure)
		next := automaton.Reject
		if ok {
			next = d.Step(state, sym)
		}
		if next == automaton.Reject {
			rep.Compliant = false
			rep.Outcome = OutcomeViolation
			rep.Violation = c.describeViolationCompiled(d, state, pur, i, *e)
			rep.StepsReplayed = i
			rep.Explanation = c.explainViolation(pur, caseID, rep.Violation, len(d.States[state].Members))
			if obs != nil {
				obs.EntryRejected(i, e, rep.Explanation)
				obs.ReplayEnd(rep)
			}
			return rep, nil
		}
		if obs != nil {
			obs.EntryAccepted(i, e, StepStats{
				ConfigsBefore:  len(d.States[state].Members),
				ConfigsAfter:   len(d.States[next].Members),
				SymbolCacheHit: hit,
			})
		}
		if cov != nil {
			cov.VisitEdge(state, sym)
			cov.VisitState(next)
		}
		state = next
		if n := len(d.States[state].Members); n > rep.PeakConfigurations {
			rep.PeakConfigurations = n
		}
	}
	st := &d.States[state]
	rep.Compliant = true
	rep.Outcome = OutcomeCompliant
	rep.StepsReplayed = n
	rep.FinalConfigurations = len(st.Members)
	rep.CanComplete = st.CanComplete
	rep.Pending = !rep.CanComplete
	return observed(obs, rep), nil
}

// describeViolationCompiled renders the same diagnostic the interpreter
// would: the expected labels and active tasks are precomputed per DFA
// state, the reason classification reuses the checker's own logic.
func (c *Checker) describeViolationCompiled(d *automaton.DFA, state int32, pur *Purpose, idx int, e audit.Entry) *Violation {
	st := &d.States[state]
	v := &Violation{
		Kind:        ViolationInvalidExecution,
		EntryIndex:  idx,
		Entry:       &e,
		Expected:    append([]string(nil), st.Expected...),
		ActiveTasks: append([]string(nil), st.ActiveTasks...),
	}
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

// IsNotCompilable reports whether err (e.g. from EnsureCompiled or
// CompiledStatus) means the purpose cannot be determinized, as opposed
// to a genuine failure.
func IsNotCompilable(err error) bool {
	return errors.Is(err, automaton.ErrNotCompilable)
}
