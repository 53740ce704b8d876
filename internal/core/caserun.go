package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/automaton"
	"repro/internal/cows"
)

// caseRun is one case's replay position: a state of the compiled
// automaton when dfa is set (DESIGN.md §11), Algorithm 1's live
// configuration set otherwise (configs is nil on a compiled run). The
// audit (Checker.replay) and the monitor step the same run, and only
// its methods ask which engine carries the case.
type caseRun struct {
	pur     *Purpose
	rt      *purposeRT
	dfa     *automaton.DFA
	dstate  int32
	configs []*Configuration
}

// newRun starts a case of pur at d's start state, or without d at the
// initial configuration. On error the run still names its purpose, so
// a case that cannot be set up can be reported dead.
func (c *Checker) newRun(pur *Purpose, d *automaton.DFA) (caseRun, error) {
	r := caseRun{pur: pur, rt: c.runtime(pur)}
	if d != nil {
		r.dfa, r.dstate = d, d.Start
		return r, nil
	}
	initial, err := c.initialConfiguration(r.rt, pur)
	if err != nil {
		return r, err
	}
	r.configs = []*Configuration{initial}
	return r, nil
}

// replayScratch is what one replaying goroutine carries from step to
// step: the symbol cache, the interpreter's dedup set and spare output
// buffer (see Checker.advance), and the coverage record (nil when off).
type replayScratch struct {
	syms  symCacheTable
	seen  map[uint64]bool
	spare []*Configuration
	cov   *automaton.Coverage
	// isolate turns a panic in an interpreted step into an
	// errRecoveredPanic error, so a monitor abandons only that case.
	// The audit recovers once per case instead (checkEntries).
	isolate bool
}

// step feeds one entry to the run (Algorithm 1 lines 8–10) and returns
// the size of the configuration set it leads to: 0 when no
// configuration accepts the entry. The run moves only on an accepted
// entry with commit set, so describe can say what a rejected one missed.
func (r *caseRun) step(c *Checker, e *audit.Entry, sx *replayScratch, commit bool) (int, symLookup, error) {
	d := r.dfa
	if d == nil {
		var next []*Configuration
		var err error
		if sx.isolate {
			next, err = r.advanceIsolated(c, e, sx)
		} else {
			next, err = c.advance(r.rt, r.pur, r.configs, e, c.effectiveMaxConfigurations(), &sx.seen, sx.spare)
		}
		if commit && len(next) > 0 {
			// The previous set becomes the next step's output buffer.
			r.configs, sx.spare = next, r.configs[:0]
		}
		return len(next), symNone, err
	}
	// The symbol-cache probe is written out here, so a cached symbol
	// costs the compiled step no call of its own.
	task, role, failure := symKey(e)
	slot := &sx.syms[symCacheIdx(task, role)]
	look := symHit
	if slot.dfa != d || !sameString(slot.task, task) || !sameString(slot.role, role) || slot.failure != failure {
		slot.fill(d, task, role, failure)
		look = symMiss
	}
	next := automaton.Reject
	if slot.ok {
		next = d.Step(r.dstate, slot.sym)
	}
	if next == automaton.Reject {
		return 0, look, nil
	}
	if sx.cov != nil {
		sx.cov.VisitEdge(r.dstate, slot.sym)
		sx.cov.VisitState(next)
	}
	if commit {
		r.dstate = next
	}
	return len(d.States[next].Members), look, nil
}

// advanceIsolated is the interpreter's advance with a panic returned
// as an errRecoveredPanic error.
func (r *caseRun) advanceIsolated(c *Checker, e *audit.Entry, sx *replayScratch) (next []*Configuration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errRecoveredPanic, p)
		}
	}()
	return c.advance(r.rt, r.pur, r.configs, e, c.effectiveMaxConfigurations(), &sx.seen, sx.spare)
}

// engine names the engine carrying the run.
func (r *caseRun) engine() string {
	if r.dfa != nil {
		return EngineCompiled
	}
	return EngineInterpreted
}

// configCount is the live configuration-set size (on the compiled
// engine, the DFA state's member count).
func (r *caseRun) configCount() int {
	if r.dfa != nil {
		return len(r.dfa.States[r.dstate].Members)
	}
	return len(r.configs)
}

// stepStats is the observer's account of e taken before the step; the
// caller fills in ConfigsAfter and SymbolCacheHit.
func (r *caseRun) stepStats(c *Checker, e *audit.Entry) StepStats {
	st := StepStats{ConfigsBefore: r.configCount()}
	for _, conf := range r.configs {
		st.Candidates += len(conf.next)
		if !st.Absorbed && !c.DisableAbsorption && e.Status == audit.Success && c.isActive(conf, e) {
			st.Absorbed = true
		}
	}
	return st
}

// canComplete reports whether some live configuration can terminate
// silently, i.e. the case could end here.
func (r *caseRun) canComplete() (bool, error) {
	if r.dfa != nil {
		return r.dfa.States[r.dstate].CanComplete, nil
	}
	for _, conf := range r.configs {
		done, err := r.rt.sys.CanTerminateSilently(conf.state)
		if err != nil {
			return false, err
		}
		if done {
			return true, nil
		}
	}
	return false, nil
}

// describe assembles the diagnostic for entry idx, e, of case caseID
// rejected at the run's position: what the live configurations would
// have accepted instead, why e fits none of it, and its explanation.
func (r *caseRun) describe(c *Checker, caseID string, idx int, e audit.Entry) (*Violation, *Explanation) {
	v := &Violation{
		Kind:       ViolationInvalidExecution,
		EntryIndex: idx,
		Entry:      &e,
	}
	if r.dfa != nil {
		st := &r.dfa.States[r.dstate]
		v.Expected = append([]string(nil), st.Expected...)
		v.ActiveTasks = append([]string(nil), st.ActiveTasks...)
	} else {
		for _, conf := range r.configs {
			for i := range conf.next {
				l := &conf.next[i].label
				if l.Op == "Err" {
					v.Expected = append(v.Expected, "sys.Err("+strings.Join(l.Origins(), "+")+")")
				} else {
					v.Expected = append(v.Expected, l.Endpoint())
				}
			}
			for _, a := range conf.active.tasks {
				v.ActiveTasks = append(v.ActiveTasks, a.String())
			}
		}
		sort.Strings(v.Expected)
		sort.Strings(v.ActiveTasks)
		v.Expected, v.ActiveTasks = slices.Compact(v.Expected), slices.Compact(v.ActiveTasks)
	}

	proc := r.pur.Process
	switch {
	case !proc.HasTask(e.Task) && e.Status == audit.Success:
		v.Reason = fmt.Sprintf("task %q is not part of process %q", e.Task, r.pur.Name)
	case e.Status == audit.Failure:
		v.Reason = fmt.Sprintf("failure of task %q has no matching error handler at this point", e.Task)
	case proc.TaskRole(e.Task) != "" && !c.roleMatches(e.Role, proc.TaskRole(e.Task)):
		v.Reason = fmt.Sprintf("role %q may not perform task %q (pool %q)", e.Role, e.Task, proc.TaskRole(e.Task))
	default:
		v.Reason = fmt.Sprintf("task %q is neither active nor enabled at this point of the process", e.Task)
	}
	return v, c.explainViolation(r.pur, caseID, v, r.configCount())
}

// offers hands add the run's worklist: the tasks active in some live
// configuration and the tasks some configuration can start.
func (r *caseRun) offers(add func(Offer)) {
	if r.dfa != nil {
		ds := &r.dfa.States[r.dstate]
		for _, o := range ds.Active {
			add(Offer{Role: o.Role, Task: o.Task, Active: true})
		}
		for _, o := range ds.Fire {
			add(Offer{Role: o.Role, Task: o.Task})
		}
	}
	for _, conf := range r.configs {
		for _, a := range conf.active.tasks {
			add(Offer{Role: a.Role, Task: a.Task, Active: true})
		}
		for i := range conf.next {
			s := &conf.next[i]
			if s.label.Op == "Err" {
				continue
			}
			if r.pur.Process.HasTask(s.label.Op) {
				add(Offer{Role: s.label.Partner, Task: s.label.Op})
			}
		}
	}
}

// members hands add each live configuration as a snapshot records it:
// state text and active tasks sorted for display. A compiled run
// exports its DFA state's members, so a restoring monitor may resume
// the snapshot under either engine.
func (r *caseRun) members(add func(term string, active []ActiveTask)) {
	if r.dfa != nil {
		d := r.dfa
		for _, mid := range d.States[r.dstate].Members {
			cfg := d.Configs[mid]
			active := make([]ActiveTask, 0, len(d.ActiveSets[cfg.Active]))
			for _, a := range d.ActiveSets[cfg.Active] {
				active = append(active, ActiveTask{Role: a.Role, Task: a.Task})
			}
			sort.Slice(active, func(i, j int) bool { return active[i].String() < active[j].String() })
			add(d.Texts[cfg.Term], active)
		}
	}
	for _, conf := range r.configs {
		add(cows.String(conf.state), conf.ActiveTasks())
	}
}
