package core

// Compiled fast path (DESIGN.md §11). For well-founded processes the
// observable-trace semantics of Definition 6 is a regular language over
// task/error labels, so Algorithm 1's configuration-set machine can be
// determinized once, ahead of time (internal/automaton), and replay
// becomes one dense-table lookup per entry. The checker compiles each
// purpose in process, on first use or eagerly via EnsureCompiled, and
// falls back to the interpreter — recording the cause — whenever the
// automaton is absent: the purpose is not compilable within its
// budgets, the checker's semantic flags differ from the automaton's, or
// a TraceFn needs live configuration sets.

import (
	"errors"
	"fmt"
	"unsafe"

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
// checker's semantic flags, reusing the warm shared LTS. It is the one
// place compiler input is built.
func (c *Checker) automatonInput(pur *Purpose, rt *purposeRT) automaton.Input {
	in := automaton.Input{
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

// purposeByName resolves a registered purpose for the compiled-engine
// API surface.
func (c *Checker) purposeByName(name string) (*Purpose, error) {
	pur := c.registry.Purpose(name)
	if pur == nil {
		return nil, fmt.Errorf("core: unknown purpose %q", name)
	}
	return pur, nil
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
	r := rt.compiled.Load()
	if r == nil || !c.flagsMatch(r) {
		r = c.compileLocked(pur, rt)
	}
	return r.dfa, r.err
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
func (c *Checker) compileLocked(pur *Purpose, rt *purposeRT) *compiledResult {
	d, err := automaton.Compile(c.automatonInput(pur, rt))
	r := &compiledResult{
		dfa:          d,
		err:          err,
		strict:       c.StrictFailureTask,
		noAbsorption: c.DisableAbsorption,
		maxConfigs:   c.effectiveMaxConfigurations(),
	}
	rt.compiled.Store(r)
	return r
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
			r = c.compileLocked(pur, rt)
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
// cache. A batch replay keeps one on its stack; a Monitor keeps one
// across feeds (its slots key on the DFA pointer, so one table safely
// serves every purpose's automaton).
type symCacheTable [symCacheSize]symCacheSlot

// symLookup says how a step resolved its entry's automaton symbol.
type symLookup uint8

const (
	symNone symLookup = iota // none looked up: the interpreter took the step
	symHit                   // from the symbol cache
	symMiss                  // from the automaton's symbol index
)

// symKey is an audit entry's key into an automaton's alphabet. A
// failure's role plays no part in its symbol.
func symKey(e *audit.Entry) (task, role string, failure bool) {
	if e.Status == audit.Failure {
		return e.Task, "", true
	}
	return e.Task, e.Role, false
}

// sameString is a == b without a call when both share their bytes, as
// the trail decoder's interned task and role strings do.
func sameString(a, b string) bool {
	return len(a) == len(b) && (unsafe.StringData(a) == unsafe.StringData(b) || a == b)
}

// fill resolves the slot's key through d's symbol index. No symbol
// means no configuration could accept the entry — a violation,
// mirroring the interpreter's matchesEntry.
func (s *symCacheSlot) fill(d *automaton.DFA, task, role string, failure bool) {
	s.sym, s.ok = d.SymbolFor(task, role, failure)
	s.dfa, s.task, s.role, s.failure = d, task, role, failure
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

// IsNotCompilable reports whether err (e.g. from EnsureCompiled or
// CompiledStatus) means the purpose cannot be determinized, as opposed
// to a genuine failure.
func IsNotCompilable(err error) bool {
	return errors.Is(err, automaton.ErrNotCompilable)
}
