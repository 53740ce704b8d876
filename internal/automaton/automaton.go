// Package automaton compiles a purpose's configuration-set semantics
// (Definition 6) ahead of time into a dense table-driven DFA.
//
// Algorithm 1 interprets the COWS LTS online: every replayed entry
// expands configuration sets through WeakNext, so first-touch latency
// and the worst case of nondeterminism are paid at audit time. For
// well-founded processes the observable-trace semantics is a regular
// language over task/error labels, so the whole configuration-set
// machine can be determinized once, offline — the move "A Declarative
// Framework for Specifying and Enforcing Purpose-aware Policies" makes
// by compiling purpose requirements into runtime monitors. Replay then
// becomes one array lookup per entry: no allocation, no WeakNext, no
// MaxConfigurations concern.
//
// # Alphabet
//
// An audit entry acts on a configuration set only through three
// predicates: its task name, its success/failure status, and the set of
// pool roles its role generalizes to (Algorithm 1 lines 5, 8, 10). Pool
// roles are finite, so entry roles collapse into finitely many *role
// classes* — bitmasks over the pool-role list. The DFA alphabet is
//
//	success symbols:  task × role-class
//	failure symbols:  one per task under StrictFailureTask
//	                  (a failure must name the erring task), else one
//
// Entries whose task is outside the process's task alphabet have no
// symbol: they can never fire a label nor be absorbed, so they map
// directly to the reject verdict — exactly the interpreter's behaviour.
//
// # Prefix acceptance
//
// Per the paper's Definition 6 prefix semantics every live state is
// accepting; the distinguished end-of-trail bit is CanComplete, which
// says whether some member configuration can silently reach quiescence
// (the replayed trail ends in a complete execution rather than
// mid-flight).
//
// # States
//
// DFA states are interned configuration-set IDs produced by subset
// construction over (COWS state, active-task set) pairs. Each state
// carries the verdict metadata replay needs — member configurations
// (for snapshots), the completion bit, and the precomputed violation
// diagnostics (expected labels, active tasks) — so the hot path never
// touches the LTS.
package automaton

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// CompilerVersion participates in the fingerprint: a table laid out
// by a different compiler never shares an identity with ours.
const CompilerVersion = "purpose-automaton/1"

// DefaultMaxConfigurations mirrors the interpreter's configuration-set
// cap (core.DefaultMaxConfigurations).
const DefaultMaxConfigurations = 4096

// DefaultMaxStates bounds subset construction: exceeding it aborts the
// compile (the caller falls back to the interpreter) instead of
// materializing a pathological automaton.
const DefaultMaxStates = 20000

// Reject is the delta-table entry for "no transition": the entry
// deviates from every surviving configuration.
const Reject = int32(-1)

// ErrNotCompilable wraps every reason a purpose cannot be determinized
// ahead of time: a non-finitely-observable process, an exploration
// budget, a configuration-set or state-count overflow. Callers fall
// back to the interpreter and record the cause.
var ErrNotCompilable = errors.New("automaton: purpose is not compilable")

// ActiveTask mirrors core.ActiveTask: one element of a configuration's
// active-task set.
type ActiveTask struct {
	Role string
	Task string
}

// String renders the display form used in reports.
func (a ActiveTask) String() string { return a.Role + "·" + a.Task }

// Offer is a startable or active task exposed by a state (the worklist
// the Monitor serves).
type Offer struct {
	Role string
	Task string
}

// Config is one member configuration of a DFA state: a COWS state (by
// index into the term table) plus an active-task set (by index into the
// active-set table). Snapshots taken under the DFA are materialized
// from these tables, so a checkpoint resumes under either engine.
type Config struct {
	Term   int32
	Active int32
}

// State is one determinized configuration set with its precomputed
// verdict metadata.
type State struct {
	// Members lists the member configurations (indices into Configs),
	// sorted ascending.
	Members []int32
	// CanComplete is the end-of-trail acceptance bit: some member can
	// silently reach quiescence.
	CanComplete bool
	// Expected lists the observable labels the members offer, rendered
	// exactly as the interpreter's violation diagnostics render them.
	Expected []string
	// ActiveTasks lists the members' active tasks in display form,
	// sorted (violation diagnostics).
	ActiveTasks []string
	// Active lists the distinct active (role, task) pairs (worklists).
	Active []Offer
	// Fire lists the distinct startable tasks (worklists).
	Fire []Offer
}

// DFA is the compiled automaton. Compile builds it in process from
// the purpose; the unexported lookup fields are derived by finish.
//
// A DFA is immutable after Compile and safe for concurrent use.
type DFA struct {
	// Fingerprint identifies the automaton: a hash of the canonical
	// COWS term, the compiler version and every semantic knob (see
	// Fingerprint).
	Fingerprint string
	// Purpose names the purpose the automaton replays.
	Purpose string

	// Strict / NoAbsorption record the checker flags baked into the
	// table; a checker with different flags must not use it.
	Strict       bool
	NoAbsorption bool
	// MaxConfigurations is the configuration-set cap the compile
	// honored; no reachable state exceeds it.
	MaxConfigurations int

	// Tasks is the task axis of the alphabet (sorted); TaskRoles is the
	// parallel pool-role list.
	Tasks     []string
	TaskRoles []string
	// PoolRoles are the distinct pool roles; role-class masks index
	// into this list bit by bit.
	PoolRoles []string
	// Classes are the distinct role-class masks; RoleClass maps every
	// pool and hierarchy role to its class. Unlisted roles fall into
	// ZeroClass (they match no pool role).
	Classes   []uint64
	RoleClass map[string]int32
	ZeroClass int32

	// Terms is the deduplicated table of canonical COWS terms (the
	// alpha-invariant Canon form used as the ConfigID lookup key);
	// Texts holds the same terms in parseable COWS syntax, for
	// engine-neutral snapshot export. ActiveSets is the deduplicated
	// active-task sets; Configs the (term, active) member
	// configurations.
	Terms      []string
	Texts      []string
	ActiveSets [][]ActiveTask
	Configs    []Config

	// States are the determinized configuration sets; Start is the
	// initial state; Delta is the dense transition table, row-major
	// (state*NumSymbols + symbol), with Reject marking deviations.
	States []State
	Start  int32
	Delta  []int32

	taskIndex  map[string]int32
	numSymbols int32

	lookupOnce sync.Once
	configIdx  map[string]int32 // term\x00activeKey -> config id
	stateIdx   map[string]int32 // sorted member ids -> state id
}

// NumStates reports the determinized state count.
func (d *DFA) NumStates() int { return len(d.States) }

// NumSymbols reports the alphabet size (success task×class symbols plus
// the failure symbols).
func (d *DFA) NumSymbols() int { return int(d.numSymbols) }

func (d *DFA) failBase() int32 { return int32(len(d.Tasks) * len(d.Classes)) }

// finish derives the lookup structures and validates the tables
// Compile built.
func (d *DFA) finish() error {
	if len(d.TaskRoles) != len(d.Tasks) {
		return fmt.Errorf("automaton: %d tasks but %d task roles", len(d.Tasks), len(d.TaskRoles))
	}
	fail := 1
	if d.Strict {
		fail = len(d.Tasks)
	}
	d.numSymbols = int32(len(d.Tasks)*len(d.Classes) + fail)
	d.taskIndex = make(map[string]int32, len(d.Tasks))
	for i, t := range d.Tasks {
		d.taskIndex[t] = int32(i)
	}
	if len(d.Delta) != len(d.States)*int(d.numSymbols) {
		return fmt.Errorf("automaton: delta has %d entries, want %d states × %d symbols", len(d.Delta), len(d.States), d.numSymbols)
	}
	if d.Start < 0 || int(d.Start) >= len(d.States) {
		return fmt.Errorf("automaton: start state %d out of range", d.Start)
	}
	if d.ZeroClass < 0 || int(d.ZeroClass) >= len(d.Classes) {
		return fmt.Errorf("automaton: zero class %d out of range", d.ZeroClass)
	}
	for _, c := range d.RoleClass {
		if c < 0 || int(c) >= len(d.Classes) {
			return fmt.Errorf("automaton: role class %d out of range", c)
		}
	}
	for i, next := range d.Delta {
		if next != Reject && (next < 0 || int(next) >= len(d.States)) {
			return fmt.Errorf("automaton: delta[%d]=%d out of range", i, next)
		}
	}
	if len(d.Texts) != len(d.Terms) {
		return fmt.Errorf("automaton: %d term texts for %d terms", len(d.Texts), len(d.Terms))
	}
	for i, cfg := range d.Configs {
		if cfg.Term < 0 || int(cfg.Term) >= len(d.Terms) {
			return fmt.Errorf("automaton: config %d references term %d out of range", i, cfg.Term)
		}
		if cfg.Active < 0 || int(cfg.Active) >= len(d.ActiveSets) {
			return fmt.Errorf("automaton: config %d references active set %d out of range", i, cfg.Active)
		}
	}
	for i := range d.States {
		for _, m := range d.States[i].Members {
			if m < 0 || int(m) >= len(d.Configs) {
				return fmt.Errorf("automaton: state %d references config %d out of range", i, m)
			}
		}
	}
	return nil
}

// ClassOf resolves an entry role to its role class. Roles outside the
// compiled table match no pool role (exact matching against a pool role
// or a hierarchy specialization would have put them in the table), so
// they land in ZeroClass.
func (d *DFA) ClassOf(role string) int32 {
	if c, ok := d.RoleClass[role]; ok {
		return c
	}
	return d.ZeroClass
}

// SymbolFor classifies one audit entry. ok=false means the entry has no
// symbol at all — its task is outside the alphabet — and therefore maps
// to the reject verdict directly.
func (d *DFA) SymbolFor(task, role string, failure bool) (sym int32, ok bool) {
	if failure {
		if !d.Strict {
			return d.failBase(), true
		}
		ti, ok := d.taskIndex[task]
		if !ok {
			return 0, false
		}
		return d.failBase() + ti, true
	}
	ti, ok := d.taskIndex[task]
	if !ok {
		return 0, false
	}
	return ti*int32(len(d.Classes)) + d.ClassOf(role), true
}

// Step performs one replay step: the single array lookup. state must be
// a valid state id and sym a valid symbol (from SymbolFor).
func (d *DFA) Step(state, sym int32) int32 {
	return d.Delta[state*d.numSymbols+sym]
}

// MemberConfig materializes one member configuration of a state: the
// canonical COWS term and the active-task set (shared slice — treat as
// read-only).
func (d *DFA) MemberConfig(id int32) (term string, active []ActiveTask) {
	cfg := d.Configs[id]
	return d.Terms[cfg.Term], d.ActiveSets[cfg.Active]
}

func activeKey(active []ActiveTask) string {
	var b strings.Builder
	for _, a := range active {
		b.WriteString(a.Role)
		b.WriteByte(0)
		b.WriteString(a.Task)
		b.WriteByte(1)
	}
	return b.String()
}

func memberKey(members []int32) string {
	var b strings.Builder
	for _, m := range members {
		fmt.Fprintf(&b, "%d,", m)
	}
	return b.String()
}

func (d *DFA) buildLookup() {
	d.lookupOnce.Do(func() {
		d.configIdx = make(map[string]int32, len(d.Configs))
		for i, cfg := range d.Configs {
			d.configIdx[d.Terms[cfg.Term]+"\x00"+activeKey(d.ActiveSets[cfg.Active])] = int32(i)
		}
		d.stateIdx = make(map[string]int32, len(d.States))
		for i := range d.States {
			d.stateIdx[memberKey(d.States[i].Members)] = int32(i)
		}
	})
}

// ConfigID resolves a (canonical term, sorted active set) pair to its
// member-configuration id, for promoting interpreter state into the
// DFA (snapshot restore). active must be sorted by (Role, Task) and
// deduplicated.
func (d *DFA) ConfigID(term string, active []ActiveTask) (int32, bool) {
	d.buildLookup()
	id, ok := d.configIdx[term+"\x00"+activeKey(active)]
	return id, ok
}

// StateOf resolves a set of member-configuration ids (sorted,
// deduplicated) to the DFA state with exactly that membership.
func (d *DFA) StateOf(members []int32) (int32, bool) {
	d.buildLookup()
	id, ok := d.stateIdx[memberKey(members)]
	return id, ok
}

// Stats summarizes a compiled automaton for diagnostics and ltsdump.
type Stats struct {
	Purpose    string
	States     int
	Symbols    int
	Configs    int
	Terms      int
	PoolRoles  int
	Classes    int
	DeltaBytes int
	Start      int32
}

// Stats reports table sizes.
func (d *DFA) Stats() Stats {
	return Stats{
		Purpose:    d.Purpose,
		States:     len(d.States),
		Symbols:    int(d.numSymbols),
		Configs:    len(d.Configs),
		Terms:      len(d.Terms),
		PoolRoles:  len(d.PoolRoles),
		Classes:    len(d.Classes),
		DeltaBytes: 4 * len(d.Delta),
		Start:      d.Start,
	}
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("automaton %s: %d states × %d symbols (%d configs over %d terms, %d role classes over %d pools, delta %d bytes)",
		s.Purpose, s.States, s.Symbols, s.Configs, s.Terms, s.Classes, s.PoolRoles, s.DeltaBytes)
}

func sortOffers(offers []Offer) {
	sort.Slice(offers, func(i, j int) bool {
		if offers[i].Task != offers[j].Task {
			return offers[i].Task < offers[j].Task
		}
		return offers[i].Role < offers[j].Role
	})
}
