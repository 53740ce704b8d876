package automaton

import (
	"fmt"
	"sort"
	"sync"
)

// Coverage accumulates which states and transitions of one DFA a set of
// replays exercised. The scenario corpus (internal/scenario) uses it to
// answer "how much of the purpose's behaviour space do these trails
// actually visit?" — a corpus that only walks the happy path leaves most
// of the table dark, and a CI floor on the coverage ratio keeps fixture
// authors honest.
//
// States are covered when a replay enters them (the start state counts);
// edges are the non-Reject delta cells, covered when a replay takes the
// transition. Rejecting lookups cover neither: the divergence is already
// asserted by the trail's expected verdict.
//
// A Coverage is not safe for concurrent use; the scenario runner replays
// sequentially.
type Coverage struct {
	dfa    *DFA
	states []bool
	edges  []bool
	total  int // non-Reject delta cells, computed once
}

// NewCoverage returns an empty coverage map for the DFA.
func NewCoverage(d *DFA) *Coverage {
	total := 0
	for _, next := range d.Delta {
		if next != Reject {
			total++
		}
	}
	return &Coverage{
		dfa:    d,
		states: make([]bool, len(d.States)),
		edges:  make([]bool, len(d.Delta)),
		total:  total,
	}
}

// VisitState marks a state as entered. Out-of-range ids are ignored so
// a hook never panics the replay it observes.
func (c *Coverage) VisitState(state int32) {
	if state >= 0 && int(state) < len(c.states) {
		c.states[state] = true
	}
}

// VisitEdge marks the (state, symbol) transition as taken. sym must be
// the symbol replay used for the Step lookup.
func (c *Coverage) VisitEdge(state, sym int32) {
	idx := int(state)*int(c.dfa.numSymbols) + int(sym)
	if state >= 0 && sym >= 0 && idx < len(c.edges) {
		c.edges[idx] = true
	}
}

// Report summarizes the accumulated coverage.
func (c *Coverage) Report() CoverageReport {
	r := CoverageReport{
		Purpose:     c.dfa.Purpose,
		Fingerprint: c.dfa.Fingerprint,
		StatesTotal: len(c.states),
		EdgesTotal:  c.total,
	}
	for _, v := range c.states {
		if v {
			r.States++
		}
	}
	for i, v := range c.edges {
		if v && c.dfa.Delta[i] != Reject {
			r.Edges++
		}
	}
	return r
}

// CoverageReport is the counted result of a Coverage.
type CoverageReport struct {
	Purpose     string `json:"purpose"`
	Fingerprint string `json:"fingerprint,omitempty"`
	States      int    `json:"states"`
	StatesTotal int    `json:"states_total"`
	Edges       int    `json:"edges"`
	EdgesTotal  int    `json:"edges_total"`
}

// StatePct is the visited-state percentage (100 when the DFA has no
// states, which cannot happen for a compiled purpose).
func (r CoverageReport) StatePct() float64 {
	if r.StatesTotal == 0 {
		return 100
	}
	return 100 * float64(r.States) / float64(r.StatesTotal)
}

// EdgePct is the taken-edge percentage over the non-Reject delta cells.
func (r CoverageReport) EdgePct() float64 {
	if r.EdgesTotal == 0 {
		return 100
	}
	return 100 * float64(r.Edges) / float64(r.EdgesTotal)
}

// String renders the one-line form the scenario runner prints.
func (r CoverageReport) String() string {
	return fmt.Sprintf("%s: states %d/%d (%.1f%%), edges %d/%d (%.1f%%)",
		r.Purpose, r.States, r.StatesTotal, r.StatePct(), r.Edges, r.EdgesTotal, r.EdgePct())
}

// CoverageSet hands out one Coverage per DFA, so a checker replaying
// several purposes (or recompiling under changed flags) accumulates
// coverage per automaton. Safe for concurrent For calls; the returned
// Coverage itself is not synchronized.
type CoverageSet struct {
	mu sync.Mutex
	m  map[*DFA]*Coverage
}

// NewCoverageSet returns an empty set.
func NewCoverageSet() *CoverageSet {
	return &CoverageSet{m: map[*DFA]*Coverage{}}
}

// For returns the DFA's coverage map, creating it on first use.
func (s *CoverageSet) For(d *DFA) *Coverage {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.m[d]
	if c == nil {
		c = NewCoverage(d)
		s.m[d] = c
	}
	return c
}

// Reports returns one report per tracked DFA, sorted by purpose then
// fingerprint so output is deterministic.
func (s *CoverageSet) Reports() []CoverageReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CoverageReport, 0, len(s.m))
	for _, c := range s.m {
		out = append(out, c.Report())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Purpose != out[j].Purpose {
			return out[i].Purpose < out[j].Purpose
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}
