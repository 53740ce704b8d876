package petri

import (
	"fmt"

	"repro/internal/audit"
)

// Conformance checking after Rozinat & van der Aalst [13], upgraded with
// an alignment-style exact search: a case fits iff SOME resolution of
// the net's invisible (τ) transitions replays all its events without
// missing tokens. Naive greedy τ-resolution commits too early on
// duplicate-enabled or subset gateways and flags valid traces; the
// search removes those false positives. When no fitting path exists, a
// greedy forced replay produces the classic missing/remaining counters:
//
//	fitness = ½(1 − missing/consumed) + ½(1 − remaining/produced)
//
// Note what this baseline inherently cannot see: users, roles, objects,
// actions and purposes — its events carry task names only (paper
// Section 6).

// ReplayResult carries the token-replay counters for one case.
type ReplayResult struct {
	Case string
	// Events is the number of replayed events (after in-task
	// collapsing).
	Events    int
	Produced  int
	Consumed  int
	Missing   int
	Remaining int
	// UnknownEvents counts events whose label has no transition in the
	// net at all (e.g. tasks from another process).
	UnknownEvents int
	// TauFired counts invisible transitions fired along the replay.
	TauFired int
	// SearchStates counts (event, marking) states explored by the
	// exact search — the baseline's cost driver.
	SearchStates int
	// Fitting is true when a zero-missing replay exists.
	Fitting bool
}

// Fitness computes the Rozinat–van der Aalst fitness in [0,1].
func (r *ReplayResult) Fitness() float64 {
	f := 0.0
	if r.Consumed > 0 {
		f += 0.5 * (1 - float64(r.Missing)/float64(r.Consumed))
	} else {
		f += 0.5
	}
	if r.Produced > 0 {
		f += 0.5 * (1 - float64(r.Remaining)/float64(r.Produced))
	} else {
		f += 0.5
	}
	return f
}

// Flagged reports whether the replay found a deviation (no fitting path,
// or events unknown to the net). Remaining tokens alone mean the case is
// mid-flight, which conformance checking cannot distinguish from
// abandonment, so they do not flag.
func (r *ReplayResult) Flagged() bool { return !r.Fitting || r.UnknownEvents > 0 }

// MaxSearchStates bounds the exact search per case.
const MaxSearchStates = 200000

// Replayer replays case slices of trails on a net.
type Replayer struct {
	Net *Net
}

// EventsOf projects a case's entries onto the event labels token replay
// understands: the task for successes, "Err:<task>" for failures, with
// consecutive same-task successes collapsed (conformance checking has no
// notion of multiple actions within one task; without collapsing, every
// multi-action task would be a false deviation).
func EventsOf(entries []audit.Entry) []string {
	var out []string
	prevTask := ""
	for _, e := range entries {
		if e.Status == audit.Failure {
			out = append(out, "Err:"+e.Task)
			prevTask = ""
			continue
		}
		if e.Task == prevTask {
			continue
		}
		out = append(out, e.Task)
		prevTask = e.Task
	}
	return out
}

// ReplayCase replays one case of the trail.
func (r *Replayer) ReplayCase(trail *audit.Trail, caseID string) (*ReplayResult, error) {
	return r.ReplayEvents(caseID, EventsOf(trail.ByCase(caseID).Entries()))
}

// ReplayEvents replays a prepared event sequence.
func (r *Replayer) ReplayEvents(caseID string, events []string) (*ReplayResult, error) {
	res := &ReplayResult{Case: caseID, Events: len(events)}

	// Drop events the net has no transitions for; they can never be
	// replayed and would otherwise poison the search.
	known := make([]string, 0, len(events))
	for _, ev := range events {
		if len(r.Net.Labeled(ev)) == 0 {
			res.UnknownEvents++
			continue
		}
		known = append(known, ev)
	}

	if ok := r.exactReplay(known, res, false); ok {
		res.Fitting = true
		if res.Remaining > 0 {
			// The first fitting path may strand tokens (e.g. an OR
			// split over-approximated the chosen subset); prefer a
			// properly completing path when one exists.
			clean := &ReplayResult{Case: res.Case, Events: res.Events, UnknownEvents: res.UnknownEvents}
			if r.exactReplay(known, clean, true) {
				clean.Fitting = true
				clean.SearchStates += res.SearchStates
				*res = *clean
			}
		}
		return res, nil
	}
	r.greedyReplay(known, res)
	return res, nil
}

// pathNode is one state of the exact search.
type pathNode struct {
	idx      int
	m        Marking
	produced int
	consumed int
	taus     int
}

// exactReplay searches for a τ-resolution that replays all events with
// no missing tokens, filling the result's counters from the found path.
// With requireClean set, only paths whose drained final marking is empty
// (proper completion) count as success.
func (r *Replayer) exactReplay(events []string, res *ReplayResult, requireClean bool) bool {
	start := pathNode{m: r.Net.Initial.Clone(), produced: r.Net.Initial.Tokens()}
	stack := []pathNode{start}
	visited := map[string]bool{}

	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		key := fmt.Sprintf("%d|%s", cur.idx, cur.m.String())
		if visited[key] {
			continue
		}
		visited[key] = true
		res.SearchStates++
		if res.SearchStates > MaxSearchStates {
			return false
		}

		if cur.idx == len(events) {
			final := r.drain(cur.m)
			if requireClean && final.Tokens() != 0 {
				continue
			}
			res.Produced = cur.produced
			res.Consumed = cur.consumed
			res.Missing = 0
			res.Remaining = final.Tokens()
			res.TauFired = cur.taus
			return true
		}

		// Advance on the event's transitions.
		for _, t := range r.Net.Labeled(events[cur.idx]) {
			if !Enabled(cur.m, t) {
				continue
			}
			next, _ := Fire(cur.m, t, false)
			stack = append(stack, pathNode{
				idx: cur.idx + 1, m: next,
				produced: cur.produced + len(t.Out),
				consumed: cur.consumed + len(t.In),
				taus:     cur.taus,
			})
		}
		// Or fire a τ.
		for _, tau := range r.Net.Silent() {
			if !Enabled(cur.m, tau) {
				continue
			}
			next, _ := Fire(cur.m, tau, false)
			stack = append(stack, pathNode{
				idx: cur.idx, m: next,
				produced: cur.produced + len(tau.Out),
				consumed: cur.consumed + len(tau.In),
				taus:     cur.taus + 1,
			})
		}
	}
	return false
}

// greedyReplay is the classic forced replay, used for deviation
// accounting once the exact search has established there is no fitting
// path: per event, enable via a shortest τ sequence if possible,
// otherwise force the firing and count the missing tokens.
func (r *Replayer) greedyReplay(events []string, res *ReplayResult) {
	m := r.Net.Initial.Clone()
	res.Produced = m.Tokens()
	res.Consumed = 0
	res.Missing = 0
	res.TauFired = 0

	for _, ev := range events {
		cands := r.Net.Labeled(ev)
		m2, t, cost, ok := r.enable(m, cands)
		if ok {
			res.TauFired += cost.fired
			res.Produced += cost.produced
			res.Consumed += cost.consumed
			m = m2
			next, _ := Fire(m, t, false)
			res.Consumed += len(t.In)
			res.Produced += len(t.Out)
			m = next
			continue
		}
		t = cands[0]
		next, missing := Fire(m, t, true)
		res.Missing += missing
		res.Consumed += len(t.In)
		res.Produced += len(t.Out)
		m = next
	}
	m = r.drain(m)
	res.Remaining = m.Tokens()
}

type tauCost struct {
	fired    int
	produced int
	consumed int
}

// enable searches for a marking reachable from m via τ transitions under
// which one of the candidate transitions is enabled (shortest first,
// bounded).
func (r *Replayer) enable(m Marking, cands []*Transition) (Marking, *Transition, tauCost, bool) {
	type node struct {
		m    Marking
		cost tauCost
	}
	check := func(n node) (*Transition, bool) {
		for _, t := range cands {
			if Enabled(n.m, t) {
				return t, true
			}
		}
		return nil, false
	}
	start := node{m: m}
	if t, ok := check(start); ok {
		return m, t, tauCost{}, true
	}
	queue := []node{start}
	visited := map[string]bool{m.String(): true}
	expanded := 0
	for len(queue) > 0 && expanded < MaxSearchStates/16 {
		cur := queue[0]
		queue = queue[1:]
		expanded++
		for _, tau := range r.Net.Silent() {
			if !Enabled(cur.m, tau) {
				continue
			}
			next, _ := Fire(cur.m, tau, false)
			key := next.String()
			if visited[key] {
				continue
			}
			visited[key] = true
			n := node{m: next, cost: tauCost{
				fired:    cur.cost.fired + 1,
				produced: cur.cost.produced + len(tau.Out),
				consumed: cur.cost.consumed + len(tau.In),
			}}
			if t, ok := check(n); ok {
				return n.m, t, n.cost, true
			}
			queue = append(queue, n)
		}
	}
	return nil, nil, tauCost{}, false
}

// drain greedily fires τ transitions until quiescence (bounded), letting
// tokens reach and be consumed by end events. Only token-count
// non-increasing τs fire, so subset splits cannot diverge.
func (r *Replayer) drain(m Marking) Marking {
	for i := 0; i < MaxSearchStates/16; i++ {
		fired := false
		for _, tau := range r.Net.Silent() {
			if Enabled(m, tau) {
				next, _ := Fire(m, tau, false)
				if next.Tokens() <= m.Tokens() {
					m = next
					fired = true
					break
				}
			}
		}
		if !fired {
			return m
		}
	}
	return m
}

// ReplayTrail replays every case of a trail.
func (r *Replayer) ReplayTrail(trail *audit.Trail) ([]*ReplayResult, error) {
	var out []*ReplayResult
	idx := trail.IndexByCase()
	for _, caseID := range idx.Cases() {
		res, err := r.ReplayEvents(caseID, EventsOf(idx.AppendCase(nil, caseID)))
		if err != nil {
			return nil, fmt.Errorf("petri: replaying case %s: %w", caseID, err)
		}
		out = append(out, res)
	}
	return out, nil
}
