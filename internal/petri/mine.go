package petri

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/audit"
)

// Workflow mining after van der Aalst, Weijters & Maruster — the
// paper's reference [33]. The Alpha algorithm discovers a Petri net
// from an event log: it computes the directly-follows footprint of the
// log and synthesizes a place for every maximal pair of task sets (A,B)
// where every a∈A causally precedes every b∈B and neither side
// self-follows.
//
// For purpose control this closes a loop the paper leaves implicit: an
// auditor can mine the de-facto process from the audit database and
// compare it against the de-jure process the organization registered —
// systematic drift (everybody skips the check task) shows up as a
// structural difference before any single case is flagged.

// Log is a task-level event log: one task sequence per case, in
// chronological order with in-task repetitions collapsed (the same
// projection token replay uses).
type Log struct {
	Traces [][]string
}

// LogFromTrail projects a trail onto task sequences per case, dropping
// failure entries (the Alpha algorithm has no error-event notion).
func LogFromTrail(trail *audit.Trail) *Log {
	l := &Log{}
	idx := trail.IndexByCase()
	var buf []audit.Entry
	for _, caseID := range idx.Cases() {
		var seq []string
		prev := ""
		buf = idx.AppendCase(buf[:0], caseID)
		for _, e := range buf {
			if e.Status == audit.Failure {
				prev = ""
				continue
			}
			if e.Task == prev {
				continue
			}
			seq = append(seq, e.Task)
			prev = e.Task
		}
		if len(seq) > 0 {
			l.Traces = append(l.Traces, seq)
		}
	}
	return l
}

// footprint holds the Alpha relations.
type footprint struct {
	tasks   []string
	follows map[[2]string]bool // a >W b
}

func (l *Log) footprint() *footprint {
	fp := &footprint{follows: map[[2]string]bool{}}
	seen := map[string]bool{}
	for _, tr := range l.Traces {
		for i, t := range tr {
			if !seen[t] {
				seen[t] = true
				fp.tasks = append(fp.tasks, t)
			}
			if i+1 < len(tr) {
				fp.follows[[2]string{t, tr[i+1]}] = true
			}
		}
	}
	sort.Strings(fp.tasks)
	return fp
}

// causal reports a →W b: a >W b and not b >W a.
func (fp *footprint) causal(a, b string) bool {
	return fp.follows[[2]string{a, b}] && !fp.follows[[2]string{b, a}]
}

// unrelated reports a #W b: neither follows the other.
func (fp *footprint) unrelated(a, b string) bool {
	return !fp.follows[[2]string{a, b}] && !fp.follows[[2]string{b, a}]
}

// Alpha runs the Alpha algorithm and returns the discovered net. Tasks
// become labeled transitions; discovered places wire them; artificial
// source/sink places mark the start/end tasks.
func Alpha(l *Log) (*Net, error) {
	if len(l.Traces) == 0 {
		return nil, fmt.Errorf("petri: empty log")
	}
	fp := l.footprint()

	starts := map[string]bool{}
	ends := map[string]bool{}
	for _, tr := range l.Traces {
		starts[tr[0]] = true
		ends[tr[len(tr)-1]] = true
	}

	// Candidate pairs (A, B): every a→b causal, A pairwise unrelated,
	// B pairwise unrelated. Enumerate maximal pairs by growing from
	// causal seeds (the standard set-cover formulation, fine at audit
	// scale where processes have tens of tasks).
	type pair struct{ a, b []string }
	var pairs []pair
	var causalPairs [][2]string
	for _, a := range fp.tasks {
		for _, b := range fp.tasks {
			if fp.causal(a, b) {
				causalPairs = append(causalPairs, [2]string{a, b})
			}
		}
	}
	valid := func(A, B []string) bool {
		for _, a := range A {
			for _, b := range B {
				if !fp.causal(a, b) {
					return false
				}
			}
		}
		for i := range A {
			for j := i + 1; j < len(A); j++ {
				if !fp.unrelated(A[i], A[j]) {
					return false
				}
			}
		}
		for i := range B {
			for j := i + 1; j < len(B); j++ {
				if !fp.unrelated(B[i], B[j]) {
					return false
				}
			}
		}
		return true
	}
	// Grow each seed to a locally-maximal pair (deterministic order).
	for _, seed := range causalPairs {
		A, B := []string{seed[0]}, []string{seed[1]}
		for _, t := range fp.tasks {
			if !contains(A, t) && valid(append(append([]string{}, A...), t), B) {
				A = append(A, t)
				sort.Strings(A)
			}
		}
		for _, t := range fp.tasks {
			if !contains(B, t) && valid(A, append(append([]string{}, B...), t)) {
				B = append(B, t)
				sort.Strings(B)
			}
		}
		pairs = append(pairs, pair{a: A, b: B})
	}
	// Keep only maximal pairs, dedup.
	keyOf := func(p pair) string {
		return strings.Join(p.a, ",") + "|" + strings.Join(p.b, ",")
	}
	subsumed := func(p, q pair) bool { // p ⊂ q
		return subset(p.a, q.a) && subset(p.b, q.b) && keyOf(p) != keyOf(q)
	}
	var maximal []pair
	seenPair := map[string]bool{}
	for _, p := range pairs {
		dominated := false
		for _, q := range pairs {
			if subsumed(p, q) {
				dominated = true
				break
			}
		}
		if dominated || seenPair[keyOf(p)] {
			continue
		}
		seenPair[keyOf(p)] = true
		maximal = append(maximal, p)
	}
	sort.Slice(maximal, func(i, j int) bool { return keyOf(maximal[i]) < keyOf(maximal[j]) })

	// Assemble the net.
	var places []Place
	trans := map[string]*Transition{}
	for _, t := range fp.tasks {
		trans[t] = &Transition{Name: "t_" + t, Label: t}
	}
	source, sink := Place("p_source"), Place("p_sink")
	places = append(places, source, sink)
	for _, t := range fp.tasks {
		if starts[t] {
			trans[t].In = append(trans[t].In, source)
		}
		if ends[t] {
			trans[t].Out = append(trans[t].Out, sink)
		}
	}
	for i, p := range maximal {
		pl := Place(fmt.Sprintf("p%d_%s__%s", i, strings.Join(p.a, "_"), strings.Join(p.b, "_")))
		places = append(places, pl)
		for _, a := range p.a {
			trans[a].Out = append(trans[a].Out, pl)
		}
		for _, b := range p.b {
			trans[b].In = append(trans[b].In, pl)
		}
	}
	var tlist []*Transition
	for _, t := range fp.tasks {
		tlist = append(tlist, trans[t])
	}
	// A τ draining the sink: the classic WF-net terminates with one
	// token on the sink place; the replayer's completion accounting
	// (Remaining == 0) expects end events to consume, so give the
	// mined net one.
	tlist = append(tlist, &Transition{Name: "t_end", In: []Place{sink}})
	return NewNet(places, tlist, Marking{source: 1})
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func subset(xs, ys []string) bool {
	for _, x := range xs {
		if !contains(ys, x) {
			return false
		}
	}
	return true
}

// DriftReport compares a mined (de-facto) footprint against the
// registered (de-jure) process's task set: tasks the log never exercises
// and tasks the log contains that the process does not know.
type DriftReport struct {
	// NeverExecuted are process tasks absent from the log.
	NeverExecuted []string
	// Unknown are log tasks absent from the process.
	Unknown []string
}

// Drift computes the task-level drift between a log and a task universe.
func Drift(l *Log, processTasks []string) DriftReport {
	inLog := map[string]bool{}
	for _, tr := range l.Traces {
		for _, t := range tr {
			inLog[t] = true
		}
	}
	known := map[string]bool{}
	var rep DriftReport
	for _, t := range processTasks {
		known[t] = true
		if !inLog[t] {
			rep.NeverExecuted = append(rep.NeverExecuted, t)
		}
	}
	for t := range inLog {
		if !known[t] {
			rep.Unknown = append(rep.Unknown, t)
		}
	}
	sort.Strings(rep.NeverExecuted)
	sort.Strings(rep.Unknown)
	return rep
}
