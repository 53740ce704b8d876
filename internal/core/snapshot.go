package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/automaton"
	"repro/internal/cows"
	"repro/internal/lts"
)

// Monitor snapshots: the online analysis must survive auditor restarts
// (the paper's Section 4 resumption, across process lifetimes). A
// snapshot serializes each monitored case's configuration set — the
// COWS states in their canonical textual syntax plus the active-task
// sets; the weak-next components are recomputed on restore, so a
// restored monitor behaves identically to the one snapshotted. Restore
// resolves each table term once per purpose — one parse, interned to
// the purpose system's representative — and every configuration that
// references the term shares it, so restore cost follows the number of
// distinct states, not the number of configurations.
//
// Wire format. Version 2 deduplicates state terms into a shared table:
// interning makes configurations across cases of one purpose share a
// handful of canonical states, so the table shrinks large-population
// snapshots by orders of magnitude. It also carries the Indeterminacy
// cause of dead-indeterminate cases. Version 2 is the only version
// read; the version-1 inline-term format is refused.

// MonitorState is the exported, serializable form of a monitor's live
// state. It is the unit the auditd server checkpoints: shards export
// their states, the server merges them into one file, and a restart
// splits the merged state back across shards (see internal/server).
type MonitorState struct {
	Version int `json:"version"`
	// States is the deduplicated table of canonical COWS terms;
	// configurations reference it by index.
	States []string `json:"states,omitempty"`
	// Cases maps case id to its live state.
	Cases map[string]CaseSnapshot `json:"cases"`

	// terms is the table's resolutions, shared by the parts Split
	// makes (nil: LoadState resolves afresh).
	terms *termMemo
}

// termMemo holds a state table's terms as resolved in each purpose's
// system. Its lock is held for a whole LoadState, so parts restored
// concurrently take turns.
type termMemo struct {
	mu   sync.Mutex
	byRT map[*purposeRT][]tableState
}

// Split partitions the state's cases over n monitors the way a sharded
// server routes them (ShardCase); part i is nil when no case routes to
// it. The parts share the term table and its resolutions, so restoring
// every part parses each table term once per purpose, as restoring the
// whole state into one monitor does.
func (st *MonitorState) Split(n int) []*MonitorState {
	if st.terms == nil {
		st.terms = &termMemo{}
	}
	parts := make([]*MonitorState, n)
	for id, cs := range st.Cases {
		i := ShardCase(id, n)
		if parts[i] == nil {
			parts[i] = &MonitorState{Version: st.Version, States: st.States, Cases: map[string]CaseSnapshot{}, terms: st.terms}
		}
		parts[i].Cases[id] = cs
	}
	return parts
}

// CaseSnapshot is one case's live state.
type CaseSnapshot struct {
	Purpose string `json:"purpose"`
	Entries int    `json:"entries"`
	Dead    bool   `json:"dead"`
	// Cause records why a dead case is indeterminate rather than
	// violating; nil for violation-dead and live cases.
	Cause *Indeterminacy `json:"cause,omitempty"`
	// Explanation carries a dead case's auditor-facing narrative, so a
	// restored monitor keeps re-surfacing it on further feeds. Absent
	// in snapshots written before the field existed; restore tolerates
	// nil.
	Explanation *Explanation     `json:"explanation,omitempty"`
	Configs     []ConfigSnapshot `json:"configs,omitempty"`
}

// ConfigSnapshot is one live configuration: a state (by index into
// MonitorState.States) plus its active-task set.
type ConfigSnapshot struct {
	StateRef int          `json:"state_ref,omitempty"`
	Active   []ActiveTask `json:"active,omitempty"`
}

// snapshotVersion is the version State emits.
const snapshotVersion = 2

// State exports the monitor's live state. The result shares nothing
// with the monitor and may be serialized or merged freely.
func (m *Monitor) State() *MonitorState {
	st := &MonitorState{Version: snapshotVersion, Cases: make(map[string]CaseSnapshot, len(m.cases))}
	table := map[string]int{}
	for id, cs := range m.cases {
		snap := CaseSnapshot{Purpose: cs.run.pur.Name, Entries: cs.entries, Dead: cs.dead}
		if cs.cause != nil {
			c := *cs.cause
			snap.Cause = &c
		}
		if cs.expl != nil {
			x := *cs.expl
			snap.Explanation = &x
		}
		cs.run.members(func(term string, active []ActiveTask) {
			ref, ok := table[term]
			if !ok {
				ref = len(st.States)
				table[term] = ref
				st.States = append(st.States, term)
			}
			snap.Configs = append(snap.Configs, ConfigSnapshot{StateRef: ref, Active: active})
		})
		st.Cases[id] = snap
	}
	return st
}

// LoadState merges an exported state into the monitor, rebuilding each
// case's configurations over the monitor's checker (whose registry must
// contain every purpose the state references). Weak-next sets are
// recomputed, so a restored monitor behaves identically to the exported
// one. A case id already present in the monitor is an error.
func (m *Monitor) LoadState(st *MonitorState) error {
	if st.Version != snapshotVersion {
		return fmt.Errorf("core: unsupported snapshot version %d", st.Version)
	}
	// Table terms resolve once per purpose, not once per configuration
	// that references them (nor once per part of a Split state).
	// Interning is per purpose system, so the memo is keyed by runtime:
	// a term two purposes share resolves in each.
	memo := st.terms
	if memo == nil {
		memo = &termMemo{}
	}
	memo.mu.Lock()
	defer memo.mu.Unlock()
	if memo.byRT == nil {
		memo.byRT = map[*purposeRT][]tableState{}
	}
	for id, cs := range st.Cases {
		if _, dup := m.cases[id]; dup {
			return fmt.Errorf("core: snapshot case %s already monitored", id)
		}
		pur := m.checker.registry.Purpose(cs.Purpose)
		if pur == nil {
			return fmt.Errorf("core: snapshot references unknown purpose %q", cs.Purpose)
		}
		rt := m.checker.runtime(pur)
		ns := &caseState{run: caseRun{pur: pur, rt: rt}, entries: cs.Entries, dead: cs.Dead}
		if cs.Cause != nil {
			c := *cs.Cause
			ns.cause = &c
		}
		if cs.Explanation != nil {
			x := *cs.Explanation
			ns.expl = &x
		}
		terms := memo.byRT[rt]
		if terms == nil {
			terms = make([]tableState, len(st.States))
			memo.byRT[rt] = terms
		}
		for _, cfg := range cs.Configs {
			if cfg.StateRef < 0 || cfg.StateRef >= len(st.States) {
				return fmt.Errorf("core: snapshot of case %s: state ref %d out of table range %d", id, cfg.StateRef, len(st.States))
			}
			ts := &terms[cfg.StateRef]
			if ts.state == nil {
				parsed, err := cows.Parse(st.States[cfg.StateRef])
				if err != nil {
					return fmt.Errorf("core: snapshot state of case %s: %w", id, err)
				}
				ts.state = rt.sys.Representative(parsed)
				ts.id = rt.sys.Intern(ts.state)
			}
			tasks := append([]ActiveTask(nil), cfg.Active...)
			sort.Slice(tasks, func(i, j int) bool { return activeLess(tasks[i], tasks[j]) })
			dedup := tasks[:0]
			for _, t := range tasks {
				if len(dedup) == 0 || t != dedup[len(dedup)-1] {
					dedup = append(dedup, t)
				}
			}
			conf, err := m.checker.newConfiguration(rt, pur, ts.state, ts.id, rt.active.intern(dedup))
			if err != nil {
				return fmt.Errorf("core: rebuilding case %s: %w", id, err)
			}
			ns.run.configs = append(ns.run.configs, conf)
		}
		// A checkpoint taken under either engine resumes on the compiled
		// fast path when the configuration set maps onto a determinized
		// state; otherwise the case keeps running interpreted.
		if d, _ := m.checker.compiledFor(pur); d != nil && !ns.dead {
			if sid, ok := promoteCase(d, rt, ns.run.configs); ok {
				ns.run = caseRun{pur: pur, rt: rt, dfa: d, dstate: sid}
			}
		}
		m.cases[id] = ns
	}
	return nil
}

// tableState is one state-table term resolved in one purpose's system:
// its interned representative and StateID.
type tableState struct {
	state cows.Service
	id    lts.StateID
}

// promoteCase maps an interpreter configuration set onto the DFA state
// with exactly that membership. It fails (ok=false) when any
// configuration — or the set as a whole — is unknown to the automaton,
// in which case the case stays on the interpreter.
func promoteCase(d *automaton.DFA, rt *purposeRT, configs []*Configuration) (int32, bool) {
	if len(configs) == 0 {
		return 0, false
	}
	ids := make([]int32, 0, len(configs))
	scratch := make([]automaton.ActiveTask, 0, 8)
	for _, conf := range configs {
		scratch = scratch[:0]
		for _, a := range conf.active.tasks {
			scratch = append(scratch, automaton.ActiveTask{Role: a.Role, Task: a.Task})
		}
		id, ok := d.ConfigID(rt.sys.CanonOf(conf.state), scratch)
		if !ok {
			return 0, false
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dedup := ids[:0]
	for _, id := range ids {
		if len(dedup) == 0 || id != dedup[len(dedup)-1] {
			dedup = append(dedup, id)
		}
	}
	return d.StateOf(dedup)
}

// Snapshot writes the monitor's live state as indented JSON.
func (m *Monitor) Snapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.State()); err != nil {
		return fmt.Errorf("core: writing monitor snapshot: %w", err)
	}
	return nil
}

// RestoreMonitor rebuilds a monitor from a snapshot over the given
// checker.
func RestoreMonitor(c *Checker, r io.Reader) (*Monitor, error) {
	var st MonitorState
	dec := json.NewDecoder(r)
	if err := dec.Decode(&st); err != nil {
		return nil, fmt.Errorf("core: reading monitor snapshot: %w", err)
	}
	m := NewMonitor(c)
	if err := m.LoadState(&st); err != nil {
		return nil, err
	}
	return m, nil
}
