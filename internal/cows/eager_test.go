package cows_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bpmn"
	"repro/internal/cows"
	"repro/internal/encode"
	"repro/internal/hospital"
	"repro/internal/loan"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// TestExploreMatchesEager derives the whole LTS of the repository's
// processes with Step and, at every state, compares Step's transitions
// with the reference engine's, which unfolds every replication: the
// same labels and successor canonical forms in the same order.
func TestExploreMatchesEager(t *testing.T) {
	type proc struct {
		name string
		p    *bpmn.Process
	}
	var procs []proc
	add := func(name string, p *bpmn.Process, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		procs = append(procs, proc{name, p})
	}
	p, err := hospital.Treatment()
	add("treatment", p, err)
	p, err = hospital.ClinicalTrial()
	add("clinicaltrial", p, err)
	p, err = loan.Process()
	add("loan", p, err)
	files, err := scenario.Discover([]string{"../../scenarios/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		p, err := scenarioProcess(f)
		add(filepath.Base(f), p, err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		for _, tasks := range []int{8, 20} {
			p, err := workload.Generate(workload.DefaultProcParams("W", seed, tasks))
			add("generated", p, err)
		}
	}
	p, err = workload.Generate(workload.DefaultProcParams("W", 7, 50))
	add("generated-50", p, err)

	states := 0
	for _, pr := range procs {
		s, err := encode.Encode(pr.p)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		states += compareLTS(t, pr.name, s)
	}
	t.Logf("%d processes, %d states", len(procs), states)
}

// compareLTS explores s breadth-first with Step, checking every state
// against the reference engine, and returns the number of states.
func compareLTS(t *testing.T, name string, s cows.Service) int {
	t.Helper()
	const maxStates = 20000
	e, ref := cows.NewEngine(), cows.NewEngine()
	seen := map[string]bool{cows.Canon(s): true}
	queue := []cows.Service{s}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		got, err := e.Step(cur)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := cows.ReferenceStep(ref, cur)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d transitions, reference %d, from\n %s", name, len(got), len(want), cows.Canon(cur))
		}
		for i, g := range got {
			w := want[i]
			if g.Label.Key() != w.Label.Key() || g.NextCanon() != cows.Canon(w.Next) {
				t.Fatalf("%s: transition %d is %s → %s, reference %s → %s", name, i, g.Label, g.NextCanon(), w.Label, cows.Canon(w.Next))
			}
			if !seen[g.NextCanon()] {
				if len(seen) == maxStates {
					t.Fatalf("%s: more than %d states", name, maxStates)
				}
				seen[g.NextCanon()] = true
				queue = append(queue, g.Next)
			}
		}
	}
	return len(seen)
}

// scenarioProcess loads the process of a scenario fixture.
func scenarioProcess(path string) (*bpmn.Process, error) {
	fx, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	if fx.Process != nil {
		return bpmn.FromSpec(*fx.Process)
	}
	file := filepath.Join(filepath.Dir(path), fx.ProcessFile)
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(file, ".bpmn") || strings.HasSuffix(file, ".xml") {
		return bpmn.DecodeXML(f)
	}
	return bpmn.DecodeJSON(f)
}
