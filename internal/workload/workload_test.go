package workload

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/bpmn"
	"repro/internal/core"
	"repro/internal/hospital"
	"repro/internal/petri"
	"repro/internal/policy"
)

// TestGeneratedProcessesValidate fuzzes the generator over seeds and
// shapes: every output must build (validity incl. well-foundedness is
// enforced by bpmn.Build) and be encodable.
func TestGeneratedProcessesValidate(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, tasks := range []int{1, 5, 20, 60} {
			p := DefaultProcParams(fmt.Sprintf("Gen%d_%d", seed, tasks), seed, tasks)
			if seed%3 == 0 {
				p.Pools = 3
			}
			if seed%4 == 0 {
				p.ORWeight = 4
				p.LoopWeight = 3
			}
			proc, err := Generate(p)
			if err != nil {
				t.Fatalf("seed=%d tasks=%d: %v", seed, tasks, err)
			}
			if got := proc.Stats().Tasks; got < tasks {
				t.Errorf("seed=%d tasks=%d: generated only %d tasks", seed, tasks, got)
			}
			reg := core.NewRegistry()
			if _, err := reg.Register(proc, fmt.Sprintf("Z%d", seed)); err != nil {
				t.Fatalf("seed=%d tasks=%d: encoding: %v", seed, tasks, err)
			}
		}
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	if _, err := Generate(ProcParams{Name: "x", Tasks: 0}); err == nil {
		t.Fatalf("zero tasks accepted")
	}
}

// TestSimulatedTrailsAreCompliant is the central agreement property:
// every simulated case is a valid execution, so Algorithm 1 must accept
// it (soundness of the simulator, completeness of the checker).
func TestSimulatedTrailsAreCompliant(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		proc := MustGenerate(DefaultProcParams(fmt.Sprintf("Sim%d", seed), seed, 12))
		reg := core.NewRegistry()
		reg.MustRegister(proc, "SM")
		params := DefaultTrailParams(seed, 4, "SM")
		sim := NewSimulator(reg, params)
		trail, err := sim.Generate()
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if trail.Len() == 0 {
			t.Fatalf("seed=%d: empty trail", seed)
		}
		checker := core.NewChecker(reg, nil)
		reports, err := checker.CheckTrail(trail)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if len(reports) != 4 {
			t.Fatalf("seed=%d: %d reports", seed, len(reports))
		}
		for _, rep := range reports {
			if !rep.Compliant {
				t.Errorf("seed=%d: simulated case rejected: %s", seed, rep)
			}
		}
	}
}

// TestSimulatedHospitalTrails simulates on the paper's own process.
func TestSimulatedHospitalTrails(t *testing.T) {
	sc, err := hospital.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	roles, err := hospital.Roles()
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(sc.Registry, DefaultTrailParams(7, 5, hospital.TreatmentCode))
	trail, err := sim.Generate()
	if err != nil {
		t.Fatal(err)
	}
	checker := core.NewChecker(sc.Registry, roles)
	reports, err := checker.CheckTrail(trail)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if !rep.Compliant {
			t.Errorf("simulated treatment case rejected: %s", rep)
		}
	}
}

// TestInjectedViolationsDetected applies every injector kind to valid
// simulated cases and checks Algorithm 1's verdict flips (where the
// perturbation is applicable). WrongRole is only a violation when a
// role hierarchy separates roles — the checker gets one here.
func TestInjectedViolationsDetected(t *testing.T) {
	proc := MustGenerate(DefaultProcParams("Inj", 3, 10))
	reg := core.NewRegistry()
	reg.MustRegister(proc, "IJ")
	roles := policy.NewRoleHierarchy()
	if err := roles.Add("R0"); err != nil {
		t.Fatal(err)
	}
	checker := core.NewChecker(reg, roles)

	sim := NewSimulator(reg, DefaultTrailParams(11, 6, "IJ"))
	trail, err := sim.Generate()
	if err != nil {
		t.Fatal(err)
	}

	inj := NewInjector(42)
	applied, detected := 0, 0
	for _, caseID := range trail.Cases() {
		entries := trail.ByCase(caseID).Entries()
		base, err := checker.CheckCase(trail, caseID)
		if err != nil {
			t.Fatal(err)
		}
		if !base.Compliant {
			t.Fatalf("baseline case %s not compliant", caseID)
		}
		for kind := ViolationKind(0); kind < NumViolationKinds; kind++ {
			mut, ok := inj.Inject(kind, entries)
			if !ok {
				continue
			}
			applied++
			mt := audit.NewTrail(mut)
			mutCase := mt.Cases()[len(mt.Cases())-1]
			rep, err := checker.CheckCase(mt, mutCase)
			if err != nil {
				t.Fatalf("%s on %s: %v", kind, caseID, err)
			}
			if !rep.Compliant {
				detected++
			} else if kind == WrongRole || kind == ForeignTask || kind == FakeFailure || kind == Repurpose {
				// These kinds are violations by construction;
				// Skip/Swap can occasionally stay valid (parallel
				// branches, optional OR paths).
				t.Errorf("%s on %s not detected: %s", kind, caseID, rep)
			}
		}
	}
	if applied == 0 {
		t.Fatalf("no injections applied")
	}
	if detected*10 < applied*6 {
		t.Errorf("detected only %d of %d injections", detected, applied)
	}
}

// TestDetectionGapVersusTokenReplay quantifies the Section 6 argument:
// token replay misses every wrong-role injection Algorithm 1 catches.
func TestDetectionGapVersusTokenReplay(t *testing.T) {
	proc := MustGenerate(DefaultProcParams("Gap", 5, 8))
	reg := core.NewRegistry()
	reg.MustRegister(proc, "GP")
	roles := policy.NewRoleHierarchy()
	if err := roles.Add("R0"); err != nil {
		t.Fatal(err)
	}
	checker := core.NewChecker(reg, roles)
	net, err := petri.FromBPMN(proc)
	if err != nil {
		t.Fatal(err)
	}
	replayer := &petri.Replayer{Net: net}

	sim := NewSimulator(reg, DefaultTrailParams(13, 5, "GP"))
	trail, err := sim.Generate()
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(99)

	for _, caseID := range trail.Cases() {
		entries := trail.ByCase(caseID).Entries()
		mut, ok := inj.Inject(WrongRole, entries)
		if !ok {
			continue
		}
		mt := audit.NewTrail(mut)
		rep, err := checker.CheckCase(mt, caseID)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Compliant {
			t.Fatalf("Algorithm 1 missed a wrong-role injection in %s", caseID)
		}
		res, err := replayer.ReplayCase(mt, caseID)
		if err != nil {
			t.Fatal(err)
		}
		if res.Flagged() {
			t.Fatalf("token replay unexpectedly saw a role violation in %s: %+v", caseID, res)
		}
	}
}

// TestHospitalDayScale generates the Section 1 daily load shape.
func TestHospitalDayScale(t *testing.T) {
	if testing.Short() {
		t.Skip("hospital-day generation is sized for benchmarks")
	}
	sc, err := hospital.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	trail, cases, err := HospitalDay(sc.Registry, hospital.TreatmentCode, 2000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if trail.Len() < 2000 {
		t.Fatalf("opens = %d, want ≥ 2000", trail.Len())
	}
	if cases < 10 {
		t.Fatalf("cases = %d", cases)
	}
	// Spot-check a few cases replay cleanly.
	roles, _ := hospital.Roles()
	checker := core.NewChecker(sc.Registry, roles)
	for i, caseID := range trail.Cases() {
		if i >= 5 {
			break
		}
		rep, err := checker.CheckCase(trail, caseID)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Compliant {
			t.Errorf("day case %s rejected: %s", caseID, rep)
		}
	}
}

func TestManyCases(t *testing.T) {
	sc, err := hospital.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	trail, err := ManyCases(sc.Registry, hospital.TreatmentCode, 12, 17)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(trail.Cases()); got != 12 {
		t.Fatalf("cases = %d, want 12", got)
	}
	roles, _ := hospital.Roles()
	checker := core.NewChecker(sc.Registry, roles)
	reports, err := checker.CheckTrailParallel(trail, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if !rep.Compliant {
			t.Errorf("generated case %s rejected: %s", rep.Case, rep)
		}
	}
}

// TestGeneratedProcessesJSONRoundTrip: every generated process survives
// the JSON interchange format with structure and routing intact.
func TestGeneratedProcessesJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for seed := int64(1); seed <= 8; seed++ {
		p := DefaultProcParams(fmt.Sprintf("RT%d", seed), seed, 15)
		p.Pools = 1 + int(seed%3)
		proc := MustGenerate(p)
		buf.Reset()
		if err := proc.EncodeJSON(&buf); err != nil {
			t.Fatalf("seed=%d: encode: %v", seed, err)
		}
		re, err := bpmn.DecodeJSON(&buf)
		if err != nil {
			t.Fatalf("seed=%d: decode: %v", seed, err)
		}
		if re.Stats() != proc.Stats() {
			t.Fatalf("seed=%d: stats changed: %+v vs %+v", seed, re.Stats(), proc.Stats())
		}
		for split, join := range proc.ORPairs() {
			if re.ORJoin(split) != join {
				t.Fatalf("seed=%d: OR pairing lost for %s", seed, split)
			}
		}
		// And the round-tripped process still encodes and simulates.
		reg := core.NewRegistry()
		reg.MustRegister(re, "RT")
		trail, err := NewSimulator(reg, DefaultTrailParams(seed, 1, "RT")).Generate()
		if err != nil {
			t.Fatalf("seed=%d: simulate after round trip: %v", seed, err)
		}
		rep, err := core.NewChecker(reg, nil).CheckCase(trail, trail.Cases()[0])
		if err != nil || !rep.Compliant {
			t.Fatalf("seed=%d: replay after round trip: %v %v", seed, rep, err)
		}
	}
}

// TestWideTrailTakesFastPath checks that every line the wide-audit
// generator writes (a 50-task process, 1200 simulated cases, and every
// violation kind injected into a share of them) is claimed by the
// scanner's fast parser, so the offline decode never pays the
// encoding/json fallback on this shape, and that the lines decode back
// to the entries written.
func TestWideTrailTakesFastPath(t *testing.T) {
	proc, err := Generate(DefaultProcParams("Wide", 7, 50))
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	if _, err := reg.Register(proc, "WA"); err != nil {
		t.Fatal(err)
	}
	trail, err := NewSimulator(reg, DefaultTrailParams(1, 1200, "WA")).Generate()
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(1)
	var entries []audit.Entry
	var group []audit.Entry
	groups, injected := 0, 0
	flush := func() {
		if groups%10 == 9 {
			if mut, ok := inj.Inject(ViolationKind(groups/10%int(NumViolationKinds)), group); ok {
				group = mut
				injected++
			}
		}
		entries = append(entries, group...)
		group = group[:0]
		groups++
	}
	for _, e := range trail.View() {
		if len(group) > 0 && e.Case != group[0].Case {
			flush()
		}
		group = append(group, e)
	}
	flush()
	if injected < int(NumViolationKinds) {
		t.Fatalf("injected %d violations into %d cases", injected, groups)
	}
	var buf bytes.Buffer
	for _, e := range entries {
		if err := audit.AppendJSONL(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	sc := audit.NewEntryScanner(&buf, audit.DecodeOptions{})
	n := 0
	for ; sc.Scan(); n++ {
		if got, want := sc.Entry(), &entries[n]; got.String() != want.String() || !got.Time.Equal(want.Time) {
			t.Fatalf("line %d decodes to %v, written %v", n+1, got, want)
		}
	}
	if err := sc.Err(); err != nil || n != len(entries) {
		t.Fatalf("scanned %d of %d lines: %v", n, len(entries), err)
	}
	if sc.Fallbacks() != 0 {
		t.Errorf("%d of %d wide-audit lines fell back to encoding/json", sc.Fallbacks(), n)
	}
}
