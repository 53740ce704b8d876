// Benchmarks regenerating the paper's experiments (see DESIGN.md §5 and
// EXPERIMENTS.md). The paper reports no measured numbers — only the
// claims that Algorithm 1 is tractable, scales, parallelizes across
// cases (Sections 1, 4, 7), and beats naive trace enumeration
// (Section 1); each claim is a benchmark family here:
//
//	P1  BenchmarkTrailLength      check time vs trail length
//	P2  BenchmarkProcessSize      check time vs process size
//	P3  BenchmarkParallelCases    hospital-day throughput vs workers
//	P4  BenchmarkNaiveVsAlg1      Algorithm 1 vs trace enumeration
//	P5  BenchmarkTokenReplay      Algorithm 1 vs Petri token replay
//	P6  BenchmarkORBranching      configuration growth vs OR fan-out
//
// plus micro-benchmarks of the substrate (COWS stepping, WeakNext,
// canonicalization, encoding, secure logging).
package repro

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/bpmn"
	"repro/internal/core"
	"repro/internal/cows"
	"repro/internal/encode"
	"repro/internal/hospital"
	"repro/internal/lts"
	"repro/internal/naive"
	"repro/internal/petri"
	"repro/internal/workload"
)

// loopedProcess builds a process whose trails can be made arbitrarily
// long: T1 → (T2|T3) → loop back or exit.
func loopedProcess(name string) *bpmn.Process {
	return bpmn.NewBuilder(name).Pool("P").
		Start("S", "P").Task("T1", "P", "").XOR("G", "P").
		Task("T2", "P", "").Task("T3", "P", "").
		XOR("M", "P").XOR("G2", "P").Task("T4", "P", "").End("E", "P").
		Seq("S", "T1", "G").Seq("G", "T2", "M").Seq("G", "T3", "M").
		Seq("M", "G2").Seq("G2", "T1").Seq("G2", "T4", "E").
		MustBuild()
}

// longTrail builds a valid single-case trail of exactly n entries on the
// looped process: (T1, T2)* iterations ending with T4 — deterministic
// length, so the P1 series measures trail length and nothing else.
func longTrail(n int) *audit.Trail {
	pairs := (n - 1) / 2
	if pairs < 1 {
		pairs = 1
	}
	tasks := make([]string, 0, 2*pairs+1)
	for i := 0; i < pairs; i++ {
		tasks = append(tasks, "T1", "T2")
	}
	tasks = append(tasks, "T4")
	return taskTrail("LP-1", tasks)
}

// BenchmarkTrailLength (P1): Algorithm 1's replay cost as the audit
// trail grows — the paper's tractability claim. Reported ns/op covers
// one full case check; see ns/entry in the custom metric.
func BenchmarkTrailLength(b *testing.B) {
	for _, steps := range []int{10, 100, 1000, 5000} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			reg := core.NewRegistry()
			reg.MustRegister(loopedProcess("Loop"), "LP")
			trail := longTrail(steps)
			caseID := trail.Cases()[0]
			checker := core.NewChecker(reg, nil)
			// Warm the LTS caches once; steady-state checking is
			// what a deployed auditor sees.
			if rep, err := checker.CheckCase(trail, caseID); err != nil || !rep.Compliant {
				b.Fatalf("warmup: %v %v", rep, err)
			}
			entries := trail.Len()
			b.ReportMetric(float64(entries), "entries")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := checker.CheckCase(trail, caseID)
				if err != nil || !rep.Compliant {
					b.Fatalf("%v %v", rep, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
		})
	}
}

// BenchmarkProcessSize (P2): replay cost as the process grows.
func BenchmarkProcessSize(b *testing.B) {
	for _, tasks := range []int{5, 20, 50, 100, 200} {
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			proc := workload.MustGenerate(workload.DefaultProcParams("Sized", 3, tasks))
			reg := core.NewRegistry()
			reg.MustRegister(proc, "SZ")
			params := workload.DefaultTrailParams(5, 1, "SZ")
			params.MaxSteps = 400
			trail, err := workload.NewSimulator(reg, params).Generate()
			if err != nil {
				b.Fatal(err)
			}
			caseID := trail.Cases()[0]
			checker := core.NewChecker(reg, nil)
			if rep, err := checker.CheckCase(trail, caseID); err != nil || !rep.Compliant {
				b.Fatalf("warmup: %v %v", rep, err)
			}
			b.ReportMetric(float64(trail.Len()), "entries")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep, err := checker.CheckCase(trail, caseID); err != nil || !rep.Compliant {
					b.Fatalf("%v %v", rep, err)
				}
			}
		})
	}
}

// BenchmarkParallelCases (P3): the paper's "massive parallelization"
// across independent cases, on a hospital-day-shaped load (Section 1's
// 20k record opens scaled down to keep bench times sane; scale with
// -benchtime).
func BenchmarkParallelCases(b *testing.B) {
	sc, err := hospital.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	trail, _, err := workload.HospitalDay(sc.Registry, hospital.TreatmentCode, 2000, 21)
	if err != nil {
		b.Fatal(err)
	}
	store := audit.NewStore()
	if err := store.AppendAll(trail.Entries()); err != nil {
		b.Fatal(err)
	}
	roles, err := hospital.Roles()
	if err != nil {
		b.Fatal(err)
	}
	checker := core.NewChecker(sc.Registry, roles)
	// Warm the shared LTS/configuration caches once so the worker sweep
	// measures steady-state scaling, not the one-time derivation cost.
	if _, err := core.CheckStoreParallel(checker, store, 1); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportMetric(float64(store.Len()), "entries")
			for i := 0; i < b.N; i++ {
				reports, err := core.CheckStoreParallel(checker, store, workers)
				if err != nil {
					b.Fatal(err)
				}
				for id, rep := range reports {
					if !rep.Compliant {
						b.Fatalf("case %s rejected: %s", id, rep)
					}
				}
			}
		})
	}
}

// BenchmarkCheckTrailParallel: Checker.CheckTrailParallel on the same
// hospital-day load — the report-ordered variant of P3, sharing one
// warm checker across workers.
func BenchmarkCheckTrailParallel(b *testing.B) {
	sc, err := hospital.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	trail, _, err := workload.HospitalDay(sc.Registry, hospital.TreatmentCode, 500, 21)
	if err != nil {
		b.Fatal(err)
	}
	roles, err := hospital.Roles()
	if err != nil {
		b.Fatal(err)
	}
	checker := core.NewChecker(sc.Registry, roles)
	if _, err := checker.CheckTrail(trail); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := checker.CheckTrailParallel(trail, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckTrailCases: Checker.CheckTrail on hospital trails of
// 300, 1,200 and 4,800 cases on a warm checker. The trail is indexed by
// case once, so ns/entry stays flat as the case count grows; a per-case
// rescan of the trail would make it grow linearly with it.
func BenchmarkCheckTrailCases(b *testing.B) {
	sc, err := hospital.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	roles, err := hospital.Roles()
	if err != nil {
		b.Fatal(err)
	}
	for _, cases := range []int{300, 1200, 4800} {
		b.Run(fmt.Sprintf("cases=%d", cases), func(b *testing.B) {
			trail, err := workload.ManyCases(sc.Registry, hospital.TreatmentCode, cases, 7)
			if err != nil {
				b.Fatal(err)
			}
			checker := core.NewChecker(sc.Registry, roles)
			if _, err := checker.CheckTrail(trail); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := checker.CheckTrail(trail); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(trail.Len()), "entries")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(trail.Len()), "ns/entry")
		})
	}
}

// BenchmarkNaiveVsAlg1 (P4): the Section 1 comparison. The naive
// checker materializes the trace set (exponential in loop iterations ×
// branching); Algorithm 1 replays in time linear in the trail.
func BenchmarkNaiveVsAlg1(b *testing.B) {
	for _, steps := range []int{4, 8, 16, 24} {
		reg := core.NewRegistry()
		reg.MustRegister(loopedProcess("Loop"), "LP")
		trail := longTrail(steps)
		caseID := trail.Cases()[0]

		b.Run(fmt.Sprintf("alg1/steps=%d", steps), func(b *testing.B) {
			checker := core.NewChecker(reg, nil)
			for i := 0; i < b.N; i++ {
				if rep, err := checker.CheckCase(trail, caseID); err != nil || !rep.Compliant {
					b.Fatalf("%v %v", rep, err)
				}
			}
		})
		b.Run(fmt.Sprintf("naive/steps=%d", steps), func(b *testing.B) {
			nv := naive.NewChecker(reg, nil)
			nv.Slack = 2
			nv.MaxTraces = 1 << 20
			traces := 0
			for i := 0; i < b.N; i++ {
				res, err := nv.CheckCase(trail, caseID)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Compliant && res.Exhaustive {
					b.Fatalf("naive rejected a valid trail")
				}
				traces = res.TracesEnumerated
			}
			b.ReportMetric(float64(traces), "traces")
		})
	}
}

// BenchmarkTokenReplay (P5, cost side): Petri-net token replay on the
// same hospital cases Algorithm 1 checks. (Capability side — what token
// replay cannot detect — is TestDetectionGapVersusTokenReplay in
// internal/workload and the P5 table in cmd/benchtab.)
func BenchmarkTokenReplay(b *testing.B) {
	sc, err := hospital.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	net, err := petri.FromBPMN(sc.Treatment)
	if err != nil {
		b.Fatal(err)
	}
	replayer := &petri.Replayer{Net: net}
	roles, err := hospital.Roles()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tokenreplay/HT-1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := replayer.ReplayCase(sc.Trail, "HT-1")
			if err != nil || res.Flagged() {
				b.Fatalf("%+v %v", res, err)
			}
		}
	})
	b.Run("alg1/HT-1", func(b *testing.B) {
		checker := core.NewChecker(sc.Registry, roles)
		if rep, err := checker.CheckCase(sc.Trail, "HT-1"); err != nil || !rep.Compliant {
			b.Fatalf("warmup: %v %v", rep, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := checker.CheckCase(sc.Trail, "HT-1")
			if err != nil || !rep.Compliant {
				b.Fatalf("%v %v", rep, err)
			}
		}
	})
}

// BenchmarkORBranching (P6): the cost driver of Definition 6 — the
// configuration set tracks every consistent OR-subset hypothesis, so
// peak configurations (and time) grow with inclusive fan-out.
func BenchmarkORBranching(b *testing.B) {
	for _, branches := range []int{2, 3, 4, 5, 6} {
		b.Run(fmt.Sprintf("branches=%d", branches), func(b *testing.B) {
			bl := bpmn.NewBuilder("ORFan").Pool("P").
				Start("S", "P").OR("G", "P").OR("J", "P").
				Task("TZ", "P", "").End("E", "P")
			for i := 0; i < branches; i++ {
				id := fmt.Sprintf("T%d", i)
				bl.Task(id, "P", "")
				bl.Seq("G", id, "J")
			}
			proc := bl.Seq("S", "G").Seq("J", "TZ", "E").PairOR("G", "J").MustBuild()
			reg := core.NewRegistry()
			reg.MustRegister(proc, "OF")

			// Trail: all branches fire, then the join task.
			steps := make([]string, 0, branches+1)
			for i := 0; i < branches; i++ {
				steps = append(steps, fmt.Sprintf("T%d", i))
			}
			steps = append(steps, "TZ")
			trail := taskTrail("OF-1", steps)
			checker := core.NewChecker(reg, nil)
			rep, err := checker.CheckCase(trail, "OF-1")
			if err != nil || !rep.Compliant {
				b.Fatalf("warmup: %v %v", rep, err)
			}
			b.ReportMetric(float64(rep.PeakConfigurations), "peakconfigs")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep, err := checker.CheckCase(trail, "OF-1"); err != nil || !rep.Compliant {
					b.Fatalf("%v %v", rep, err)
				}
			}
		})
	}
}

// taskTrail builds a one-case trail of successive success entries in
// pool P.
func taskTrail(caseID string, tasks []string) *audit.Trail {
	var entries []audit.Entry
	base, _ := audit.ParsePaperTime("202607050900")
	for i, task := range tasks {
		entries = append(entries, audit.Entry{
			User: "u", Role: "P", Action: "read",
			Task: task, Case: caseID,
			Time: base.Add(time.Duration(i) * time.Minute), Status: audit.Success,
		})
	}
	return audit.NewTrail(entries)
}

//
// Substrate micro-benchmarks.
//

// BenchmarkCOWSStep measures one derivation step on the encoded Fig. 1
// process.
func BenchmarkCOWSStep(b *testing.B) {
	treatment, err := hospital.Treatment()
	if err != nil {
		b.Fatal(err)
	}
	s, err := encode.Encode(treatment)
	if err != nil {
		b.Fatal(err)
	}
	e := cows.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeakNext measures Definition 7 (cold cache) on Fig. 1.
func BenchmarkWeakNext(b *testing.B) {
	treatment, err := hospital.Treatment()
	if err != nil {
		b.Fatal(err)
	}
	s, err := encode.Encode(treatment)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := lts.NewSystem(encode.Observability(treatment))
		if _, err := y.WeakNext(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanon measures state canonicalization on the Fig. 1
// encoding.
func BenchmarkCanon(b *testing.B) {
	treatment, err := hospital.Treatment()
	if err != nil {
		b.Fatal(err)
	}
	s, err := encode.Encode(treatment)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cows.Canon(s)
	}
}

// BenchmarkExploreGenerated measures a cold Explore of the wide-audit
// process (workload.Generate, 50 tasks, seed 7: 120 states), the cold
// state-space derivation an offline audit pays once per purpose. Run
// with -benchmem for its allocations.
func BenchmarkExploreGenerated(b *testing.B) {
	p, err := workload.Generate(workload.DefaultProcParams("W", 7, 50))
	if err != nil {
		b.Fatal(err)
	}
	s, err := encode.Encode(p)
	if err != nil {
		b.Fatal(err)
	}
	obs := encode.Observability(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lts.NewSystem(obs).Explore(s, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// wideAuditInput is the offline audit of perfbench's wide-audit
// workload without its injected violations: the workload.Generate
// process (50 tasks, seed 7) registered under code WA and a simulated
// trail of 1,200 cases (trail seed 1), as JSONL bytes.
func wideAuditInput(b *testing.B) (*core.Registry, []byte) {
	b.Helper()
	p, err := workload.Generate(workload.DefaultProcParams("Wide", 7, 50))
	if err != nil {
		b.Fatal(err)
	}
	reg := core.NewRegistry()
	if _, err := reg.Register(p, "WA"); err != nil {
		b.Fatal(err)
	}
	trail, err := workload.NewSimulator(reg, workload.DefaultTrailParams(1, 1200, "WA")).Generate()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := audit.WriteJSONL(&buf, trail); err != nil {
		b.Fatal(err)
	}
	return reg, buf.Bytes()
}

// BenchmarkWideAuditDecode times the decode half of the offline audit:
// DecodeJSONLEntries and NewTrail over the wide-audit trail, per entry.
func BenchmarkWideAuditDecode(b *testing.B) {
	_, data := wideAuditInput(b)
	entries := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		es, _, err := audit.DecodeJSONLEntries(bytes.NewReader(data), audit.DecodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		entries = audit.NewTrail(es).Len()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
}

// BenchmarkWideAuditCheck times the check half of the offline audit:
// CheckTrailParallel on a cold interpreter checker (a new one per
// iteration, so state-space exploration is included) with one worker
// per CPU, per entry.
func BenchmarkWideAuditCheck(b *testing.B) {
	reg, data := wideAuditInput(b)
	trail, err := audit.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewChecker(reg, nil).CheckTrailParallel(trail, runtime.NumCPU()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trail.Len()), "ns/entry")
}

// BenchmarkEncode measures BPMN→COWS translation of Fig. 1.
func BenchmarkEncode(b *testing.B) {
	treatment, err := hospital.Treatment()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encode.Encode(treatment); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecureLogAppend measures the hash-chain sealing rate.
func BenchmarkSecureLogAppend(b *testing.B) {
	sc, err := hospital.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	entries := sc.Trail.Entries()
	l := audit.NewSecureLog([]byte("bench-key"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(entries[i%len(entries)])
	}
}

// BenchmarkMonitorFeed measures online per-entry cost on the Figure 4
// stream, through Feed (a fresh Verdict per entry) and through FeedInto
// (one Verdict reused, as auditd's shards feed). The checker is warmed
// once; each pass over the stream starts a fresh monitor.
func BenchmarkMonitorFeed(b *testing.B) {
	sc, err := hospital.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	roles, err := hospital.Roles()
	if err != nil {
		b.Fatal(err)
	}
	entries := sc.Trail.Entries()
	checker := core.NewChecker(sc.Registry, roles)
	if _, err := checker.CheckTrail(sc.Trail); err != nil {
		b.Fatal(err)
	}
	var v core.Verdict
	for _, bm := range []struct {
		name string
		feed func(m *core.Monitor, e *audit.Entry) error
	}{
		{"Feed", func(m *core.Monitor, e *audit.Entry) error {
			_, err := m.Feed(*e)
			return err
		}},
		{"FeedInto", func(m *core.Monitor, e *audit.Entry) error {
			return m.FeedInto(context.Background(), e, &v)
		}},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%len(entries) == 0 {
					b.StopTimer()
					bmMonitor = core.NewMonitor(checker)
					b.StartTimer()
				}
				if err := bm.feed(bmMonitor, &entries[i%len(entries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var bmMonitor *core.Monitor

// BenchmarkSkipBudget measures the cost of the partial-trail extension
// (Section 7 future work): replaying HT-1 with the T10 entry removed
// under growing skip budgets.
func BenchmarkSkipBudget(b *testing.B) {
	sc, err := hospital.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	roles, err := hospital.Roles()
	if err != nil {
		b.Fatal(err)
	}
	var entries []audit.Entry
	for _, e := range sc.Trail.ByCase("HT-1").Entries() {
		if e.Task == "T10" {
			continue
		}
		entries = append(entries, e)
	}
	partial := audit.NewTrail(entries)
	checker := core.NewChecker(sc.Registry, roles)
	if _, err := checker.CheckCaseWithSkips(partial, "HT-1", 1); err != nil {
		b.Fatal(err)
	}
	for _, budget := range []int{0, 1, 2, 3} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := checker.CheckCaseWithSkips(partial, "HT-1", budget)
				if err != nil {
					b.Fatal(err)
				}
				if budget >= 1 && !rep.Compliant {
					b.Fatalf("budget %d rejected: %+v", budget, rep)
				}
			}
		})
	}
}
