// Command benchtab regenerates every experiment in DESIGN.md §5 /
// EXPERIMENTS.md: the figure reproductions F1–F10 and the performance
// claims P1–P8. Timed rows use testing.Benchmark, so numbers are
// directly comparable to `go test -bench`.
//
// Usage:
//
//	benchtab              # all experiments
//	benchtab -exp F4,P1   # a selection
//	benchtab -exp P1,P3 -quick -json BENCH.json
//	                      # CI smoke: ~100 iterations per point, with
//	                      # the timed P1/P3 rows also written as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/bpmn"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/cows"
	"repro/internal/encode"
	"repro/internal/hospital"
	"repro/internal/lts"
	"repro/internal/naive"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/policy"
	"repro/internal/workload"
)

// quickIters, when positive, switches bench() from testing.Benchmark's
// adaptive ~1s runs to a fixed iteration count — the CI smoke mode.
var quickIters int

// benchRow is one timed measurement, recorded for -json output.
type benchRow struct {
	Exp        string  `json:"exp"`
	Name       string  `json:"name"`
	Entries    int     `json:"entries,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	NsPerOp    int64   `json:"ns_per_op"`
	NsPerEntry float64 `json:"ns_per_entry,omitempty"`
}

var benchRows []benchRow

func record(r benchRow) { benchRows = append(benchRows, r) }

func main() {
	// Benchmark methodology (P3): parallel-scaling rows are only
	// meaningful at the machine's real parallelism, so pin GOMAXPROCS
	// to NumCPU explicitly and record both in the JSON output instead
	// of inheriting whatever the environment set.
	runtime.GOMAXPROCS(runtime.NumCPU())
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	jsonFlag := flag.String("json", "", "write timed rows (P1, P3, P4, P5) as JSON to this file")
	quickFlag := flag.Bool("quick", false, "fixed 100-iteration timing instead of ~1s adaptive runs")
	guardFlag := flag.String("guard", "", "baseline JSON file (as -json writes); exit 1 if any shared timed row's ns/entry regresses more than -guard-slack")
	slackFlag := flag.Float64("guard-slack", 0.25, "tolerated fractional ns/entry regression vs the baseline")
	slackExpFlag := flag.String("guard-slack-exp", "", "per-experiment slack overrides, e.g. P1=0.05,P4=0.05")
	retriesFlag := flag.Int("guard-retries", 3, "extra measurement rounds if the guard fails; per-row minima merge across rounds")
	versionFlag := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(cli.VersionString("benchtab"))
		return
	}
	if *quickFlag {
		quickIters = 100
	}

	all := []struct {
		id  string
		fn  func() error
		doc string
	}{
		{"F1", expF1, "Fig. 1 treatment process"},
		{"F2", expF2, "Fig. 2 clinical trial process"},
		{"F3", expF3, "Fig. 3 policy decisions"},
		{"F4", expF4, "Fig. 4 per-case verdicts"},
		{"F5", expF5, "Fig. 5 WeakNext"},
		{"F6", expF6, "Fig. 6 replay walkthrough"},
		{"F7", expF7to10, "Figs. 7-10 appendix encodings"},
		{"P1", expP1, "check time vs trail length"},
		{"P2", expP2, "check time vs process size"},
		{"P3", expP3, "parallel case checking"},
		{"P4", expP4, "Algorithm 1 vs naive enumeration; compiled automaton vs interpreter"},
		{"P5", expP5, "detection & cost vs token replay; observer overhead"},
		{"P6", expP6, "OR fan-out growth"},
		{"P7", expP7, "well-foundedness detection"},
		{"P8", expP8, "mimicry requires collusion"},
	}
	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	runSelected := func() {
		for _, e := range all {
			if len(want) > 0 && !want[e.id] && !(e.id == "F7" && (want["F8"] || want["F9"] || want["F10"])) {
				continue
			}
			fmt.Printf("\n===== %s: %s =====\n", e.id, e.doc)
			if err := e.fn(); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", e.id, err)
				os.Exit(1)
			}
		}
	}
	runSelected()
	best := benchRows
	var guardErr error
	if *guardFlag != "" {
		slackByExp, err := parseSlackByExp(*slackExpFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: -guard-slack-exp: %v\n", err)
			os.Exit(1)
		}
		// A shared CI box stalls whole measurement windows at once, so a
		// single round over-reports ns/entry by tens of percent. Noise is
		// strictly one-sided: re-measure and keep each row's minimum, and
		// accept as soon as the merged best run is inside the slack.
		for round := 0; ; round++ {
			guardErr = guard(best, *guardFlag, *slackFlag, slackByExp)
			if guardErr == nil || round >= *retriesFlag {
				break
			}
			fmt.Printf("\nbenchguard: regression may be measurement noise; re-measuring (round %d/%d)\n",
				round+2, *retriesFlag+1)
			benchRows = nil
			runSelected()
			best = mergeMinRows(best, benchRows)
		}
	}
	if *jsonFlag != "" {
		out := struct {
			Quick      bool       `json:"quick"`
			GoMaxProcs int        `json:"gomaxprocs"`
			NumCPU     int        `json:"numcpu"`
			Rows       []benchRow `json:"rows"`
		}{Quick: quickIters > 0, GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Rows: best}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: encoding %s: %v\n", *jsonFlag, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonFlag, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: writing %s: %v\n", *jsonFlag, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d timed rows to %s\n", len(best), *jsonFlag)
	}
	if guardErr != nil {
		fmt.Fprintf(os.Stderr, "benchtab: benchguard: %v\n", guardErr)
		os.Exit(1)
	}
}

// mergeMinRows folds a fresh measurement round into the running best
// rows, keeping the smaller ns/entry per (exp, name) key.
func mergeMinRows(best, fresh []benchRow) []benchRow {
	idx := map[string]int{}
	for i, r := range best {
		idx[r.Exp+"/"+r.Name] = i
	}
	for _, r := range fresh {
		i, ok := idx[r.Exp+"/"+r.Name]
		if !ok {
			idx[r.Exp+"/"+r.Name] = len(best)
			best = append(best, r)
			continue
		}
		if r.NsPerEntry > 0 && (best[i].NsPerEntry <= 0 || r.NsPerEntry < best[i].NsPerEntry) {
			best[i] = r
		}
	}
	return best
}

// parseSlackByExp parses "P1=0.05,P4=0.05" into per-experiment slack
// fractions that override the global -guard-slack for those rows.
func parseSlackByExp(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		exp, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("%q: want EXP=FRACTION", part)
		}
		var f float64
		if _, err := fmt.Sscanf(strings.TrimSpace(val), "%g", &f); err != nil || f < 0 {
			return nil, fmt.Errorf("%q: bad fraction", part)
		}
		out[strings.TrimSpace(strings.ToUpper(exp))] = f
	}
	return out, nil
}

// guard compares this run's timed rows against a checked-in baseline.
// Only rows measured by both sides are compared, so a guard run may
// select any experiment subset. CI wall-clock noise is absorbed by the
// slack; a genuine hot-path regression blows well past it. slackByExp
// tightens (or loosens) the tolerance for individual experiments — the
// PR 5 observer work holds the nil-observer replay rows to 5%.
func guard(rows []benchRow, baseline string, slack float64, slackByExp map[string]float64) error {
	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var doc struct {
		Rows []benchRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", baseline, err)
	}
	base := map[string]benchRow{}
	for _, r := range doc.Rows {
		if r.NsPerEntry > 0 {
			base[r.Exp+"/"+r.Name] = r
		}
	}
	if len(base) == 0 {
		return fmt.Errorf("no ns/entry baseline rows in %s", baseline)
	}
	fmt.Printf("\n===== benchguard (slack %.0f%%) =====\n", slack*100)
	fmt.Printf("%-28s %-12s %-12s %s\n", "row", "baseline", "current", "delta")
	var failures []string
	compared := 0
	for _, r := range rows {
		b, ok := base[r.Exp+"/"+r.Name]
		if !ok || r.NsPerEntry <= 0 {
			continue
		}
		// Sub-100-entry points time in single-digit microseconds, where
		// quick mode's fixed iteration count is scheduler noise, not
		// signal; the long-trail rows are the regression detectors.
		if r.Entries < 100 {
			continue
		}
		compared++
		rowSlack := slack
		if s, ok := slackByExp[r.Exp]; ok {
			rowSlack = s
		}
		delta := r.NsPerEntry/b.NsPerEntry - 1
		mark := ""
		if delta > rowSlack {
			mark = "  REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"series %s row %q (%d entries): measured %.1f ns/entry vs baseline %.1f ns/entry in %s — %+.0f%% exceeds the allowed %.0f%% slack",
				r.Exp, r.Name, r.Entries, r.NsPerEntry, b.NsPerEntry, baseline, delta*100, rowSlack*100))
		}
		fmt.Printf("%-28s %-12.1f %-12.1f %+.0f%%%s\n", r.Exp+"/"+r.Name, b.NsPerEntry, r.NsPerEntry, delta*100, mark)
	}
	if compared == 0 {
		return fmt.Errorf("no timed rows shared with the baseline (ran the wrong -exp selection?)")
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d row(s) regressed past their slack:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Printf("benchguard: %d rows within slack\n", compared)
	return nil
}

func bench(f func() error) (time.Duration, error) {
	if quickIters > 0 {
		if err := f(); err != nil { // warm once outside the timer
			return 0, err
		}
		// Same total work as one quickIters loop, but split into
		// repetitions and keep the fastest: scheduler preemption and
		// noisy-neighbor stalls only ever slow a sample down, so the
		// minimum is the stable estimator the benchguard compares.
		const reps = 5
		iters := quickIters / reps
		if iters < 1 {
			iters = 1
		}
		best := time.Duration(-1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			if d := time.Since(start) / time.Duration(iters); best < 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	var err error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if e := f(); e != nil {
				err = e
				b.FailNow()
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return time.Duration(r.NsPerOp()), nil
}

func procSummary(p *bpmn.Process) error {
	st := p.Stats()
	fmt.Printf("process %-22s pools=%d tasks=%d gateways=%d events=%d seqflows=%d msgflows=%d errorEdges=%d\n",
		p.Name, st.Pools, st.Tasks, st.Gateways, st.Events, st.SeqFlows, st.MsgFlows, st.ErrorEdge)
	rep, err := encode.Report(p)
	if err != nil {
		return err
	}
	fmt.Printf("COWS encoding: %d AST nodes over %d element services; well-founded: yes (validated)\n",
		rep.TotalSize, len(rep.Elements))
	return nil
}

func expF1() error {
	p, err := hospital.Treatment()
	if err != nil {
		return err
	}
	if err := procSummary(p); err != nil {
		return err
	}
	// Observable LTS fragment statistics (the space Algorithm 1 walks).
	y := encode.NewSystem(p)
	s, err := encode.Encode(p)
	if err != nil {
		return err
	}
	g, err := y.ExploreObservable(s, 3000)
	if err != nil && g == nil {
		return err
	}
	complete := "complete"
	if !g.Complete {
		complete = "truncated at budget (process cycles make the space unbounded)"
	}
	fmt.Printf("observable LTS: %d states, %d transitions (%s)\n", g.NumStates(), g.NumEdges(), complete)
	return nil
}

func expF2() error {
	p, err := hospital.ClinicalTrial()
	if err != nil {
		return err
	}
	if err := procSummary(p); err != nil {
		return err
	}
	y := encode.NewSystem(p)
	s, err := encode.Encode(p)
	if err != nil {
		return err
	}
	g, err := y.ExploreObservable(s, 100)
	if err != nil {
		return err
	}
	fmt.Printf("observable LTS: %d states, %d transitions (complete, linear)\n", g.NumStates(), g.NumEdges())
	return nil
}

func expF3() error {
	sc, err := hospital.NewScenario()
	if err != nil {
		return err
	}
	obj := policy.MustParseObject
	rows := []struct {
		desc string
		req  policy.AccessRequest
	}{
		{"GP reads clinical for treatment", policy.AccessRequest{User: "John", Role: "GP", Action: "read", Object: obj("[Jane]EPR/Clinical"), Task: "T01", Case: "HT-1"}},
		{"Cardiologist writes clinical", policy.AccessRequest{User: "Bob", Role: "Cardiologist", Action: "write", Object: obj("[Jane]EPR/Clinical"), Task: "T09", Case: "HT-1"}},
		{"LabTech writes Tests subsection", policy.AccessRequest{User: "Tess", Role: "MedicalLabTech", Action: "write", Object: obj("[Jane]EPR/Clinical/Tests"), Task: "T15", Case: "HT-1"}},
		{"LabTech writes whole Clinical", policy.AccessRequest{User: "Tess", Role: "MedicalLabTech", Action: "write", Object: obj("[Jane]EPR/Clinical"), Task: "T15", Case: "HT-1"}},
		{"Trial read, Alice (consented)", policy.AccessRequest{User: "Bob", Role: "Cardiologist", Action: "read", Object: obj("[Alice]EPR/Clinical"), Task: "T92", Case: "CT-1"}},
		{"Trial read, Jane (no consent)", policy.AccessRequest{User: "Bob", Role: "Cardiologist", Action: "read", Object: obj("[Jane]EPR/Clinical"), Task: "T92", Case: "CT-1"}},
		{"Task outside claimed purpose", policy.AccessRequest{User: "Bob", Role: "Cardiologist", Action: "read", Object: obj("[Jane]EPR/Clinical"), Task: "T92", Case: "HT-1"}},
	}
	fmt.Printf("%-36s %s\n", "request", "decision")
	for _, r := range rows {
		dec := sc.Framework.PDP.Evaluate(r.req)
		verdict := "DENY"
		if dec.Granted {
			verdict = "PERMIT"
		}
		fmt.Printf("%-36s %s\n", r.desc, verdict)
	}
	return nil
}

func expF4() error {
	sc, err := hospital.NewScenario()
	if err != nil {
		return err
	}
	res, err := sc.Framework.Audit(sc.Trail)
	if err != nil {
		return err
	}
	fmt.Printf("%-7s %-20s %-8s %-13s %s\n", "case", "purpose", "entries", "verdict", "detail")
	for _, rep := range res.CaseReports {
		verdict, detail := "COMPLIANT", ""
		switch {
		case !rep.Compliant:
			verdict = "INFRINGEMENT"
			detail = rep.Violation.Reason
		case rep.Pending:
			detail = "pending (mid-flight)"
		default:
			detail = "complete"
		}
		fmt.Printf("%-7s %-20s %-8d %-13s %s\n", rep.Case, rep.Purpose, rep.Entries, verdict, detail)
	}
	fmt.Printf("preventive layer (Def. 3) findings: %d — the re-purposing is invisible to it\n", len(res.PolicyFindings))
	return nil
}

func expF5() error {
	src := `
		x.tau!<> | y.obs1!<> |
		( x.tau?<>.( a.obs2!<> | b.obs3!<> | (a.obs2?<>.0 + b.obs3?<>.0) )
		+ y.obs1?<>.( c.tau2!<> | d.obs4!<> | (c.tau2?<>.0 + d.obs4?<>.0) ) )`
	s, err := cows.Parse(src)
	if err != nil {
		return err
	}
	y := lts.NewSystem(func(l cows.Label) bool {
		return l.Kind == cows.LComm && strings.HasPrefix(l.Op, "obs")
	})
	obs, err := y.WeakNext(s)
	if err != nil {
		return err
	}
	fmt.Printf("WeakNext(s) returns %d states (paper: s1, s2, s3):\n", len(obs))
	for _, o := range obs {
		fmt.Printf("  via %-8s after %d silent step(s)\n", o.Label, o.Silent)
	}
	return nil
}

func expF6() error {
	sc, err := hospital.NewScenario()
	if err != nil {
		return err
	}
	checker := sc.Framework.Checker
	fmt.Printf("%-4s %-8s %-9s %-8s %s\n", "step", "entry", "status", "configs", "active tasks (union)")
	checker.TraceFn = func(i int, e audit.Entry, configs []*core.Configuration) {
		set := map[string]bool{}
		for _, conf := range configs {
			for _, a := range conf.ActiveTasks() {
				set[a.String()] = true
			}
		}
		var active []string
		for a := range set {
			active = append(active, a)
		}
		sort.Strings(active)
		fmt.Printf("%-4d %-8s %-9s %-8d {%s}\n", i+1, e.Task, e.Status, len(configs), strings.Join(active, ", "))
	}
	defer func() { checker.TraceFn = nil }()
	rep, err := checker.CheckCase(sc.Trail, "HT-1")
	if err != nil {
		return err
	}
	fmt.Println(rep)
	return nil
}

func expF7to10() error {
	y := lts.NewSystem(func(l cows.Label) bool { return l.Kind == cows.LComm })
	examples := []struct {
		fig string
		src string
	}{
		{"Fig. 7 (sequence flow)", `P.T!<> | P.T?<>.P.E!<> | P.E?<>`},
		{"Fig. 8 (exclusive gateway)", `
			P.T!<> | P.T?<>.P.G!<>
			| P.G?<>.[k:kill][sys:name]( sys.T1!<> | sys.T2!<>
				| sys.T1?<>.(kill(k) | {|P.T1!<>|}) | sys.T2?<>.(kill(k) | {|P.T2!<>|}) )
			| P.T1?<>.P.E1!<> | P.E1?<> | P.T2?<>.P.E2!<> | P.E2?<>`},
		{"Fig. 9 (error event)", `
			P.T!<> | P.T?<>.[k:kill][sys:name]( sys.Err!<> | sys.T2!<>
				| sys.Err?<>.(kill(k) | {|P.T1!<>|}) | sys.T2?<>.(kill(k) | {|P.T2!<>|}) )
			| P.T1?<>.P.E1!<> | P.E1?<> | P.T2?<>.P.E2!<> | P.E2?<>`},
		{"Fig. 10 (message flow cycle)", `
			P1.T1!<> | *[z:var] P1.S2?<$z>.P1.T1!<> | *P1.T1?<>.P1.E1!<>
			| *P1.E1?<>.P2.S3!<msg1> | *[z:var] P2.S3?<$z>.P2.T2!<>
			| *P2.T2?<>.P2.E2!<> | *P2.E2?<>.P1.S2!<msg2>`},
	}
	for _, ex := range examples {
		s, err := cows.Parse(ex.src)
		if err != nil {
			return fmt.Errorf("%s: %w", ex.fig, err)
		}
		g, err := y.Explore(s, 500)
		if err != nil {
			return fmt.Errorf("%s: %w", ex.fig, err)
		}
		fmt.Printf("%-28s LTS: %2d states %2d transitions; labels %v\n", ex.fig, g.NumStates(), g.NumEdges(), g.LabelSet())
	}
	return nil
}

func loopedProcess() *bpmn.Process {
	return bpmn.NewBuilder("Loop").Pool("P").
		Start("S", "P").Task("T1", "P", "").XOR("G", "P").
		Task("T2", "P", "").Task("T3", "P", "").
		XOR("M", "P").XOR("G2", "P").Task("T4", "P", "").End("E", "P").
		Seq("S", "T1", "G").Seq("G", "T2", "M").Seq("G", "T3", "M").
		Seq("M", "G2").Seq("G2", "T1").Seq("G2", "T4", "E").
		MustBuild()
}

func longTrail(n int) *audit.Trail {
	pairs := (n - 1) / 2
	if pairs < 1 {
		pairs = 1
	}
	var entries []audit.Entry
	base := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	add := func(task string) {
		entries = append(entries, audit.Entry{
			User: "u", Role: "P", Action: "read", Task: task, Case: "LP-1",
			Time: base.Add(time.Duration(len(entries)) * time.Minute), Status: audit.Success,
		})
	}
	for i := 0; i < pairs; i++ {
		add("T1")
		add("T2")
	}
	add("T4")
	return audit.NewTrail(entries)
}

func expP1() error {
	reg := core.NewRegistry()
	if _, err := reg.Register(loopedProcess(), "LP"); err != nil {
		return err
	}
	checker := core.NewChecker(reg, nil)
	fmt.Printf("%-9s %-12s %s\n", "entries", "time/check", "time/entry")
	for _, steps := range []int{10, 100, 1000, 5000} {
		trail := longTrail(steps)
		caseID := trail.Cases()[0]
		if rep, err := checker.CheckCase(trail, caseID); err != nil || !rep.Compliant {
			return fmt.Errorf("warmup: %v %v", rep, err)
		}
		d, err := bench(func() error {
			rep, err := checker.CheckCase(trail, caseID)
			if err != nil {
				return err
			}
			if !rep.Compliant {
				return fmt.Errorf("rejected")
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-9d %-12v %v\n", trail.Len(), d, d/time.Duration(trail.Len()))
		record(benchRow{
			Exp: "P1", Name: fmt.Sprintf("steps=%d", steps),
			Entries: trail.Len(), NsPerOp: d.Nanoseconds(),
			NsPerEntry: float64(d.Nanoseconds()) / float64(trail.Len()),
		})
	}
	return nil
}

func expP2() error {
	fmt.Printf("%-7s %-9s %-12s\n", "tasks", "entries", "time/check")
	for _, tasks := range []int{5, 20, 50, 100, 200} {
		proc := workload.MustGenerate(workload.DefaultProcParams("Sized", 3, tasks))
		reg := core.NewRegistry()
		if _, err := reg.Register(proc, "SZ"); err != nil {
			return err
		}
		params := workload.DefaultTrailParams(5, 1, "SZ")
		params.MaxSteps = 400
		trail, err := workload.NewSimulator(reg, params).Generate()
		if err != nil {
			return err
		}
		caseID := trail.Cases()[0]
		checker := core.NewChecker(reg, nil)
		if rep, err := checker.CheckCase(trail, caseID); err != nil || !rep.Compliant {
			return fmt.Errorf("warmup: %v %v", rep, err)
		}
		d, err := bench(func() error {
			_, err := checker.CheckCase(trail, caseID)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-7d %-9d %-12v\n", tasks, trail.Len(), d)
	}
	return nil
}

func expP3() error {
	sc, err := hospital.NewScenario()
	if err != nil {
		return err
	}
	trail, cases, err := workload.HospitalDay(sc.Registry, hospital.TreatmentCode, 2000, 21)
	if err != nil {
		return err
	}
	store := audit.NewStore()
	if err := store.AppendAll(trail.Entries()); err != nil {
		return err
	}
	roles, err := hospital.Roles()
	if err != nil {
		return err
	}
	checker := core.NewChecker(sc.Registry, roles)
	// Warm the shared caches so the sweep measures steady-state scaling.
	if _, err := core.CheckStoreParallel(checker, store, 1); err != nil {
		return err
	}
	fmt.Printf("hospital-day load: %d entries across %d cases\n", store.Len(), cases)
	fmt.Printf("%-9s %-12s\n", "workers", "time/sweep")
	sweep := map[int]time.Duration{}
	for _, workers := range []int{1, 2, 4, 8} {
		d, err := bench(func() error {
			_, err := core.CheckStoreParallel(checker, store, workers)
			return err
		})
		if err != nil {
			return err
		}
		sweep[workers] = d
		fmt.Printf("%-9d %-12v\n", workers, d)
		record(benchRow{
			Exp: "P3", Name: fmt.Sprintf("workers=%d", workers),
			Entries: store.Len(), Workers: workers, NsPerOp: d.Nanoseconds(),
			NsPerEntry: float64(d.Nanoseconds()) / float64(store.Len()),
		})
	}
	// Scaling claim, guarded by real parallelism: on a box with 4+
	// schedulable CPUs the 4-worker sweep must beat 1 worker by >1.5x.
	// On smaller boxes (CI containers pinned to 1-2 CPUs) the workers
	// time-slice one core and the claim is vacuous, so it is reported
	// but not enforced — and quick mode's fixed iteration counts are
	// too noisy to gate on either way.
	if procs := runtime.GOMAXPROCS(0); procs >= 4 {
		speedup := float64(sweep[1]) / float64(sweep[4])
		fmt.Printf("parallel speedup at 4 workers (GOMAXPROCS=%d): %.2fx\n", procs, speedup)
		if speedup <= 1.5 && quickIters == 0 {
			return fmt.Errorf("parallel sweep speedup %.2fx at 4 workers, want >1.5x", speedup)
		}
	} else {
		fmt.Printf("parallel speedup check skipped: GOMAXPROCS=%d < 4 (workers would time-slice)\n", procs)
	}
	return nil
}

func expP4() error {
	reg := core.NewRegistry()
	if _, err := reg.Register(loopedProcess(), "LP"); err != nil {
		return err
	}
	// Naive trace enumeration is exponential; the sweep is meaningful in
	// adaptive mode but too slow for the fixed-iteration CI smoke, which
	// only needs the timed engine comparison below.
	if quickIters == 0 {
		fmt.Printf("%-9s %-14s %-14s %s\n", "entries", "Algorithm 1", "naive", "traces materialized")
		for _, steps := range []int{4, 8, 16, 24} {
			trail := longTrail(steps)
			caseID := trail.Cases()[0]
			checker := core.NewChecker(reg, nil)
			dAlg, err := bench(func() error {
				_, err := checker.CheckCase(trail, caseID)
				return err
			})
			if err != nil {
				return err
			}
			nv := naive.NewChecker(reg, nil)
			nv.Slack = 2
			nv.MaxTraces = 1 << 20
			traces := 0
			dNv, err := bench(func() error {
				res, err := nv.CheckCase(trail, caseID)
				if err != nil {
					return err
				}
				traces = res.TracesEnumerated
				return nil
			})
			if err != nil {
				return err
			}
			fmt.Printf("%-9d %-14v %-14v %d\n", trail.Len(), dAlg, dNv, traces)
		}
		fmt.Println()
	}

	// Interpreted vs ahead-of-time compiled replay (DESIGN.md §11) on
	// the same looped process: the compiled engine does one array lookup
	// per entry where the interpreter advances configuration sets.
	interp := core.NewChecker(reg, nil)
	compiled := interp.Clone()
	compiled.UseCompiled = true
	if _, err := compiled.EnsureCompiled("Loop"); err != nil {
		return err
	}
	st, err := compiled.CompiledStatus("Loop")
	if err != nil {
		return err
	}
	fmt.Println(st)
	fmt.Printf("%-9s %-14s %-14s %s\n", "entries", "interpreted", "compiled", "speedup")
	for _, steps := range []int{10, 100, 1000, 5000} {
		trail := longTrail(steps)
		caseID := trail.Cases()[0]
		check := func(c *core.Checker) func() error {
			return func() error {
				rep, err := c.CheckCase(trail, caseID)
				if err != nil {
					return err
				}
				if !rep.Compliant {
					return fmt.Errorf("rejected at %d", rep.StepsReplayed)
				}
				return nil
			}
		}
		if err := check(compiled)(); err != nil { // warm both engines
			return err
		}
		dI, err := bench(check(interp))
		if err != nil {
			return err
		}
		dC, err := bench(check(compiled))
		if err != nil {
			return err
		}
		fmt.Printf("%-9d %-14v %-14v %.1fx\n", trail.Len(), dI, dC, float64(dI)/float64(dC))
		n := float64(trail.Len())
		record(benchRow{
			Exp: "P4", Name: fmt.Sprintf("interpreted/steps=%d", steps),
			Entries: trail.Len(), NsPerOp: dI.Nanoseconds(),
			NsPerEntry: float64(dI.Nanoseconds()) / n,
		})
		record(benchRow{
			Exp: "P4", Name: fmt.Sprintf("compiled/steps=%d", steps),
			Entries: trail.Len(), NsPerOp: dC.Nanoseconds(),
			NsPerEntry: float64(dC.Nanoseconds()) / n,
		})
	}
	return nil
}

func expP5() error {
	proc := workload.MustGenerate(workload.DefaultProcParams("Gap", 5, 10))
	reg := core.NewRegistry()
	if _, err := reg.Register(proc, "GP"); err != nil {
		return err
	}
	roles := policy.NewRoleHierarchy()
	if err := roles.Add("R0"); err != nil {
		return err
	}
	checker := core.NewChecker(reg, roles)
	net, err := petri.FromBPMN(proc)
	if err != nil {
		return err
	}
	replayer := &petri.Replayer{Net: net}

	sim := workload.NewSimulator(reg, workload.DefaultTrailParams(13, 30, "GP"))
	trail, err := sim.Generate()
	if err != nil {
		return err
	}
	inj := workload.NewInjector(99)

	type counts struct{ applied, alg1, replay int }
	perKind := map[workload.ViolationKind]*counts{}
	for kind := workload.ViolationKind(0); kind < workload.NumViolationKinds; kind++ {
		perKind[kind] = &counts{}
	}
	for _, caseID := range trail.Cases() {
		entries := trail.ByCase(caseID).Entries()
		for kind := workload.ViolationKind(0); kind < workload.NumViolationKinds; kind++ {
			mut, ok := inj.Inject(kind, entries)
			if !ok {
				continue
			}
			c := perKind[kind]
			c.applied++
			mt := audit.NewTrail(mut)
			mutCase := mt.Cases()[len(mt.Cases())-1]
			rep, err := checker.CheckCase(mt, mutCase)
			if err != nil {
				return err
			}
			if !rep.Compliant {
				c.alg1++
			}
			res, err := replayer.ReplayCase(mt, mutCase)
			if err != nil {
				return err
			}
			if res.Flagged() {
				c.replay++
			}
		}
	}
	fmt.Printf("%-15s %-9s %-14s %-14s\n", "violation", "injected", "Algorithm 1", "token replay")
	for kind := workload.ViolationKind(0); kind < workload.NumViolationKinds; kind++ {
		c := perKind[kind]
		if c.applied == 0 {
			continue
		}
		fmt.Printf("%-15s %-9d %-14s %-14s\n", kind, c.applied,
			fmt.Sprintf("%d/%d", c.alg1, c.applied), fmt.Sprintf("%d/%d", c.replay, c.applied))
	}
	fmt.Println("(token replay sees task names only: role/actor violations are structurally invisible to it)")

	// Cost on the paper's HT-1.
	sc, err := hospital.NewScenario()
	if err != nil {
		return err
	}
	hroles, err := hospital.Roles()
	if err != nil {
		return err
	}
	hnet, err := petri.FromBPMN(sc.Treatment)
	if err != nil {
		return err
	}
	hreplayer := &petri.Replayer{Net: hnet}
	hchecker := core.NewChecker(sc.Registry, hroles)
	if _, err := hchecker.CheckCase(sc.Trail, "HT-1"); err != nil {
		return err
	}
	dAlg, err := bench(func() error {
		_, err := hchecker.CheckCase(sc.Trail, "HT-1")
		return err
	})
	if err != nil {
		return err
	}
	dTok, err := bench(func() error {
		_, err := hreplayer.ReplayCase(sc.Trail, "HT-1")
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("cost on HT-1 (16 entries): Algorithm 1 %v, token replay %v\n", dAlg, dTok)

	// Observer overhead (DESIGN.md §12): the nil-observer fast path vs a
	// ring-buffer replay tracer on the looped process. The nil rows are
	// the PR 5 "disabled tracing is free" claim; the ring rows bound what
	// enabling it costs.
	lreg := core.NewRegistry()
	if _, err := lreg.Register(loopedProcess(), "LP"); err != nil {
		return err
	}
	oc := core.NewChecker(lreg, nil)
	tracer := obs.NewReplayTracer(obs.NewRing(obs.DefaultRingCapacity))
	fmt.Printf("%-9s %-14s %-14s %s\n", "entries", "observer=nil", "observer=ring", "overhead")
	for _, steps := range []int{1000, 5000} {
		trail := longTrail(steps)
		caseID := trail.Cases()[0]
		check := func() error {
			rep, err := oc.CheckCase(trail, caseID)
			if err != nil {
				return err
			}
			if !rep.Compliant {
				return fmt.Errorf("rejected at %d", rep.StepsReplayed)
			}
			return nil
		}
		if err := check(); err != nil { // warm the shared caches
			return err
		}
		oc.Observer = nil
		dNil, err := bench(check)
		if err != nil {
			return err
		}
		oc.Observer = tracer
		dRing, err := bench(check)
		oc.Observer = nil
		if err != nil {
			return err
		}
		n := float64(trail.Len())
		fmt.Printf("%-9d %-14v %-14v %+.0f%%\n", trail.Len(), dNil, dRing,
			(float64(dRing)/float64(dNil)-1)*100)
		record(benchRow{
			Exp: "P5", Name: fmt.Sprintf("observer=nil/steps=%d", steps),
			Entries: trail.Len(), NsPerOp: dNil.Nanoseconds(),
			NsPerEntry: float64(dNil.Nanoseconds()) / n,
		})
		record(benchRow{
			Exp: "P5", Name: fmt.Sprintf("observer=ring/steps=%d", steps),
			Entries: trail.Len(), NsPerOp: dRing.Nanoseconds(),
			NsPerEntry: float64(dRing.Nanoseconds()) / n,
		})
	}
	return nil
}

func expP6() error {
	fmt.Printf("%-10s %-13s %-12s\n", "branches", "peak configs", "time/check")
	for _, branches := range []int{2, 3, 4, 5, 6} {
		bl := bpmn.NewBuilder("ORFan").Pool("P").
			Start("S", "P").OR("G", "P").OR("J", "P").
			Task("TZ", "P", "").End("E", "P")
		var tasks []string
		for i := 0; i < branches; i++ {
			id := fmt.Sprintf("T%d", i)
			bl.Task(id, "P", "")
			bl.Seq("G", id, "J")
			tasks = append(tasks, id)
		}
		proc := bl.Seq("S", "G").Seq("J", "TZ", "E").PairOR("G", "J").MustBuild()
		reg := core.NewRegistry()
		if _, err := reg.Register(proc, "OF"); err != nil {
			return err
		}
		var entries []audit.Entry
		base := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
		for i, task := range append(tasks, "TZ") {
			entries = append(entries, audit.Entry{
				User: "u", Role: "P", Action: "read", Task: task, Case: "OF-1",
				Time: base.Add(time.Duration(i) * time.Minute), Status: audit.Success,
			})
		}
		trail := audit.NewTrail(entries)
		checker := core.NewChecker(reg, nil)
		rep, err := checker.CheckCase(trail, "OF-1")
		if err != nil || !rep.Compliant {
			return fmt.Errorf("warmup: %v %v", rep, err)
		}
		d, err := bench(func() error {
			_, err := checker.CheckCase(trail, "OF-1")
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-10d %-13d %-12v\n", branches, rep.PeakConfigurations, d)
	}
	return nil
}

func expP7() error {
	_, err := bpmn.NewBuilder("gateCycle").Pool("P").
		Start("S", "P").XOR("G1", "P").XOR("G2", "P").Task("T", "P", "").End("E", "P").
		Seq("S", "G1").Seq("G1", "G2").Seq("G2", "G1").Seq("G2", "T", "E").
		Build()
	fmt.Printf("gateway-only cycle rejected at diagram level: %v\n", err != nil)
	if err != nil {
		fmt.Printf("  %v\n", err)
	}

	// And the semantic guard: a silent-diverging COWS service.
	s := cows.MustParse(`sys.tick!<> | *sys.tick?<>.sys.tick!<>`)
	y := lts.NewSystem(func(l cows.Label) bool { return false })
	_, werr := y.WeakNext(s)
	fmt.Printf("silent divergence rejected by WeakNext guard: %v\n", werr != nil)
	if werr != nil {
		fmt.Printf("  %v\n", werr)
	}
	return nil
}

func expP8() error {
	sc, err := hospital.NewScenario()
	if err != nil {
		return err
	}
	checker := sc.Framework.Checker
	base := time.Date(2026, 2, 1, 8, 0, 0, 0, time.UTC)
	mk := func(seq int, user, role, task, caseID string) audit.Entry {
		return audit.Entry{
			User: user, Role: role, Action: "read",
			Object: policy.MustParseObject("[Jane]EPR/Clinical"),
			Task:   task, Case: caseID,
			Time: base.Add(time.Duration(seq) * time.Minute), Status: audit.Success,
		}
	}
	solo := audit.NewTrail([]audit.Entry{mk(0, "Bob", "Cardiologist", "T01", "HT-99")})
	rep, err := checker.CheckCase(solo, "HT-99")
	if err != nil {
		return err
	}
	fmt.Printf("solo mimicry (cardiologist performs GP task): detected=%v (%s)\n", !rep.Compliant, rep.Violation.Reason)

	coll := audit.NewTrail([]audit.Entry{
		mk(0, "John", "GP", "T01", "HT-98"),
		mk(1, "John", "GP", "T05", "HT-98"),
		mk(2, "Bob", "Cardiologist", "T06", "HT-98"),
	})
	rep, err = checker.CheckCase(coll, "HT-98")
	if err != nil {
		return err
	}
	fmt.Printf("colluding mimicry prefix (GP + cardiologist): accepted=%v — simulation needs every role\n", rep.Compliant)

	extended := append(sc.Trail.ByCase("HT-1").Entries(), mk(100000, "Bob", "Cardiologist", "T06", "HT-1"))
	rep, err = checker.CheckCase(audit.NewTrail(extended), "HT-1")
	if err != nil {
		return err
	}
	fmt.Printf("reusing completed case HT-1 as cover: detected=%v at entry %d\n", !rep.Compliant, rep.StepsReplayed)
	return nil
}
