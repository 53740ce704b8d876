package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/hospital"
	"repro/internal/policy"
	"repro/internal/workload"
)

// injectEvery gives one case in this many an injected violation.
const injectEvery = 20

// streamInput is an entry stream a server workload posts, with the
// per-outcome case counts an offline Checker.CheckTrail gives for it.
// newHospitalInput builds the server workloads' stream: consecutive
// hospital days (workload.HospitalDay), each shifted by 24h and given
// day-unique case ids, with one case in injectEvery perturbed by a
// workload.Injector violation, kinds taken in turn.
type streamInput struct {
	reg      *core.Registry
	roles    *policy.RoleHierarchy
	entries  []audit.Entry
	days     int
	cases    int
	injected map[string]bool
	// expected counts cases per outcome from an offline
	// Checker.CheckTrail over the same entries.
	expected map[string]int
}

func newHospitalInput(seed int64, dayOpens, minEntries int) (*streamInput, error) {
	sc, err := hospital.NewScenario()
	if err != nil {
		return nil, err
	}
	in := &streamInput{reg: sc.Registry, injected: map[string]bool{}, expected: map[string]int{}}
	if sc.Policy != nil {
		in.roles = sc.Policy.Roles
	}
	inj := workload.NewInjector(seed)
	checker := core.NewChecker(in.reg, in.roles)
	kind := 0
	for len(in.entries) < minEntries {
		day := in.days
		in.days++
		trail, _, err := workload.HospitalDay(in.reg, hospital.TreatmentCode, dayOpens, seed*1_000_003+int64(day))
		if err != nil {
			return nil, err
		}
		shift := time.Duration(day) * 24 * time.Hour
		var dayEntries []audit.Entry
		for _, group := range groupByCase(trail.View()) {
			id := fmt.Sprintf("%s-%d.%s", hospital.TreatmentCode, day+1, group[0].Case[len(hospital.TreatmentCode)+1:])
			for i := range group {
				group[i].Case = id
				group[i].Time = group[i].Time.Add(shift)
			}
			if (in.cases+1)%injectEvery == 0 {
				group, kind = inject(inj, group, kind, in.injected)
			}
			in.cases++
			dayEntries = append(dayEntries, group...)
		}
		dayTrail := audit.NewTrail(dayEntries)
		reps, err := checker.CheckTrail(dayTrail)
		if err != nil {
			return nil, fmt.Errorf("offline check of day %d: %w", day+1, err)
		}
		for _, r := range reps {
			in.expected[r.Outcome.String()]++
		}
		in.entries = append(in.entries, dayTrail.View()...)
	}
	return in, nil
}

// groupByCase splits entries into per-case slices (copies) in order of
// first appearance.
func groupByCase(entries []audit.Entry) [][]audit.Entry {
	idx := map[string]int{}
	var out [][]audit.Entry
	for _, e := range entries {
		i, ok := idx[e.Case]
		if !ok {
			i = len(out)
			idx[e.Case] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], e)
	}
	return out
}

// inject perturbs one case with the next applicable violation kind,
// starting at kind, and records the case ids the result carries. It
// returns the perturbed entries and the kind to start from next time.
func inject(inj *workload.Injector, group []audit.Entry, kind int, injected map[string]bool) ([]audit.Entry, int) {
	n := int(workload.NumViolationKinds)
	for i := 0; i < n; i++ {
		k := workload.ViolationKind((kind + i) % n)
		if mut, ok := inj.Inject(k, group); ok {
			for _, e := range mut {
				injected[e.Case] = true
			}
			return mut, (kind + i + 1) % n
		}
	}
	return group, kind
}

// chunks renders entries as NDJSON request bodies of up to size lines.
func chunks(entries []audit.Entry, size int) ([][]byte, [][]audit.Entry, error) {
	var bodies [][]byte
	var parts [][]audit.Entry
	for lo := 0; lo < len(entries); lo += size {
		hi := min(lo+size, len(entries))
		var buf bytes.Buffer
		for _, e := range entries[lo:hi] {
			if err := audit.AppendJSONL(&buf, e); err != nil {
				return nil, nil, err
			}
		}
		bodies = append(bodies, buf.Bytes())
		parts = append(parts, entries[lo:hi])
	}
	return bodies, parts, nil
}

// Wide-audit process: workload.Generate with the default block weights
// (AND, OR, XOR and loop blocks) and a fixed process seed, so every run
// audits the same process and only the trail depends on -seed.
const (
	wideProcName = "Wide"
	wideProcSeed = 7
	wideCode     = "WA"
)

// wideInput is the generated offline-audit input, written to files the
// way a purposectl user would hold them.
type wideInput struct {
	procPath  string
	trailPath string
	entries   int
	cases     int
	injected  []string
	tasks     int
}

func newWideInput(dir string, seed int64, tasks, cases int) (*wideInput, error) {
	proc, err := workload.Generate(workload.DefaultProcParams(wideProcName, wideProcSeed, tasks))
	if err != nil {
		return nil, err
	}
	reg := core.NewRegistry()
	if _, err := reg.Register(proc, wideCode); err != nil {
		return nil, err
	}
	trail, err := workload.NewSimulator(reg, workload.DefaultTrailParams(seed, cases, wideCode)).Generate()
	if err != nil {
		return nil, err
	}
	inj := workload.NewInjector(seed)
	injected := map[string]bool{}
	var all []audit.Entry
	kind := 0
	for i, group := range groupByCase(trail.View()) {
		if (i+1)%injectEvery == 0 {
			group, kind = inject(inj, group, kind, injected)
		}
		all = append(all, group...)
	}
	full := audit.NewTrail(all)
	in := &wideInput{
		procPath:  filepath.Join(dir, "wide-process.json"),
		trailPath: filepath.Join(dir, "wide-trail.jsonl"),
		entries:   full.Len(),
		cases:     len(full.Cases()),
		tasks:     len(proc.Tasks()),
	}
	for c := range injected {
		in.injected = append(in.injected, c)
	}
	sort.Strings(in.injected)
	var pb bytes.Buffer
	if err := proc.EncodeJSON(&pb); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.procPath, pb.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var tb bytes.Buffer
	if err := audit.WriteJSONL(&tb, full); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.trailPath, tb.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return in, nil
}
