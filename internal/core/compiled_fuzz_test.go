package core_test

// FuzzCompiledReplay is the differential fuzz target gating the
// compiled fast path: arbitrary bytes decode into a trail over the
// clinical-trial alphabet (plus off-alphabet tasks and roles) and the
// table-driven engine must return byte-identical reports to the
// interpreter, including violation messages and configuration counts.
// The trail is also streamed through a monitor on each engine, which
// must end each case as the batch report does.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/policy"
)

var fuzzTasks = []string{
	"T91", "T92", "T93", "T94", "T95", // clinical trial
	"T01", "T02", "T05", "T11", "T15", // treatment (wrong purpose)
	"Zed", "", // off-alphabet
}

var fuzzRoles = []string{
	"Researcher", "Physician", "Cardiologist", "Nurse",
	"Janitor", "", // off-alphabet
}

// decodeFuzzTrail reads two bytes per entry: the first selects the
// task, the second the role and whether the entry is a failure.
func decodeFuzzTrail(data []byte) *audit.Trail {
	t0 := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	var entries []audit.Entry
	for i := 0; i+1 < len(data) && len(entries) < 64; i += 2 {
		e := audit.Entry{
			User: "u", Role: fuzzRoles[int(data[i+1]>>2)%len(fuzzRoles)],
			Action: "read",
			Object: policy.MustParseObject("[K]EPR"),
			Task:   fuzzTasks[int(data[i])%len(fuzzTasks)],
			Case:   "CT-F",
			Time:   t0.Add(time.Duration(len(entries)) * time.Minute),
			Status: audit.Success,
		}
		if data[i+1]&3 == 3 {
			e.Status = audit.Failure
		}
		entries = append(entries, e)
	}
	return audit.NewTrail(entries)
}

func FuzzCompiledReplay(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 4, 0})       // the trial's tasks, as a Researcher (wrong role)
	f.Add([]byte{0, 4, 1, 4, 2, 4, 3, 4, 4, 4})       // the trial's tasks, as a Physician: complete
	f.Add([]byte{0, 0, 2, 0})                         // out of order
	f.Add([]byte{0, 16, 1, 16})                       // Janitor
	f.Add([]byte{5, 0, 6, 0})                         // treatment tasks under trial purpose
	f.Add([]byte{10, 0})                              // off-alphabet task
	f.Add([]byte{0, 3, 0, 0})                         // failure marker
	f.Add([]byte{})                                   // empty trail
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 0}) // duplicates

	reg, roles := hospitalRegistry(f)
	interp := core.NewChecker(reg, roles)
	compiled := interp.Clone()
	compiled.UseCompiled = true

	f.Fuzz(func(t *testing.T, data []byte) {
		trail := decodeFuzzTrail(data)
		ri, errI := interp.CheckTrail(trail)
		rc, errC := compiled.CheckTrail(trail)
		if (errI == nil) != (errC == nil) {
			t.Fatalf("error divergence: interpreted %v, compiled %v", errI, errC)
		}
		if errI != nil {
			return
		}
		if len(ri) != len(rc) {
			t.Fatalf("report count divergence: %d vs %d", len(ri), len(rc))
		}
		streamMatchesBatch(t, interp, trail, ri)
		streamMatchesBatch(t, compiled, trail, rc)
		for i := range ri {
			if rc[i].Engine != core.EngineCompiled {
				t.Fatalf("case %s ran on engine %q, want compiled", rc[i].Case, rc[i].Engine)
			}
			a, b := *ri[i], *rc[i]
			a.Engine, a.EngineFallback = "", ""
			b.Engine, b.EngineFallback = "", ""
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("report divergence for trail %v:\ninterpreted: %+v\ncompiled:    %+v", data, a, b)
			}
		}
	})
}

// streamMatchesBatch feeds trail through a monitor over c and requires
// every case to end as its batch report says: the case's first non-OK
// verdict carries the report's violation, indeterminacy and
// explanation, and a compliant case's final status carries the report's
// completion and configuration count. A case of an unknown purpose is
// compared on kind, reason and nearest-miss class only: the report
// blames no entry, the monitor the first it is fed.
func streamMatchesBatch(t *testing.T, c *core.Checker, trail *audit.Trail, reps []*core.Report) {
	t.Helper()
	m := core.NewMonitor(c)
	first := map[string]*core.Verdict{}
	for _, e := range trail.Entries() {
		v, err := m.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		if !v.OK && first[e.Case] == nil {
			first[e.Case] = v
		}
	}
	sts, err := m.Status()
	if err != nil {
		t.Fatal(err)
	}
	status := map[string]core.CaseStatus{}
	for _, s := range sts {
		status[s.Case] = s
	}
	for _, rep := range reps {
		v, s := first[rep.Case], status[rep.Case]
		switch {
		case rep.Compliant:
			if v != nil || s.CanComplete != rep.CanComplete || s.Configurations != rep.FinalConfigurations {
				t.Fatalf("UseCompiled=%v, case %s: compliant report (complete %v, %d configurations), monitor verdict %+v status %+v",
					c.UseCompiled, rep.Case, rep.CanComplete, rep.FinalConfigurations, v, s)
			}
		case v == nil:
			t.Fatalf("UseCompiled=%v, case %s: report %s, but the monitor flagged no entry", c.UseCompiled, rep.Case, rep)
		case rep.Violation != nil && rep.Violation.Kind == core.ViolationUnknownPurpose:
			if v.Violation == nil || v.Violation.Kind != rep.Violation.Kind || v.Violation.Reason != rep.Violation.Reason ||
				v.Explanation.NearestMissClass != rep.Explanation.NearestMissClass {
				t.Fatalf("UseCompiled=%v, case %s: unknown purpose reported as %+v, monitor flagged %+v", c.UseCompiled, rep.Case, rep.Violation, v.Violation)
			}
		case !reflect.DeepEqual(v.Violation, rep.Violation) || !reflect.DeepEqual(v.Indeterminate, rep.Indeterminate) ||
			!reflect.DeepEqual(v.Explanation, rep.Explanation):
			t.Fatalf("UseCompiled=%v, case %s: report\n %s\n%+v\nmonitor's first non-OK verdict\n %+v\n%+v",
				c.UseCompiled, rep.Case, rep, rep.Explanation, v, v.Explanation)
		}
	}
}
