package core_test

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/hospital"
	"repro/internal/workload"
)

// BenchmarkMonitorLoadState restores a monitor checkpoint of about a
// thousand mid-flight treatment cases, each cut at a different point of
// a seeded hospital day, into a fresh compiled checker per iteration:
// the monitor half of an auditd recovery boot. Each iteration compiles
// the automaton untimed first, as auditd's boot does before it restores
// a checkpoint, so the timed part is the state table's parses,
// interning and weak-next derivations.
func BenchmarkMonitorLoadState(b *testing.B) {
	reg, roles := hospitalRegistry(b)
	trail, _, err := workload.HospitalDay(reg, hospital.TreatmentCode, 50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	byCase := map[string][]audit.Entry{}
	var order []string
	for _, e := range trail.Entries() {
		if byCase[e.Case] == nil {
			order = append(order, e.Case)
		}
		byCase[e.Case] = append(byCase[e.Case], e)
	}
	checker := func() *core.Checker {
		c := core.NewChecker(reg, roles)
		c.UseCompiled = true
		return c
	}
	writer := checker()
	purpose := reg.ForCase(hospital.TreatmentCode + "-1").Name
	if _, err := writer.EnsureCompiled(purpose); err != nil {
		b.Fatal(err)
	}
	m := core.NewMonitor(writer)
	for i, id := range order {
		entries := byCase[id]
		for _, e := range entries[:1+(i*7919)%len(entries)] {
			if _, err := m.Feed(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	st := m.State()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := checker()
		if _, err := c.EnsureCompiled(purpose); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := core.NewMonitor(c).LoadState(st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(st.Cases)), "cases")
	b.ReportMetric(float64(len(st.States)), "terms")
}
