package scenario_test

import (
	"fmt"
	"testing"

	"repro/internal/bpmn"
	"repro/internal/scenario"
)

// fuzzBase builds a fresh copy of the fuzz seed fixture: a two-pool
// claims process with an XOR split and a fallible verification task, and
// a trail that walks the retry path. Every fuzz iteration mutates its
// own copy.
func fuzzBase() *scenario.Fixture {
	return &scenario.Fixture{
		Name: "fuzz-claims",
		Process: &bpmn.Spec{
			Name:  "FuzzClaims",
			Pools: []string{"Agent", "Adjuster"},
			Elements: []bpmn.ElemSpec{
				{ID: "S1", Kind: "start", Pool: "Agent"},
				{ID: "T01", Kind: "task", Pool: "Agent", Name: "Register claim"},
				{ID: "T02", Kind: "task", Pool: "Agent", Name: "Verify coverage", OnError: "T01"},
				{ID: "G1", Kind: "xor", Pool: "Agent"},
				{ID: "T03", Kind: "task", Pool: "Agent", Name: "Settle fast-track"},
				{ID: "E2", Kind: "messageEnd", Pool: "Agent"},
				{ID: "S2", Kind: "messageStart", Pool: "Adjuster"},
				{ID: "T04", Kind: "task", Pool: "Adjuster", Name: "Assess damage"},
				{ID: "T05", Kind: "task", Pool: "Adjuster", Name: "Approve settlement"},
				{ID: "E3", Kind: "end", Pool: "Adjuster"},
				{ID: "E1", Kind: "end", Pool: "Agent"},
			},
			Flows: []bpmn.FlowSpec{
				{From: "S1", To: "T01", Kind: "sequence"},
				{From: "T01", To: "T02", Kind: "sequence"},
				{From: "T02", To: "G1", Kind: "sequence"},
				{From: "G1", To: "T03", Kind: "sequence"},
				{From: "G1", To: "E2", Kind: "sequence"},
				{From: "T03", To: "E1", Kind: "sequence"},
				{From: "S2", To: "T04", Kind: "sequence"},
				{From: "T04", To: "T05", Kind: "sequence"},
				{From: "T05", To: "E3", Kind: "sequence"},
				{From: "E2", To: "S2", Kind: "message"},
			},
		},
		CaseCodes: []string{"FZ"},
		Policy:    []string{"role Agent", "role Adjuster", "role Senior : Adjuster"},
		// Mutations routinely produce purposes the compiler refuses
		// (that is fine — the property under test is engine agreement,
		// and a declared fallback still replays identically).
		AllowFallback: true,
		Trails: []scenario.TrailSpec{{
			Name: "retry-then-refer",
			Case: "FZ-1",
			Entries: []scenario.EntrySpec{
				{Time: "202608010900", User: "ann", Role: "Agent", Task: "T01"},
				{Time: "202608010910", User: "ann", Role: "Agent", Task: "T02"},
				{Time: "202608010920", User: "ann", Role: "Agent", Task: "T02", Status: "failure"},
				{Time: "202608010930", User: "ann", Role: "Agent", Task: "T01"},
				{Time: "202608010940", User: "ann", Role: "Agent", Task: "T02"},
				{Time: "202608011000", User: "adi", Role: "Adjuster", Task: "T04"},
				{Time: "202608011010", User: "adi", Role: "Adjuster", Task: "T05"},
			},
			Expect: scenario.Expectation{Verdict: "compliant"},
		}},
	}
}

// fuzz mutation vocabularies. Indexing is data-byte driven, so the same
// corpus entry always produces the same mutant.
var (
	fuzzTasks  = []string{"T01", "T02", "T03", "T04", "T05", "T99", "B07", "Err"}
	fuzzRoles  = []string{"Agent", "Adjuster", "Senior", "Intern", ""}
	fuzzCases  = []string{"FZ-1", "FZ-2", "ZZ-9", ""}
	fuzzStatus = []string{"", "success", "failure"}
)

// FuzzScenario co-mutates the seed fixture's process and trail from the
// fuzz data and asserts the engines still agree: whatever verdict a
// mutant produces, interpreter and compiled replay must render
// byte-identical reports. Mutants whose process no longer
// validates (or whose trail no longer parses) are skipped — authoring
// errors are the parser's department, tested elsewhere.
func FuzzScenario(f *testing.F) {
	f.Add([]byte{})                       // the unmutated base
	f.Add([]byte{0x00, 0x01})             // flip a status
	f.Add([]byte{0x10, 0x05, 0x21, 0x02}) // retarget a task, then a role
	f.Add([]byte{0x30, 0x00, 0x42, 0x00}) // drop an entry, swap a pair
	f.Add([]byte{0x50, 0x03, 0x61, 0x01}) // redirect a flow, toggle OnError
	f.Add([]byte{0x70, 0x02, 0x13, 0x06, 0x25, 0x01, 0x55, 0x04})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			t.Skip("bounded mutation budget")
		}
		fx := fuzzBase()
		tr := &fx.Trails[0]
		spec := fx.Process

		// Each byte pair is one mutation: the high nibble of the first
		// byte picks the operation, the low nibble and the second byte
		// pick the operands.
		for i := 0; i+1 < len(data); i += 2 {
			op, sel := data[i], int(data[i+1])
			pick := func(n int) int {
				if n == 0 {
					return 0
				}
				return (sel + int(op&0x0f)) % n
			}
			switch op >> 4 {
			case 0x0: // flip an entry's status
				e := &tr.Entries[pick(len(tr.Entries))]
				e.Status = fuzzStatus[pick(len(fuzzStatus))]
			case 0x1: // retarget an entry's task
				tr.Entries[pick(len(tr.Entries))].Task = fuzzTasks[sel%len(fuzzTasks)]
			case 0x2: // rewrite an entry's role
				tr.Entries[pick(len(tr.Entries))].Role = fuzzRoles[sel%len(fuzzRoles)]
			case 0x3: // delete an entry
				if len(tr.Entries) > 1 {
					j := pick(len(tr.Entries))
					tr.Entries = append(tr.Entries[:j], tr.Entries[j+1:]...)
				}
			case 0x4: // swap two adjacent entries (keeps timestamps: reorders semantics)
				if n := len(tr.Entries); n > 1 {
					j := pick(n - 1)
					tr.Entries[j].Task, tr.Entries[j+1].Task = tr.Entries[j+1].Task, tr.Entries[j].Task
				}
			case 0x5: // redirect a sequence flow's target
				fl := &spec.Flows[pick(len(spec.Flows))]
				if fl.Kind == "sequence" {
					fl.To = fuzzTasks[sel%len(fuzzTasks)]
				}
			case 0x6: // toggle a task's error handler
				el := &spec.Elements[pick(len(spec.Elements))]
				if el.Kind == "task" {
					if el.OnError == "" {
						el.OnError = fuzzTasks[sel%len(fuzzTasks)]
					} else {
						el.OnError = ""
					}
				}
			case 0x7: // duplicate an entry at the tail
				e := tr.Entries[pick(len(tr.Entries))]
				e.Time = fmt.Sprintf("2026080210%02d", len(tr.Entries)%60)
				tr.Entries = append(tr.Entries, e)
			case 0x8: // reassign an entry's case
				tr.Entries[pick(len(tr.Entries))].Case = fuzzCases[sel%len(fuzzCases)]
			case 0x9: // truncate the trail
				if n := len(tr.Entries); n > 1 {
					tr.Entries = tr.Entries[:1+pick(n-1)]
				}
			}
		}

		res, err := scenario.Run(fx, scenario.Options{SkipExpectations: true})
		if err != nil {
			// The mutant broke process validation or entry parsing;
			// nothing to compare.
			t.Skip(err)
		}
		if !res.OK() {
			t.Fatalf("engines disagree on mutant %x:\n%s", data, res.Failures)
		}
	})
}
