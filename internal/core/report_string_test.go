package core

// Rendering and introspection coverage: the String methods auditors
// read in CLI output, the registry's fixture helper, and the compiled
// fast path's symbol plumbing. These are the blind spots the coverage
// ratchet flagged — small surfaces, but they format evidence, and a
// wrong rendering misreports a verdict.

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/automaton"
)

func TestOutcomeString(t *testing.T) {
	for want, o := range map[string]Outcome{
		"compliant":     OutcomeCompliant,
		"violation":     OutcomeViolation,
		"indeterminate": OutcomeIndeterminate,
		"Outcome(99)":   Outcome(99),
	} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestIndeterminacyCauseStringAndJSON(t *testing.T) {
	for want, c := range map[string]IndeterminacyCause{
		"budget-exceeded":        CauseBudgetExceeded,
		"configuration-cap":      CauseConfigurationCap,
		"recovered-panic":        CauseRecoveredPanic,
		"IndeterminacyCause(-1)": IndeterminacyCause(-1),
	} {
		if got := c.String(); got != want {
			t.Errorf("cause %d: String() = %q, want %q", int(c), got, want)
		}
	}
	data, err := json.Marshal(CauseConfigurationCap)
	if err != nil {
		t.Fatal(err)
	}
	var back IndeterminacyCause
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != CauseConfigurationCap {
		t.Errorf("cause round-trip: got %v", back)
	}
	if err := back.UnmarshalJSON([]byte(`"no-such-cause"`)); err == nil {
		t.Error("unknown cause name accepted")
	}
}

func TestViolationKindString(t *testing.T) {
	for want, k := range map[string]ViolationKind{
		"invalid-execution": ViolationInvalidExecution,
		"unknown-purpose":   ViolationUnknownPurpose,
		"expired":           ViolationExpired,
		"ViolationKind(42)": ViolationKind(42),
	} {
		if got := k.String(); got != want {
			t.Errorf("kind %d: String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestIndeterminacyString(t *testing.T) {
	with := Indeterminacy{Cause: CauseBudgetExceeded, EntryIndex: 3, Reason: "state budget"}
	if got := with.String(); !strings.Contains(got, "budget-exceeded") || !strings.Contains(got, "entry 3") {
		t.Errorf("with index: %q", got)
	}
	without := Indeterminacy{Cause: CauseRecoveredPanic, EntryIndex: -1, Reason: "setup"}
	if got := without.String(); strings.Contains(got, "entry") || !strings.Contains(got, "recovered-panic") {
		t.Errorf("without index: %q", got)
	}
}

func TestViolationString(t *testing.T) {
	e := entryAt(0, "Bob", "Cardiologist", "T06", "HT-11")
	v := &Violation{
		Kind: ViolationInvalidExecution, EntryIndex: 2, Entry: &e,
		Reason:   "task not enabled",
		Expected: []string{"T02"}, ActiveTasks: []string{"T01"},
	}
	got := v.String()
	for _, part := range []string{"invalid-execution", "task not enabled", "entry 2", "T06", "expected one of [T02]", "active [T01]"} {
		if !strings.Contains(got, part) {
			t.Errorf("violation string %q misses %q", got, part)
		}
	}
	bare := &Violation{Kind: ViolationUnknownPurpose, Reason: "no purpose for code XX"}
	if got := bare.String(); strings.Contains(got, "entry") || strings.Contains(got, "expected") {
		t.Errorf("bare violation leaks empty parts: %q", got)
	}
}

// TestReportStringForms walks real replays through the three rendered
// shapes rather than hand-assembling reports — the renderings must
// match what the checker actually produces.
func TestReportStringForms(t *testing.T) {
	c := newChecker(t, linearProc(t), "L", nil)

	compliant := check(t, c, trailOf("L-1", "P:T1", "P:T2", "P:T3"), "L-1")
	if got := compliant.String(); !strings.Contains(got, "COMPLIANT") || !strings.Contains(got, "complete") {
		t.Errorf("complete case: %q", got)
	}

	pending := check(t, c, trailOf("L-2", "P:T1"), "L-2")
	if got := pending.String(); !strings.Contains(got, "COMPLIANT") || !strings.Contains(got, "pending") {
		t.Errorf("pending case: %q", got)
	}

	violating := check(t, c, trailOf("L-3", "P:T2"), "L-3")
	if got := violating.String(); !strings.Contains(got, "INFRINGEMENT") {
		t.Errorf("violating case: %q", got)
	}

	// An OR split forks the configuration set, so a cap of 1 abandons
	// the analysis — the INDETERMINATE rendering.
	capped := newChecker(t, orProc(t), "M", nil)
	capped.MaxConfigurations = 1
	indet := check(t, capped, trailOf("M-1", "P:T1"), "M-1")
	if indet.Outcome != OutcomeIndeterminate {
		t.Fatalf("capped checker returned %v", indet.Outcome)
	}
	if got := indet.String(); !strings.Contains(got, "INDETERMINATE") {
		t.Errorf("indeterminate case: %q", got)
	}
}

func TestMustRegister(t *testing.T) {
	reg := NewRegistry()
	if p := reg.MustRegister(linearProc(t), "L"); p == nil {
		t.Fatal("MustRegister returned nil purpose")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate MustRegister did not panic")
		}
	}()
	reg.MustRegister(linearProc(t), "L")
}

// TestCheckerSystemWarm: the diagnostics accessor returns the same warm
// LTS the replay used — deriving it is idempotent per purpose.
func TestCheckerSystemWarm(t *testing.T) {
	c := newChecker(t, linearProc(t), "L", nil)
	check(t, c, trailOf("L-1", "P:T1"), "L-1")
	p := c.registry.ForCase("L-1")
	if p == nil {
		t.Fatal("no purpose for L-1")
	}
	sys := c.system(p)
	if sys == nil {
		t.Fatal("system returned nil LTS")
	}
	if again := c.system(p); again != sys {
		t.Error("system re-derived the LTS instead of reusing the runtime")
	}
}

// TestSymbolForEntryAndCacheStats drives the compiled engine's symbol
// classification directly and through a monitor, checking both the
// failure/success split and the cache counters' visibility.
func TestSymbolForEntryAndCacheStats(t *testing.T) {
	c := newChecker(t, fallibleProc(t), "F", nil)
	c.UseCompiled = true
	d, err := c.EnsureCompiled("Fallible")
	if err != nil {
		t.Fatalf("EnsureCompiled: %v", err)
	}

	symbolForEntry := func(d *automaton.DFA, e audit.Entry) (int32, bool) {
		return d.SymbolFor(symKey(&e))
	}
	ok := entryAt(0, "u", "P", "T1", "F-1")
	if sym, found := symbolForEntry(d, ok); !found || sym < 0 {
		t.Errorf("success entry: symbol %d found=%v", sym, found)
	}
	fail := failureAt(1, "u", "P", "T1", "F-1")
	if sym, found := symbolForEntry(d, fail); !found || sym < 0 {
		t.Errorf("failure entry: symbol %d found=%v", sym, found)
	}
	if _, found := symbolForEntry(d, entryAt(2, "u", "P", "NoSuchTask", "F-1")); found {
		t.Error("unknown task classified into the alphabet")
	}

	m := NewMonitor(c)
	if h, miss := m.SymbolCacheStats(); h != 0 || miss != 0 {
		t.Fatalf("fresh monitor stats %d/%d, want 0/0", h, miss)
	}
	for i, task := range []string{"T1", "T2", "T1", "T2"} {
		if _, err := m.Feed(entryAt(i, "u", "P", task, "F-1")); err != nil {
			t.Fatalf("feed %d: %v", i, err)
		}
	}
	hits, misses := m.SymbolCacheStats()
	if hits+misses == 0 {
		t.Error("compiled feed recorded no symbol lookups")
	}
	if misses == 0 {
		t.Error("first lookups cannot all be cache hits")
	}
}
