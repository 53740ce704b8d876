package scenario

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/policy"
)

// Options tunes a corpus run.
type Options struct {
	// CoverMin, when positive, is the minimum DFA state-coverage
	// percentage each fixture's trails must reach (over the dense
	// compiled automaton). Fixtures whose
	// purpose legitimately fell back to the interpreter (AllowFallback)
	// are exempt: there is no table to cover.
	CoverMin float64
	// SkipExpectations replays and engine-compares without checking the
	// trails' declared verdicts. The scenario fuzzer uses it: a mutated
	// trail has no known-correct verdict, but the engines must still
	// agree on whatever it is.
	SkipExpectations bool
}

// Result is the outcome of running one fixture.
type Result struct {
	Fixture *Fixture
	Trails  []TrailResult
	// Coverage is the per-automaton coverage accumulated across every
	// trail, from the dense compiled checker.
	Coverage []automaton.CoverageReport
	// Failures collects every assertion that did not hold; empty means
	// the fixture passed.
	Failures []string
}

// TrailResult is one trail's replay outcome.
type TrailResult struct {
	Name string
	Case string
	// Report is the interpreter's report (the reference the engines
	// were compared against).
	Report *core.Report
	// Render is the canonical byte-compared rendering.
	Render string
}

// OK reports whether every assertion in the fixture held.
func (r *Result) OK() bool { return len(r.Failures) == 0 }

// engines are the two replay configurations every trail runs through.
var engines = [...]struct {
	name     string
	compiled bool
}{
	{"interpreted", false},
	{"compiled", true},
}

// Run replays every trail of the fixture through the interpreter and
// the dense compiled automaton, byte-compares the two reports, and
// checks the trail's declared expectations against
// the result. Setup problems (unparsable process, bad policy, bad
// timestamps) return an error; assertion failures land in
// Result.Failures so a corpus runner can keep going and report all of
// them.
func Run(fx *Fixture, opts Options) (*Result, error) {
	proc, err := fx.process()
	if err != nil {
		return nil, fmt.Errorf("fixture %q: process: %w", fx.Name, err)
	}
	pol, err := fx.policyOf()
	if err != nil {
		return nil, fmt.Errorf("fixture %q: policy: %w", fx.Name, err)
	}
	reg := core.NewRegistry()
	if _, err := reg.Register(proc, fx.CaseCodes...); err != nil {
		return nil, fmt.Errorf("fixture %q: register: %w", fx.Name, err)
	}

	var checkers [len(engines)]*core.Checker
	for i, eng := range engines {
		c := core.NewChecker(reg, rolesOf(pol))
		fx.applyChecker(c)
		c.UseCompiled = eng.compiled
		checkers[i] = c
	}
	cov := automaton.NewCoverageSet()
	checkers[1].Coverage = cov

	res := &Result{Fixture: fx}
	for ti := range fx.Trails {
		tr := &fx.Trails[ti]
		trail, err := tr.trail()
		if err != nil {
			return nil, fmt.Errorf("fixture %q: %w", fx.Name, err)
		}
		var reports [len(engines)]*core.Report
		var renders [len(engines)]string
		for i, c := range checkers {
			rep, err := c.CheckCase(trail, tr.Case)
			if err != nil {
				return nil, fmt.Errorf("fixture %q trail %s: %s engine: %w", fx.Name, tr.Name, engines[i].name, err)
			}
			reports[i], renders[i] = rep, renderReport(rep)
		}
		tres := TrailResult{Name: tr.Name, Case: tr.Case, Report: reports[0], Render: renders[0]}
		res.Trails = append(res.Trails, tres)

		fail := func(format string, args ...any) {
			res.Failures = append(res.Failures,
				fmt.Sprintf("%s/%s: ", fx.Name, tr.Name)+fmt.Sprintf(format, args...))
		}
		for i := 1; i < len(renders); i++ {
			if renders[i] != renders[0] {
				fail("%s report differs from interpreted:\n%s", engines[i].name, diffRenders(renders[0], renders[i]))
			}
			if fb := reports[i].EngineFallback; fb != "" && !fx.AllowFallback {
				fail("%s engine fell back to the interpreter (%s); set allow_fallback if intended", engines[i].name, fb)
			}
		}
		if !opts.SkipExpectations {
			checkExpect(tr, reports[0], fail)
		}
	}

	res.Coverage = cov.Reports()
	if opts.CoverMin > 0 {
		for _, cr := range res.Coverage {
			if pct := cr.StatePct(); pct < opts.CoverMin {
				res.Failures = append(res.Failures, fmt.Sprintf(
					"%s: DFA state coverage %.1f%% below floor %.1f%% (%s) — add trails exercising the uncovered branches",
					fx.Name, pct, opts.CoverMin, cr))
			}
		}
		if len(res.Coverage) == 0 && !fx.AllowFallback {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"%s: no DFA coverage was collected (compiled engine never ran)", fx.Name))
		}
	}
	return res, nil
}

// rolesOf unwraps the policy's role hierarchy; a nil policy means
// exact role matching.
func rolesOf(pol *policy.Policy) *policy.RoleHierarchy {
	if pol == nil {
		return nil
	}
	return pol.Roles
}

// checkExpect asserts one trail's expectations against the reference
// report.
func checkExpect(tr *TrailSpec, rep *core.Report, fail func(string, ...any)) {
	want := verdicts[tr.Expect.Verdict]
	if rep.Outcome != want {
		got := rep.Outcome.String()
		if x := rep.Explanation; x != nil {
			got += " (" + x.Reason + ")"
		}
		fail("verdict = %s, want %s", got, tr.Expect.Verdict)
		return
	}
	if p := tr.Expect.Pending; p != nil && rep.Pending != *p {
		fail("pending = %v, want %v", rep.Pending, *p)
	}
	d := tr.Expect.Deviation
	if d == nil {
		return
	}
	x := rep.Explanation
	if x == nil {
		fail("expected a deviation but the report has no explanation")
		return
	}
	if x.EntryIndex != d.Entry {
		fail("deviation entry = %d (%s), want %d", x.EntryIndex, x.Task, d.Entry)
	}
	if d.Task != "" && x.Task != d.Task {
		fail("deviation task = %q, want %q", x.Task, d.Task)
	}
	if d.Class != "" && x.NearestMissClass != d.Class {
		fail("deviation class = %q, want %q (%s)", x.NearestMissClass, d.Class, x.NearestMiss)
	}
}

// applyChecker applies the fixture's knobs to a fresh checker.
func (fx *Fixture) applyChecker(c *core.Checker) {
	cs := fx.Checker
	if cs == nil {
		return
	}
	if cs.StrictFailureTask != nil {
		c.StrictFailureTask = *cs.StrictFailureTask
	}
	c.DisableAbsorption = cs.DisableAbsorption
	c.MaxConfigurations = cs.MaxConfigurations
	c.MaxSilentDepth = cs.MaxSilentDepth
}

// renderReport is the canonical engine-neutral rendering the runner
// byte-compares. It covers every verdict-bearing report field — the
// engine marker and fallback cause are the only exclusions, since they
// are *supposed* to differ across engines.
func renderReport(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "case: %s\npurpose: %s\noutcome: %s\ncompliant: %v\npending: %v\ncan_complete: %v\n",
		rep.Case, rep.Purpose, rep.Outcome, rep.Compliant, rep.Pending, rep.CanComplete)
	fmt.Fprintf(&b, "entries: %d\nsteps_replayed: %d\npeak_configurations: %d\nfinal_configurations: %d\n",
		rep.Entries, rep.StepsReplayed, rep.PeakConfigurations, rep.FinalConfigurations)
	if rep.Violation != nil {
		fmt.Fprintf(&b, "violation: %s\n", rep.Violation)
	}
	if rep.Indeterminate != nil {
		fmt.Fprintf(&b, "indeterminate: %s\n", rep.Indeterminate)
	}
	if rep.Explanation != nil {
		// JSON gives the explanation a stable field-by-field encoding;
		// any drift (a class set by one engine only, a different
		// expected set) shows up as a byte diff.
		j, err := json.Marshal(rep.Explanation)
		if err != nil {
			j = []byte(fmt.Sprintf("%+v", rep.Explanation))
		}
		fmt.Fprintf(&b, "explanation: %s\n", j)
	}
	return b.String()
}

// diffRenders points at the first differing line of two renders, so an
// engine-divergence failure names the field instead of dumping both
// reports.
func diffRenders(ref, got string) string {
	rl, gl := strings.Split(ref, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(rl) || i < len(gl); i++ {
		var r, g string
		if i < len(rl) {
			r = rl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if r != g {
			return fmt.Sprintf("  interpreted: %s\n  got:         %s", r, g)
		}
	}
	return "  (renders equal?)"
}
