package core

import (
	"fmt"

	"repro/internal/audit"
)

// Partial-trail checking — the first future-work item of Section 7:
// "Process specifications may contain human activities that cannot be
// logged by the IT system (e.g., a physician discussing patient data
// over the phone). These silent activities make it not possible to
// determine if an audit trail corresponds to a valid execution."
//
// CheckCaseWithSkips extends Algorithm 1 with a *skip budget*: when an
// entry cannot be replayed from any configuration, the checker may
// hypothesize that up to budget observable task executions happened but
// were not logged, advancing configurations along unmatched weak-next
// labels before retrying the entry. A case that replays with k > 0
// skips is reported compliant-with-gaps: the report carries the number
// of hypothesized silent executions, which the severity layer treats as
// suspicion weight rather than a hard infringement.

// SkipReport extends a Report with the gap analysis.
type SkipReport struct {
	Report
	// SkipsUsed is the minimum number of unlogged task executions that
	// had to be hypothesized (0 = plain Algorithm 1 acceptance).
	SkipsUsed int
	// SkippedLabels lists one minimal hypothesized execution sequence
	// (endpoints), for the auditor to confirm with the humans involved.
	SkippedLabels []string
}

// skipConfig pairs a configuration with its skip accounting.
type skipConfig struct {
	conf    *Configuration
	skips   int
	skipped []string
}

// CheckCaseWithSkips replays a case allowing up to budget hypothesized
// unlogged task executions. budget = 0 degenerates to CheckCase.
//
// The search is breadth-preserving: all configurations at all skip
// counts ≤ budget are tracked together, and the reported SkipsUsed is
// the minimum over surviving configurations, so the verdict is the most
// charitable explanation within budget.
func (c *Checker) CheckCaseWithSkips(trail *audit.Trail, caseID string, budget int) (*SkipReport, error) {
	rep, err := c.checkCaseWithSkips(trail, caseID, budget)
	if err != nil {
		if ind := indeterminacyFor(err); ind != nil {
			name := ""
			if pur := c.registry.ForCase(caseID); pur != nil {
				name = pur.Name
			}
			return &SkipReport{Report: *indeterminateReport(caseID, name, trail.ByCase(caseID).Len(), 0, ind)}, nil
		}
		return nil, err
	}
	return rep, nil
}

func (c *Checker) checkCaseWithSkips(trail *audit.Trail, caseID string, budget int) (*SkipReport, error) {
	pur := c.registry.ForCase(caseID)
	if pur == nil {
		rep, err := c.CheckCase(trail, caseID)
		if err != nil {
			return nil, err
		}
		return &SkipReport{Report: *rep}, nil
	}
	entries := trail.ByCase(caseID).View()
	rt := c.runtime(pur)
	maxConfigs := c.effectiveMaxConfigurations()
	initial, err := c.initialConfiguration(rt, pur)
	if err != nil {
		return nil, err
	}
	live := []skipConfig{{conf: initial}}
	rep := &SkipReport{Report: Report{Case: caseID, Purpose: pur.Name, Entries: len(entries)}}

	for i := range entries {
		e := &entries[i]
		var next []skipConfig
		seen := map[uint64]int{} // config key -> best (lowest) skip count index+1
		add := func(sc skipConfig) error {
			k := sc.conf.memoKey()
			if idx, ok := seen[k]; ok {
				if next[idx-1].skips <= sc.skips {
					return nil
				}
				next[idx-1] = sc
				return nil
			}
			if len(next) >= maxConfigs {
				return fmt.Errorf("%w: skip-search configuration set exceeds %d at entry %d of case %s", errConfigCap, maxConfigs, i, caseID)
			}
			next = append(next, sc)
			seen[k] = len(next)
			return nil
		}

		// Expand each live configuration by 0..(budget-skips) skips,
		// then try to accept the entry.
		frontier := live
		for hop := 0; ; hop++ {
			var after []skipConfig
			for _, sc := range frontier {
				// Accept directly (absorb or fire).
				if e.Status == audit.Success && c.isActive(sc.conf, e) {
					if err := add(sc); err != nil {
						return nil, err
					}
				}
				for j := range sc.conf.next {
					s := &sc.conf.next[j]
					if !c.matchesEntry(s, e) {
						continue
					}
					nc, err := c.successor(rt, pur, s)
					if err != nil {
						return nil, err
					}
					if err := add(skipConfig{conf: nc, skips: sc.skips, skipped: sc.skipped}); err != nil {
						return nil, err
					}
				}
				// Hypothesize one unlogged execution (any successor).
				if sc.skips < budget {
					for j := range sc.conf.next {
						s := &sc.conf.next[j]
						nc, err := c.successor(rt, pur, s)
						if err != nil {
							return nil, err
						}
						after = append(after, skipConfig{
							conf:    nc,
							skips:   sc.skips + 1,
							skipped: append(append([]string(nil), sc.skipped...), s.label.Endpoint()),
						})
					}
				}
			}
			if len(after) == 0 || hop >= budget {
				break
			}
			if len(after) > maxConfigs {
				after = after[:maxConfigs]
			}
			frontier = after
		}

		if len(next) == 0 {
			rep.Compliant = false
			rep.Outcome = OutcomeViolation
			confs := make([]*Configuration, len(live))
			for j, sc := range live {
				confs[j] = sc.conf
			}
			run := caseRun{pur: pur, rt: rt, configs: confs}
			rep.Violation, rep.Explanation = run.describe(c, caseID, i, *e)
			rep.StepsReplayed = i
			return rep, nil
		}
		if len(next) > rep.PeakConfigurations {
			rep.PeakConfigurations = len(next)
		}
		live = next
	}

	rep.Compliant = true
	rep.Outcome = OutcomeCompliant
	rep.StepsReplayed = len(entries)
	rep.FinalConfigurations = len(live)
	best := -1
	for _, sc := range live {
		if best < 0 || sc.skips < best {
			best = sc.skips
			rep.SkippedLabels = sc.skipped
		}
		done, err := rt.sys.CanTerminateSilently(sc.conf.state)
		if err != nil {
			return nil, err
		}
		if done {
			rep.CanComplete = true
		}
	}
	rep.SkipsUsed = best
	rep.Pending = !rep.CanComplete
	return rep, nil
}
