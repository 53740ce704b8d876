package core

import (
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/policy"
)

// Severity metrics — the second future-work item of Section 7: "To
// narrow down the number of situations to be investigated, we are
// complementing the presented mechanism with metrics for measuring the
// severity of privacy infringements."
//
// The scorer turns each infringement report into a 0–100 score from
// auditable components, so an investigation queue can be ranked. The
// components and their rationale:
//
//   - base (25): every confirmed infringement matters;
//   - consent (0–30): data of subjects with no recorded consent to any
//     secondary purpose (the paper's Jane, who explicitly withheld it)
//     score highest — whatever the data were diverted to, the subject
//     never sanctioned it;
//   - sensitivity (0–15): clinical sections above demographics above
//     subject-less artifacts;
//   - spread (0–15): how many distinct subjects' data the violating
//     case touched (harvesting scores above a one-off);
//   - progress (0–15): deviating at the first entry (a fabricated
//     case, like HT-11) is more damning than deviating deep into an
//     otherwise-valid execution (likely sloppiness or an emergency, the
//     paper's §7 exception discussion).
type SeverityScorer struct {
	// Consents is consulted for the consent component; nil scores the
	// component at full weight when the object has a data subject
	// (absence of recorded consent is the worst case).
	Consents *policy.ConsentRegistry
	// SensitiveSections maps path components (e.g. "Clinical") to
	// sensitivity in [0,1]; unlisted sections score 0.3, subject-less
	// objects 0.
	SensitiveSections map[string]float64
}

// NewSeverityScorer returns a scorer with healthcare defaults.
func NewSeverityScorer(consents *policy.ConsentRegistry) *SeverityScorer {
	return &SeverityScorer{
		Consents: consents,
		SensitiveSections: map[string]float64{
			"Clinical":     1.0,
			"Tests":        1.0,
			"Scan":         1.0,
			"Demographics": 0.5,
		},
	}
}

// ScoredReport pairs an infringement with its severity breakdown.
type ScoredReport struct {
	Report *Report
	Score  int
	// Components, for explainability in the investigation UI.
	Base, Consent, Sensitivity, Spread, Progress int
}

// Score rates one non-compliant report against the case's trail slice.
// Compliant reports score 0.
func (s *SeverityScorer) Score(rep *Report, caseTrail *audit.Trail) ScoredReport {
	out := ScoredReport{Report: rep}
	if rep.Compliant || rep.Violation == nil {
		return out
	}
	out.Base = 25

	subjects := map[string]bool{}
	sens := 0.0
	consentViolated := false
	for i := 0; i < caseTrail.Len(); i++ {
		e := caseTrail.At(i)
		if e.Object.Subject != "" {
			subjects[e.Object.Subject] = true
			if s.Consents == nil || len(s.Consents.PurposesOf(e.Object.Subject)) == 0 {
				// The data subject never consented to any secondary
				// purpose: whatever the falsified case fed, it was
				// unsanctioned.
				consentViolated = true
			}
		}
		if v := s.sectionSensitivity(e.Object); v > sens {
			sens = v
		}
	}
	if consentViolated {
		out.Consent = 30
	}
	out.Sensitivity = int(15 * sens)
	switch n := len(subjects); {
	case n >= 3:
		out.Spread = 15
	case n == 2:
		out.Spread = 10
	case n == 1:
		out.Spread = 5
	}
	if rep.Entries > 0 {
		frac := 1 - float64(rep.StepsReplayed)/float64(rep.Entries)
		out.Progress = int(15 * frac)
	}
	out.Score = out.Base + out.Consent + out.Sensitivity + out.Spread + out.Progress
	if out.Score > 100 {
		out.Score = 100
	}
	return out
}

func (s *SeverityScorer) sectionSensitivity(o policy.Object) float64 {
	if o.Subject == "" || len(o.Path) == 0 {
		return 0
	}
	best := 0.3
	for _, part := range o.Path {
		if v, ok := s.SensitiveSections[part]; ok && v > best {
			best = v
		}
	}
	return best
}

// Rank scores every infringement in the audit result and returns them
// most-severe first — the §7 investigation queue.
func (s *SeverityScorer) Rank(res *AuditResult, trail *audit.Trail) []ScoredReport {
	var out []ScoredReport
	idx := trail.IndexByCase()
	for _, rep := range res.Infringements() {
		out = append(out, s.Score(rep, idx.Case(rep.Case)))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// Temporal constraint — Section 4: "if a maximum duration for the
// process is defined, an infringement can be raised in the case where
// this temporal constraint is violated." ExpirePending turns compliant
// but pending cases whose last activity is older than maxIdle (relative
// to now) into infringements of kind ViolationExpired.

// ViolationExpired classifies a pending case that outlived the
// process's maximum duration (Section 4's temporal constraint).
const ViolationExpired ViolationKind = 100

// ExpirePending rewrites pending reports whose case has been idle
// longer than maxIdle at time now.
func ExpirePending(reports []*Report, trail *audit.Trail, maxIdle time.Duration, now time.Time) {
	idx := trail.IndexByCase()
	for _, rep := range reports {
		if !rep.Compliant || !rep.Pending {
			continue
		}
		slice := idx.Case(rep.Case)
		if slice.Len() == 0 {
			continue
		}
		last := slice.At(slice.Len() - 1).Time
		if now.Sub(last) > maxIdle {
			rep.Compliant = false
			rep.Violation = &Violation{
				Kind: ViolationExpired,
				Reason: "process instance exceeded its maximum duration: idle since " +
					last.Format(audit.PaperTimeLayout),
			}
		}
	}
}
