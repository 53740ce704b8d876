// Command purposectl audits audit trails for purpose compliance: it
// replays every case of a trail against the organizational process its
// case code claims as purpose (Algorithm 1 of the paper) and, when a
// policy is supplied, additionally evaluates every logged action against
// the data protection policy (Definition 3).
//
// Usage:
//
//	purposectl -builtin hospital [-object "[Jane]EPR"] [-v]
//	purposectl -proc treat.json:HT -proc trial.bpmn:CT -trail day.csv \
//	           [-policy pol.txt] [-object OBJ] [-case HT-1] [-skips N] \
//	           [-lenient] [-explain] [-trace spans.jsonl] [-v]
//	purposectl verify-proof -bundle proof.json [-pubkey HEX | -pubkey-file F]
//	purposectl test [-cover-min PCT] [-summary FILE] [-v] ./scenarios/...
//	purposectl top [-addr http://127.0.0.1:8443] [-interval 2s] [-once]
//
// top renders a live terminal dashboard over a running auditd's
// GET /v1/status: ingest totals and rate, verdict counts, per-shard
// queue depth / high-water / restarts, WAL and ledger progress, and
// flight-recorder state. -once prints a single plain snapshot and
// exits, for scripts and CI.
//
// test runs declarative purpose-test fixtures (*.scenario.json): each
// pairs a process, a policy and annotated trails declaring the expected
// verdict and first deviation; every trail is replayed through the
// interpreter and both compiled engines, which must agree byte-for-byte
// (DESIGN.md §16).
//
// verify-proof checks a proof bundle from auditd's GET /v1/proofs/{case}
// offline — entry inclusion in signed Merkle roots, root-chain
// continuity, signatures — against a pinned public key (DESIGN.md §15).
//
// -explain prints a structured account under every non-compliant case:
// the diverging entry, the expected tasks at that point, and a
// nearest-miss hint (DESIGN.md §12). -trace records one span per case
// replay to a JSONL file (same span model auditd serves at /v1/traces).
//
// Processes are BPMN files — our JSON interchange (internal/bpmn.Spec)
// or OMG BPMN 2.0 XML (.bpmn/.xml) — bound to case codes with
// file:CODE[,CODE...]. Trails are CSV (Figure 4 layout) or JSONL,
// selected by extension. -skips N allows up to N unlogged task
// executions per case (partial-trail analysis, paper Section 7).
//
// -lenient switches ingestion to degraded mode: malformed trail lines
// are quarantined (and summarized) instead of aborting the run, and
// entries are ingested with per-case ordering and a bounded reorder
// buffer, recording duplicates and clock skew as anomalies.
//
// Exit status: 0 when every case is compliant; 1 when infringements or
// policy findings are reported; 2 on usage or input errors; 3 when the
// only irregularities are indeterminate cases (analysis abandoned on a
// budget or cap — neither compliance nor violation is claimed).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
)

// options collects everything run needs; flags map onto it 1:1.
type options struct {
	procs   []string
	trail   string
	policy  string
	builtin string
	object  string
	caseID  string
	from    string
	to      string
	skips   int
	lenient bool
	explain bool
	trace   string
	verbose bool
}

// summary is what a run found; main maps it to the exit status.
type summary struct {
	cases         int
	infringements int
	indeterminate int
	findings      int
	quarantined   int
	anomalies     int
}

// exitCode maps a run summary onto the shared cli exit-status scale.
func exitCode(s summary) int {
	return cli.ExitCode(s.infringements, s.findings, s.indeterminate)
}

func main() {
	// Subcommand dispatch ahead of the top-level flags: verify-proof has
	// its own flag set and exit-code mapping.
	if len(os.Args) > 1 && os.Args[1] == "verify-proof" {
		os.Exit(verifyProofMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "test" {
		os.Exit(testMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		os.Exit(topMain(os.Args[2:]))
	}
	var (
		procs cli.ProcList
		o     options
	)
	flag.StringVar(&o.trail, "trail", "", "trail file (.csv or .jsonl)")
	flag.StringVar(&o.policy, "policy", "", "policy file (textual format)")
	flag.StringVar(&o.builtin, "builtin", "", "use a built-in scenario: 'hospital' (Figures 1-4)")
	flag.StringVar(&o.object, "object", "", "investigate one object, e.g. \"[Jane]EPR\"")
	flag.StringVar(&o.caseID, "case", "", "check a single case id")
	flag.StringVar(&o.from, "from", "", "audit only entries at or after this time, "+cli.TimeUsage)
	flag.StringVar(&o.to, "to", "", "audit only entries before this time, "+cli.TimeUsage)
	flag.IntVar(&o.skips, "skips", 0, "allow up to N unlogged task executions per case")
	flag.BoolVar(&o.lenient, "lenient", false, "quarantine malformed trail lines and absorb ordering anomalies instead of aborting")
	flag.BoolVar(&o.explain, "explain", false, "print a structured explanation under every non-compliant case")
	flag.StringVar(&o.trace, "trace", "", "record one span per case replay to this JSONL file")
	flag.BoolVar(&o.verbose, "v", false, "print compliant cases too")
	version := flag.Bool("version", false, "print version and exit")
	flag.Var(&procs, "proc", cli.ProcUsage)
	flag.Parse()
	if *version {
		fmt.Println(cli.VersionString("purposectl"))
		return
	}
	o.procs = procs

	s, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "purposectl:", err)
		fmt.Fprintln(os.Stderr, cli.ExitCodesHelp)
		os.Exit(cli.ExitUsage)
	}
	os.Exit(exitCode(s))
}

// loadTrail reads the trail file; in lenient mode malformed lines are
// quarantined and entries pass through a per-case lenient store whose
// anomalies are reported alongside.
func loadTrail(path string, lenient bool) (*audit.Trail, *audit.Quarantine, []audit.Anomaly, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	jsonl := strings.HasSuffix(path, ".jsonl")
	if !lenient {
		var trail *audit.Trail
		if jsonl {
			trail, err = audit.ReadJSONL(f)
		} else {
			trail, err = audit.ReadCSV(f)
		}
		return trail, nil, nil, err
	}
	opts := audit.DecodeOptions{Lenient: true}
	var (
		entries []audit.Entry
		q       *audit.Quarantine
	)
	if jsonl {
		entries, q, err = audit.DecodeJSONLEntries(f, opts)
	} else {
		entries, q, err = audit.DecodeCSVEntries(f, opts)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	store := audit.NewStoreWith(audit.StoreOptions{Order: audit.OrderPerCaseLenient})
	for _, e := range entries {
		if err := store.Append(e); err != nil {
			return nil, nil, nil, err
		}
	}
	return store.Trail(), q, store.Anomalies(), nil
}

// run performs the audit and returns what it found; main maps the
// summary to the exit status.
func run(w io.Writer, o options) (summary, error) {
	var (
		s       summary
		reg     = core.NewRegistry()
		pol     *policy.Policy
		consent *policy.ConsentRegistry
		trail   *audit.Trail
	)

	if o.builtin != "" {
		sc, err := cli.Builtin(o.builtin)
		if err != nil {
			return s, err
		}
		reg, pol, consent, trail = sc.Registry, sc.Policy, sc.Consents, sc.Trail
	} else {
		if len(o.procs) == 0 {
			return s, fmt.Errorf("no processes: use -proc or -builtin")
		}
		if err := cli.LoadProcs(reg, o.procs); err != nil {
			return s, err
		}
	}

	if o.trail != "" {
		var (
			q     *audit.Quarantine
			anoms []audit.Anomaly
			err   error
		)
		trail, q, anoms, err = loadTrail(o.trail, o.lenient)
		if err != nil {
			return s, err
		}
		if q != nil && q.Len() > 0 {
			s.quarantined = q.Len()
			fmt.Fprintln(w, q.Summary())
			if o.verbose {
				for _, r := range q.Records {
					fmt.Fprintf(w, "  quarantined line %d: %v\n", r.Line, r.Err)
				}
			}
		}
		if len(anoms) > 0 {
			s.anomalies = len(anoms)
			kinds := map[audit.AnomalyKind]int{}
			for _, a := range anoms {
				kinds[a.Kind]++
			}
			fmt.Fprintf(w, "ingest absorbed %d ordering anomaly(ies):", len(anoms))
			for _, k := range []audit.AnomalyKind{audit.AnomalyReordered, audit.AnomalySkew, audit.AnomalyDuplicate} {
				if kinds[k] > 0 {
					fmt.Fprintf(w, " %d %s", kinds[k], k)
				}
			}
			fmt.Fprintln(w)
			if o.verbose {
				for _, a := range anoms {
					fmt.Fprintf(w, "  %s\n", a)
				}
			}
		}
	}
	if trail == nil {
		return s, fmt.Errorf("no trail: use -trail (or -builtin hospital)")
	}
	if o.from != "" || o.to != "" {
		var from, to time.Time
		var err error
		if o.from != "" {
			if from, err = cli.ParseTime(o.from); err != nil {
				return s, err
			}
		}
		if o.to != "" {
			if to, err = cli.ParseTime(o.to); err != nil {
				return s, err
			}
		}
		trail = cli.Window(trail, from, to)
	}

	if o.policy != "" {
		f, err := os.Open(o.policy)
		if err != nil {
			return s, err
		}
		pol, err = policy.ParsePolicy(f)
		f.Close()
		if err != nil {
			return s, err
		}
	}
	if consent == nil {
		consent = policy.NewConsentRegistry()
	}

	fw := core.NewFramework(reg, pol, consent)

	if o.trace != "" {
		// Framework audits replay cases sequentially, so the
		// single-goroutine replay tracer is safe on the shared checker.
		f, err := os.Create(o.trace)
		if err != nil {
			return s, err
		}
		exp := obs.NewJSONLExporter(f)
		fw.Checker.Observer = obs.NewReplayTracer(exp)
		defer func() {
			if err := exp.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "purposectl: span export:", err)
			}
			f.Close()
		}()
	}

	check := func(trail *audit.Trail, caseID string) (*core.Report, error) {
		if o.skips > 0 {
			srep, err := fw.Checker.CheckCaseWithSkips(trail, caseID, o.skips)
			if err != nil {
				return nil, err
			}
			if srep.Compliant && srep.SkipsUsed > 0 {
				fmt.Fprintf(w, "case %s: compliant with %d hypothesized unlogged execution(s): %v\n",
					caseID, srep.SkipsUsed, srep.SkippedLabels)
			}
			return &srep.Report, nil
		}
		return fw.Checker.CheckCase(trail, caseID)
	}

	var reports []*core.Report
	var findings []core.EntryFinding
	switch {
	case o.caseID != "":
		rep, err := check(trail, o.caseID)
		if err != nil {
			return s, err
		}
		reports = []*core.Report{rep}
	case o.object != "":
		obj, err := policy.ParseObject(o.object)
		if err != nil {
			return s, err
		}
		res, err := fw.AuditObject(trail, obj)
		if err != nil {
			return s, err
		}
		reports, findings = res.CaseReports, res.PolicyFindings
	default:
		res, err := fw.Audit(trail)
		if err != nil {
			return s, err
		}
		reports, findings = res.CaseReports, res.PolicyFindings
	}
	if o.skips > 0 {
		// Re-examine infringements with the skip budget; gaps that a
		// few unlogged executions explain are downgraded in place.
		// Indeterminate cases are left alone: the skip search runs under
		// the same budgets that already failed. The trail is indexed
		// once so each re-check reads only its own case.
		idx := trail.IndexByCase()
		for i, rep := range reports {
			if rep.Compliant || rep.Outcome == core.OutcomeIndeterminate {
				continue
			}
			re, err := check(idx.Case(rep.Case), rep.Case)
			if err != nil {
				return s, err
			}
			reports[i] = re
		}
	}

	s.cases = len(reports)
	for _, rep := range reports {
		switch {
		case rep.Outcome == core.OutcomeIndeterminate:
			s.indeterminate++
			fmt.Fprintln(w, rep)
			if o.explain {
				obs.WriteExplanation(w, rep.Explanation)
			}
		case !rep.Compliant:
			s.infringements++
			fmt.Fprintln(w, rep)
			if o.explain {
				obs.WriteExplanation(w, rep.Explanation)
			}
		case o.verbose:
			fmt.Fprintln(w, rep)
		}
	}
	if pol != nil {
		s.findings = len(findings)
		for _, f := range findings {
			fmt.Fprintf(w, "policy finding (entry %d): %s: %s\n", f.Index, f.Entry, f.Reason)
		}
	}
	fmt.Fprintf(w, "checked %d case(s): %d infringement(s), %d indeterminate, %d policy finding(s)\n",
		s.cases, s.infringements, s.indeterminate, s.findings)
	return s, nil
}
