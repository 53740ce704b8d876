// Command ltsdump explores the labeled transition system of a COWS
// service or an encoded BPMN process: state/edge statistics, Graphviz
// output, and (bounded) observable trace enumeration.
//
// Usage:
//
//	ltsdump -cows 'P.T!<> | P.T?<>.P.E!<> | P.E?<>'
//	ltsdump -proc process.json [-dot out.dot] [-traces 20] [-max 5000]
//	ltsdump -builtin treatment -dot fig1.dot
//	ltsdump -builtin clinicaltrial -stats
//	ltsdump -proc process.json -policy pol.txt -stats
//
// -stats determinizes the process into the table-driven replay
// automaton (DESIGN.md §11) exactly as the checker does — the purpose
// registered alone, compiled under the checker's default flags — and
// prints its table sizes and fingerprint. -policy supplies the role
// hierarchy, so the fingerprint matches the one auditd -compiled logs
// under the same policy; a -builtin process without -policy takes the
// hospital's hierarchy, so its fingerprint is the one auditd -builtin
// hospital -compiled logs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bpmn"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/cows"
	"repro/internal/encode"
	"repro/internal/hospital"
	"repro/internal/lts"
	"repro/internal/policy"
)

func main() {
	var (
		cowsSrc  = flag.String("cows", "", "COWS service in textual syntax")
		procFile = flag.String("proc", "", "BPMN process JSON to encode and explore")
		builtin  = flag.String("builtin", "", "built-in process: treatment, clinicaltrial")
		dotOut   = flag.String("dot", "", "write Graphviz DOT of the observable LTS")
		procDot  = flag.String("procdot", "", "write Graphviz DOT of the BPMN diagram itself")
		traces   = flag.Int("traces", 0, "enumerate up to N maximal observable traces")
		maxState = flag.Int("max", 10000, "state budget for exploration")
		depth    = flag.Int("depth", 40, "trace depth bound")
		stats    = flag.Bool("stats", false, "determinize into the replay automaton and print table statistics")
		polFile  = flag.String("policy", "", "policy file supplying the role hierarchy for automaton compilation")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cli.VersionString("ltsdump"))
		return
	}

	if err := run(*cowsSrc, *procFile, *builtin, *dotOut, *procDot, *traces, *maxState, *depth, *stats, *polFile); err != nil {
		fmt.Fprintln(os.Stderr, "ltsdump:", err)
		os.Exit(2)
	}
}

func run(cowsSrc, procFile, builtin, dotOut, procDot string, traces, maxState, depth int, stats bool, polFile string) error {
	var (
		service cows.Service
		obs     lts.Observability
		name    = "lts"
		proc    *bpmn.Process
		err     error
	)
	switch {
	case cowsSrc != "":
		service, err = cows.Parse(cowsSrc)
		if err != nil {
			return err
		}
		obs = func(l cows.Label) bool { return l.Kind == cows.LComm }
	case procFile != "" || builtin != "":
		switch builtin {
		case "treatment":
			proc, err = hospital.Treatment()
		case "clinicaltrial":
			proc, err = hospital.ClinicalTrial()
		case "":
			var f *os.File
			f, err = os.Open(procFile)
			if err != nil {
				return err
			}
			if strings.HasSuffix(procFile, ".bpmn") || strings.HasSuffix(procFile, ".xml") {
				proc, err = bpmn.DecodeXML(f)
			} else {
				proc, err = bpmn.DecodeJSON(f)
			}
			f.Close()
		default:
			return fmt.Errorf("unknown builtin %q", builtin)
		}
		if err != nil {
			return err
		}
		name = proc.Name
		service, err = encode.Encode(proc)
		if err != nil {
			return err
		}
		obs = encode.Observability(proc)
		rep, err := encode.Report(proc)
		if err != nil {
			return err
		}
		st := proc.Stats()
		fmt.Printf("process %s: %d pools, %d tasks, %d gateways, %d events, %d seq flows, %d msg flows\n",
			proc.Name, st.Pools, st.Tasks, st.Gateways, st.Events, st.SeqFlows, st.MsgFlows)
		fmt.Printf("COWS encoding: %d AST nodes over %d element services\n", rep.TotalSize, len(rep.Elements))
		if procDot != "" {
			if err := os.WriteFile(procDot, []byte(proc.DOT()), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", procDot)
		}
	default:
		return fmt.Errorf("need one of -cows, -proc, -builtin")
	}

	if stats {
		if proc == nil {
			return fmt.Errorf("-stats needs a BPMN process (-proc or -builtin)")
		}
		var roles *policy.RoleHierarchy
		switch {
		case polFile != "":
			f, err := os.Open(polFile)
			if err != nil {
				return err
			}
			p, err := policy.ParsePolicy(f)
			f.Close()
			if err != nil {
				return err
			}
			roles = p.Roles
		case builtin != "":
			// The builtins are the hospital's purposes: compile them
			// under its role hierarchy, as auditd -builtin hospital does.
			if roles, err = hospital.Roles(); err != nil {
				return err
			}
		}
		reg := core.NewRegistry()
		if _, err := reg.Register(proc, proc.Name); err != nil {
			return err
		}
		d, err := core.NewChecker(reg, roles).EnsureCompiled(proc.Name)
		if err != nil {
			return fmt.Errorf("compiling %s: %w", proc.Name, err)
		}
		fmt.Println(d.Stats())
		fmt.Printf("fingerprint: %s\n", d.Fingerprint)
	}

	y := lts.NewSystem(obs)
	g, err := y.ExploreObservable(service, maxState)
	truncated := false
	if errors.Is(err, lts.ErrBudgetExceeded) {
		truncated = true
	} else if err != nil {
		return err
	}
	suffix := ""
	if truncated {
		suffix = fmt.Sprintf(" (budget %d hit; partial)", maxState)
	}
	fmt.Printf("observable LTS: %d states, %d transitions%s\n", g.NumStates(), g.NumEdges(), suffix)
	fmt.Printf("labels: %v\n", g.LabelSet())

	if dotOut != "" {
		if err := os.WriteFile(dotOut, []byte(g.DOT(name, false)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", dotOut)
	}
	if traces > 0 {
		res, err := y.ObservableTraces(service, lts.TraceLimits{MaxDepth: depth, MaxTraces: traces})
		if err != nil {
			return err
		}
		for _, tr := range res.Traces {
			fmt.Println("  trace:", tr)
		}
		if !res.Exhaustive {
			fmt.Println("  (truncated)")
		}
	}
	return nil
}
