package main

// test: the declarative purpose-test runner. It discovers
// *.scenario.json fixtures, replays every trail through the interpreter
// and the dense compiled automaton, requires the two reports to be
// byte-identical, checks each trail's declared verdict and
// first-deviation, and reports DFA state/edge coverage per purpose.
//
// Usage:
//
//	purposectl test ./scenarios/...
//	purposectl test -cover-min 60 -v scenarios/insurance-claim.scenario.json
//	purposectl test -summary "$GITHUB_STEP_SUMMARY" ./scenarios/...
//
// Arguments are fixture files, directories, or dir/... recursive
// patterns. -cover-min fails any fixture whose trails visit less than
// the given percentage of its purpose's DFA states. -summary appends a
// Markdown results table to the named file (GitHub step summaries).
//
// Exit status: 0 when every fixture passes, 1 when any assertion fails,
// 2 on usage errors or unloadable fixtures.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/scenario"
)

// testMain runs the subcommand and returns the process exit code; main
// dispatches to it before the top-level flag parse.
func testMain(args []string) int {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	coverMin := fs.Float64("cover-min", 0, "minimum DFA state coverage percentage per fixture (0 = no floor)")
	verbose := fs.Bool("v", false, "print every trail's verdict, not just failures")
	summary := fs.String("summary", "", "append a Markdown results table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "purposectl test: no fixtures named (try: purposectl test ./scenarios/...)")
		return cli.ExitUsage
	}

	code, md := runScenarios(os.Stdout, paths, scenario.Options{CoverMin: *coverMin}, *verbose)
	if *summary != "" && md != "" {
		if err := appendFile(*summary, md); err != nil {
			fmt.Fprintln(os.Stderr, "purposectl test: summary:", err)
			return cli.ExitUsage
		}
	}
	return code
}

// runScenarios executes the corpus, writing human output to w, and
// returns the exit code plus the Markdown summary table.
func runScenarios(w io.Writer, paths []string, opts scenario.Options, verbose bool) (int, string) {
	files, err := scenario.Discover(paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "purposectl test:", err)
		return cli.ExitUsage, ""
	}

	var md strings.Builder
	md.WriteString("### Scenario corpus\n\n| fixture | trails | result | DFA state coverage |\n|---|---|---|---|\n")
	fixtures, trails, failed := 0, 0, 0
	for _, file := range files {
		fx, err := scenario.Load(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "purposectl test:", err)
			return cli.ExitUsage, ""
		}
		res, err := scenario.Run(fx, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "purposectl test:", err)
			return cli.ExitUsage, ""
		}
		fixtures++
		trails += len(res.Trails)

		status := "ok"
		if !res.OK() {
			status, failed = "FAIL", failed+1
		}
		fmt.Fprintf(w, "%-4s %s (%d trails)\n", status, fx.Name, len(res.Trails))
		if verbose {
			for _, tr := range res.Trails {
				fmt.Fprintf(w, "     %-28s %s\n", tr.Name, tr.Report.Outcome)
			}
		}
		covCell := "— (interpreter fallback)"
		for _, cr := range res.Coverage {
			fmt.Fprintf(w, "     cover %s\n", cr)
			covCell = fmt.Sprintf("%.1f%% states, %.1f%% edges", cr.StatePct(), cr.EdgePct())
		}
		for _, f := range res.Failures {
			fmt.Fprintf(w, "     FAIL %s\n", f)
		}
		mdStatus := "✅"
		if !res.OK() {
			mdStatus = "❌"
		}
		fmt.Fprintf(&md, "| %s | %d | %s | %s |\n", fx.Name, len(res.Trails), mdStatus, covCell)
	}

	fmt.Fprintf(w, "\n%d fixtures, %d trails", fixtures, trails)
	if failed > 0 {
		fmt.Fprintf(w, ", %d FAILED\n", failed)
		fmt.Fprintf(&md, "\n**%d of %d fixtures failed.**\n", failed, fixtures)
		return cli.ExitProblem, md.String()
	}
	fmt.Fprintln(w, ", all passing")
	fmt.Fprintf(&md, "\nAll %d fixtures (%d trails) passing; interpreter and compiled engines byte-identical.\n", fixtures, trails)
	return cli.ExitClean, md.String()
}

// appendFile appends text to path, creating it if needed.
func appendFile(path, text string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(text); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
