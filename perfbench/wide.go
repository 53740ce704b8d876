package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/cli"
	"repro/internal/core"
)

// wideJob tells a wide-audit worker process what to audit. The worker
// is this binary re-executed, one process per pass, so each pass pays
// purposectl's cold set-up and its peak RSS is the audit's alone, not
// the input generator's.
type wideJob struct {
	Proc     string   `json:"proc"`
	Trail    string   `json:"trail"`
	Code     string   `json:"code"`
	Workers  int      `json:"workers"`
	Cases    int      `json:"cases"`
	Injected []string `json:"injected"`
}

// wideOut is one worker's report of its pass. The times are the
// worker's CPU time, all its threads together, scaled to the reference
// speed (calibrate.go); Speed is the host's median speed over the pass.
type wideOut struct {
	Entries  int     `json:"entries"`
	SetupNS  float64 `json:"setup_ns"`
	DecodeNS float64 `json:"decode_ns"`
	CheckNS  float64 `json:"check_ns"`
	Speed    float64 `json:"speed"`
	// EvidenceBytes is the JSON size of each violating case's
	// explanation: the evidence an offline audit hands the auditor.
	EvidenceBytes []float64 `json:"evidence_bytes"`
	Problems      []string  `json:"problems"`
	PeakRSSMB     float64   `json:"peak_rss_mb"`
}

// wideReady is the line a worker writes once its checker is built.
const wideReady = "ready\n"

// decodeReps is how many times each wide-audit pass decodes the trail.
const decodeReps = 5

// wideSetup loads the process as purposectl does and builds a cold
// interpreter checker.
func wideSetup(job *wideJob) (*core.Registry, *core.Checker, error) {
	reg := core.NewRegistry()
	if err := cli.LoadProcs(reg, []string{job.Proc + ":" + job.Code}); err != nil {
		return nil, nil, err
	}
	return reg, core.NewChecker(reg, nil), nil
}

// wideDecode turns trail bytes into the trail purposectl audits.
func wideDecode(data []byte) (*audit.Trail, error) {
	entries, _, err := audit.DecodeJSONLEntries(bytes.NewReader(data), audit.DecodeOptions{})
	if err != nil {
		return nil, err
	}
	return audit.NewTrail(entries), nil
}

// checkWideReports: one report per case, and every case without an
// injected violation compliant.
func checkWideReports(job *wideJob, reps []*core.Report) []string {
	var problems []string
	if len(reps) != job.Cases {
		problems = append(problems, fmt.Sprintf("%d reports for %d cases", len(reps), job.Cases))
	}
	injected := map[string]bool{}
	for _, c := range job.Injected {
		injected[c] = true
	}
	seen := map[string]bool{}
	for _, r := range reps {
		if seen[r.Case] {
			problems = append(problems, fmt.Sprintf("case %s reported twice", r.Case))
		}
		seen[r.Case] = true
		if !injected[r.Case] && r.Outcome != core.OutcomeCompliant {
			problems = append(problems, fmt.Sprintf("uninjected case %s is %s", r.Case, r.Outcome))
		}
	}
	return problems
}

// wideWorkerMain runs one wide-audit pass in a fresh process: it loads
// the process and builds the checker, writes "ready" on a line of its
// own, then decodes the trail and runs the cold audit.
func wideWorkerMain(jobPath string) error {
	pid := os.Getpid()
	raw, err := os.ReadFile(jobPath)
	if err != nil {
		return err
	}
	var job wideJob
	if err := json.Unmarshal(raw, &job); err != nil {
		return err
	}
	_, checker, err := wideSetup(&job)
	if err != nil {
		return err
	}
	setup, err := processCPU(pid)
	if err != nil {
		return err
	}
	if _, err := os.Stdout.WriteString(wideReady); err != nil {
		return err
	}
	// Tick 0 follows the set-up, which is scaled by it and the next.
	track := newSpeedTrack()
	if err := track.tick(); err != nil {
		return err
	}
	out := &wideOut{}
	data, err := os.ReadFile(job.Trail)
	if err != nil {
		return err
	}
	// Decoding is repeated: a single ~0.2s decode swings with GC
	// timing, and the median of several is the pass's figure.
	// Each step is timed with ticks inside it: the host's speed moves
	// within a 0.1 s decode and a seconds-long audit alike.
	var trail *audit.Trail
	var decodes []float64
	for i := 0; i < decodeReps; i++ {
		trail = nil
		runtime.GC()
		d, scale, err := track.tickWhile(pid, func() (err error) {
			trail, err = wideDecode(data)
			return err
		})
		if err != nil {
			return err
		}
		decodes = append(decodes, float64(d.Nanoseconds())*scale)
	}
	var reps []*core.Report
	check, scale, err := track.tickWhile(pid, func() (err error) {
		reps, err = checker.CheckTrailParallel(trail, job.Workers)
		return err
	})
	if err != nil {
		return err
	}
	out.CheckNS = float64(check.Nanoseconds()) * scale
	out.SetupNS = float64(setup.Nanoseconds()) * track.scale(0)
	out.DecodeNS = median(decodes)
	out.Speed = track.speed()
	out.Entries = trail.Len()
	out.Problems = checkWideReports(&job, reps)
	for _, r := range reps {
		if r.Outcome == core.OutcomeViolation {
			b, err := json.Marshal(r.Explanation)
			if err != nil {
				return err
			}
			out.EvidenceBytes = append(out.EvidenceBytes, float64(len(b)))
		}
	}
	if out.PeakRSSMB, err = vmHWM(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runWidePass runs one audit pass in a child process. It returns the
// worker's report and the wall time from exec to the worker's "ready"
// line, what a purposectl run waits before it reads the trail.
func (b *bench) runWidePass(jobPath string) (*wideOut, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(b.ctx, self, "-wide-worker", jobPath)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	rd := bufio.NewReader(pipe)
	ready, rerr := rd.ReadString('\n')
	setup := time.Since(t0)
	rest, err := io.ReadAll(rd)
	if rerr == nil {
		rerr = err
	}
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("wide-audit worker: %w", err)
	}
	if rerr != nil || ready != wideReady {
		return nil, 0, fmt.Errorf("wide-audit worker output: %q %v", ready, rerr)
	}
	var out wideOut
	if err := json.Unmarshal(rest, &out); err != nil {
		return nil, 0, fmt.Errorf("wide-audit worker output: %w", err)
	}
	return &out, setup, nil
}

func newWideAuditInput(b *bench) (*wideInput, error) {
	in, err := newWideInput(b.dir, b.cfg.seed, b.sz.wideTasks, b.sz.wideCases)
	if err != nil {
		return nil, err
	}
	b.stamp.Input["entries"] = in.entries
	b.stamp.Input["cases"] = in.cases
	b.stamp.Input["injected_cases"] = len(in.injected)
	b.stamp.Input["process_tasks"] = in.tasks
	b.stamp.Input["process_seed"] = wideProcSeed
	b.stamp.Input["workers"] = runtime.NumCPU()
	return in, nil
}

// runWideAudit: the offline a-posteriori audit purposectl performs,
// from trail bytes to per-case reports on a cold interpreter checker,
// one worker process per pass.
func runWideAudit(b *bench) error {
	in, err := newWideAuditInput(b)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(wideJob{
		Proc: in.procPath, Trail: in.trailPath, Code: wideCode, Workers: runtime.NumCPU(),
		Cases: in.cases, Injected: in.injected,
	})
	if err != nil {
		return err
	}
	jobPath := filepath.Join(b.dir, "wide-job.json")
	if err := os.WriteFile(jobPath, raw, 0o644); err != nil {
		return err
	}
	var outs []*wideOut
	err = b.passes(b.sz.minPasses, func(i int) error {
		out, wall, err := b.runWidePass(jobPath)
		if err != nil {
			return err
		}
		outs = append(outs, out)
		fmt.Fprintf(os.Stderr, "pass %d: %.0f CPU ns/entry, decode CPU %.1f ms, check CPU %.1f ms, set-up CPU %.4f s wall %.4f s, peak RSS %.1f MiB, host speed %.3f\n",
			i+1, (out.DecodeNS+out.CheckNS)/float64(out.Entries), out.DecodeNS/1e6, out.CheckNS/1e6, out.SetupNS/1e9, wall.Seconds(), out.PeakRSSMB, out.Speed)
		return nil
	})
	if err != nil {
		return err
	}
	var perEntry, setup, decode, check, rss, speed []float64
	for i, o := range outs {
		for _, p := range o.Problems {
			b.res.check(false, "pass %d: %s", i+1, p)
		}
		perEntry = append(perEntry, (o.DecodeNS+o.CheckNS)/float64(o.Entries))
		setup = append(setup, o.SetupNS/1e9)
		decode = append(decode, o.DecodeNS)
		check = append(check, o.CheckNS)
		speed = append(speed, o.Speed)
		rss = append(rss, o.PeakRSSMB)
		b.res.op(true)
	}
	b.stamp.Input["passes"] = len(outs)
	b.stamp.HostSpeed = median(speed)
	b.res.set("cpu_ns_per_entry", median(perEntry), "ns")
	b.res.set("ingest_cpu_ms", median(decode)/1e6, "ms")
	b.res.set("query_cpu_ms", median(check)/1e6, "ms")
	// Every pass audits the same trail with the same code, so the
	// evidence sizes are read from the first.
	b.res.set("proof_kb", median(outs[0].EvidenceBytes)/1024, "KiB")
	b.res.set("setup_s", median(setup), "s")
	// A worker's peak falls on one of a few levels, set by where its
	// garbage collections land; the mean over passes moves less than
	// the median between runs.
	b.res.set("peak_rss_mb", mean(rss), "MiB")
	return nil
}

// traceWideAudit drives the layers over the wide trail and, for the
// server rows, serves a prefix of it through auditd bound to the
// generated process.
func traceWideAudit(b *bench) error {
	in, err := newWideAuditInput(b)
	if err != nil {
		return err
	}
	job := &wideJob{Proc: in.procPath, Code: wideCode}
	data, err := os.ReadFile(in.trailPath)
	if err != nil {
		return err
	}
	trail, err := wideDecode(data)
	if err != nil {
		return err
	}
	reg, checker, err := wideSetup(job)
	if err != nil {
		return err
	}
	entries := trail.View()
	prefix := entries[:min(len(entries), b.sz.tracedPrefix)]
	served := &streamInput{reg: reg, entries: prefix, expected: map[string]int{}}
	reps, err := checker.CheckTrail(audit.NewTrail(prefix))
	if err != nil {
		return err
	}
	for _, r := range reps {
		served.expected[r.Outcome.String()]++
	}
	bodies, _, err := chunks(prefix, b.sz.chunk)
	if err != nil {
		return err
	}
	b.stamp.Input["served_prefix_entries"] = len(prefix)
	b.purposeArgs = []string{"-proc", in.procPath + ":" + wideCode}
	untraced, err := b.tracedServer(func(st *serverStats, spans *spanLog, extra ...string) (*daemon, error) {
		return b.durableIngestPass(st, served, bodies, spans, extra...)
	}, b.sz.tracedPasses)
	if err != nil {
		return err
	}
	li := &layerInput{
		reg: reg, procSpecs: []string{in.procPath + ":" + wideCode},
		entries: entries, stateEntries: entries, runtimeFromAudit: true,
	}
	if err := b.driveLayers(li); err != nil {
		return err
	}
	return b.finishTraced(untraced, 0)
}
