// Command auditgen synthesizes benchmark inputs: random well-founded
// BPMN processes and valid (optionally perturbed) audit trails simulated
// from their COWS semantics.
//
// Usage:
//
//	auditgen -tasks 20 -seed 1 -cases 10 -code GEN \
//	         -proc-out proc.json -out trail.csv \
//	         [-pools 2] [-violate wrong-role] [-actions 3]
//	auditgen -builtin hospital -stream -rate 50 | curl --data-binary @- ...
//
// The generated process goes to -proc-out (BPMN JSON), the trail to
// -out (CSV, or JSONL by extension). With -violate, one injection of the
// given kind is applied per case where applicable.
//
// -stream switches the output to NDJSON written one entry at a time
// (each line flushed), paced at -rate events per second (0 =
// unthrottled) — a live feed for auditd's POST /v1/events. -builtin
// hospital replays the paper's Figure 4 trail instead of generating
// one.
//
// -post URL skips the pipe and speaks to auditd directly: the stream
// is sent as POST bursts and the client resumes through backpressure.
// A 429 names the exact line the server stopped at (rejected_at_line),
// so the retry resends precisely the unaccepted tail; 429/503 waits
// honor the server's Retry-After hint when present and fall back to
// exponential backoff with jitter. -max-retries bounds consecutive
// zero-progress attempts. Delivery is exactly-once across HTTP-level
// rejections; a connection that dies after the server read the body
// cannot be distinguished from one that died before, so those retries
// are at-least-once (the trade is documented, not hidden).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	var (
		tasks   = flag.Int("tasks", 15, "approximate task count")
		pools   = flag.Int("pools", 1, "pool segments")
		seed    = flag.Int64("seed", 1, "generation seed")
		cases   = flag.Int("cases", 10, "process instances to simulate")
		code    = flag.String("code", "GEN", "case code prefix")
		actions = flag.Int("actions", 2, "max log entries per task execution")
		procOut = flag.String("proc-out", "", "write the process as BPMN JSON")
		out     = flag.String("out", "", "write the trail (.csv or .jsonl; default stdout CSV)")
		violate = flag.String("violate", "", "inject a violation per case: skip-task, swap-adjacent, wrong-role, foreign-task, re-purpose, fake-failure")
		builtin = flag.String("builtin", "", "emit a built-in trail instead of generating: 'hospital' (Figure 4)")
		stream  = flag.Bool("stream", false, "write NDJSON one entry at a time (flushed per line), for live ingestion")
		rate    = flag.Float64("rate", 0, "with -stream: events per second (0 = unthrottled)")
		postURL = flag.String("post", "", "POST the stream to this auditd /v1/events URL (resumes through 429/503 backpressure by line offset)")
		retries = flag.Int("max-retries", 8, "with -post: give up after this many consecutive attempts without progress")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cli.VersionString("auditgen"))
		return
	}

	if err := run(*tasks, *pools, *seed, *cases, *code, *actions, *procOut, *out, *violate, *builtin, *stream, *rate, *postURL, *retries); err != nil {
		fmt.Fprintln(os.Stderr, "auditgen:", err)
		os.Exit(2)
	}
}

func run(tasks, pools int, seed int64, cases int, code string, actions int, procOut, out, violate, builtin string, stream bool, rate float64, postURL string, maxRetries int) error {
	trail, err := buildTrail(tasks, pools, seed, cases, code, actions, procOut, violate, builtin)
	if err != nil {
		return err
	}

	if postURL != "" {
		p := &poster{
			url:        postURL,
			client:     http.DefaultClient,
			maxRetries: maxRetries,
			sleep:      time.Sleep,
			warn:       os.Stderr,
		}
		return p.stream(trail, rate)
	}

	var w *os.File = os.Stdout
	if out != "" {
		w, err = os.Create(out)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	if stream {
		return streamJSONL(w, trail, rate)
	}
	if strings.HasSuffix(out, ".jsonl") {
		return audit.WriteJSONL(w, trail)
	}
	return audit.WriteCSV(w, trail)
}

func buildTrail(tasks, pools int, seed int64, cases int, code string, actions int, procOut, violate, builtin string) (*audit.Trail, error) {
	if builtin != "" {
		sc, err := cli.Builtin(builtin)
		if err != nil {
			return nil, err
		}
		return sc.Trail, nil
	}

	params := workload.DefaultProcParams("Generated", seed, tasks)
	params.Pools = pools
	proc, err := workload.Generate(params)
	if err != nil {
		return nil, err
	}
	if procOut != "" {
		f, err := os.Create(procOut)
		if err != nil {
			return nil, err
		}
		if err := proc.EncodeJSON(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}

	reg := core.NewRegistry()
	if _, err := reg.Register(proc, code); err != nil {
		return nil, err
	}
	tp := workload.DefaultTrailParams(seed+1, cases, code)
	tp.ActionsPerTask = actions
	trail, err := workload.NewSimulator(reg, tp).Generate()
	if err != nil {
		return nil, err
	}

	if violate != "" {
		kind, err := parseKind(violate)
		if err != nil {
			return nil, err
		}
		inj := workload.NewInjector(seed + 2)
		var entries []audit.Entry
		idx := trail.IndexByCase()
		for _, caseID := range idx.Cases() {
			slice := idx.AppendCase(nil, caseID)
			if mut, ok := inj.Inject(kind, slice); ok {
				entries = append(entries, mut...)
			} else {
				entries = append(entries, slice...)
			}
		}
		trail = audit.NewTrail(entries)
	}
	return trail, nil
}

// minTickPeriod floors the pacer's ticker: above ~200 events/s a
// per-entry sleep oversleeps more than the period itself (timer slop
// is tens to hundreds of microseconds), so high rates emit small
// bursts every few milliseconds instead of one entry per wakeup.
const minTickPeriod = 5 * time.Millisecond

// dueBy reports how many entries of a rate-paced stream should have
// been emitted once elapsed time has passed: entry n is due at
// n/rate seconds after the start. The schedule is absolute, so a
// stalled writer (slow pipe, scheduler hiccup) catches up with one
// burst instead of compounding the drift into a permanently slower
// stream. rate <= 0 means everything is due.
func dueBy(elapsed time.Duration, rate float64, total int) int {
	if rate <= 0 {
		return total
	}
	due := int(elapsed.Seconds()*rate) + 1
	if due > total {
		due = total
	}
	if due < 0 { // elapsed*rate overflowed int
		due = total
	}
	return due
}

// streamJSONL writes the trail as NDJSON for live ingestion. rate > 0
// paces emission at that many events per second against an absolute
// schedule (see dueBy), flushing once per burst; unthrottled output
// flushes per line so a downstream reader sees each event as it
// happens.
func streamJSONL(w *os.File, t *audit.Trail, rate float64) error {
	bw := bufio.NewWriter(w)
	entries := t.Entries()
	if rate <= 0 {
		for _, e := range entries {
			if err := audit.AppendJSONL(bw, e); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		return nil
	}
	period := time.Duration(float64(time.Second) / rate)
	if period < minTickPeriod {
		period = minTickPeriod
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	start := time.Now()
	emitted := 0
	for emitted < len(entries) {
		due := dueBy(time.Since(start), rate, len(entries))
		for ; emitted < due; emitted++ {
			if err := audit.AppendJSONL(bw, entries[emitted]); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if emitted < len(entries) {
			<-tick.C
		}
	}
	return nil
}

// poster delivers a trail to auditd's POST /v1/events with
// resume-by-line retries. One poster drives one stream; sleep and warn
// are swappable for tests.
type poster struct {
	url        string
	client     *http.Client
	maxRetries int
	sleep      func(time.Duration)
	warn       io.Writer
}

// ingestReply is the subset of auditd's ingest response the retry loop
// steers by.
type ingestReply struct {
	Accepted       int    `json:"accepted"`
	Quarantined    int    `json:"quarantined"`
	RejectedAtLine int    `json:"rejected_at_line"`
	Error          string `json:"error"`
}

// backoffBase/backoffCap bound the client-side wait when the server
// does not name one: 100ms doubling per consecutive failure, capped at
// 5s, each draw jittered to 50-150% so a fleet of stalled producers
// does not re-arrive in lockstep.
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 5 * time.Second
)

// backoffDelay picks the wait before retry attempt n (0-based). A
// Retry-After of s seconds takes precedence over the exponential
// schedule; jitter applies to both.
func backoffDelay(n int, retryAfter string) time.Duration {
	d := backoffBase << min(n, 10)
	if d > backoffCap {
		d = backoffCap
	}
	if s, err := strconv.Atoi(retryAfter); err == nil && s > 0 {
		d = time.Duration(s) * time.Second
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// stream sends the trail as NDJSON bursts, paced like streamJSONL when
// rate > 0, resuming by line offset through 429/503 rejections.
func (p *poster) stream(t *audit.Trail, rate float64) error {
	entries := t.Entries()
	lines := make([][]byte, len(entries))
	for i, e := range entries {
		var buf bytes.Buffer
		if err := audit.AppendJSONL(&buf, e); err != nil {
			return err
		}
		lines[i] = buf.Bytes()
	}

	start := time.Now()
	sent, failures := 0, 0
	for sent < len(lines) {
		due := dueBy(time.Since(start), rate, len(lines))
		if due <= sent {
			p.sleep(minTickPeriod)
			continue
		}
		n, retryAfter, err := p.post(lines[sent:due])
		sent += n
		if err == nil {
			failures = 0
			continue
		}
		if errors.Is(err, errPermanent) {
			return err
		}
		if n > 0 {
			failures = 0 // partial acceptance is progress; restart the budget
		}
		if failures >= p.maxRetries {
			return fmt.Errorf("giving up after %d attempts without progress, resume at line %d: %w",
				failures, sent+1, err)
		}
		d := backoffDelay(failures, retryAfter)
		failures++
		fmt.Fprintf(p.warn, "auditgen: %v; %d/%d sent, retrying in %v\n", err, sent, len(lines), d)
		p.sleep(d)
	}
	return nil
}

// post sends one burst and reports how many of its lines the server
// accepted. A non-nil error means the remainder must be resent: the
// count is exact for HTTP-level rejections (the 429/503 body names the
// stopping line), but a transport failure cannot reveal how much of
// the body the server consumed — that retry is at-least-once.
func (p *poster) post(lines [][]byte) (accepted int, retryAfter string, err error) {
	body := bytes.Join(lines, nil)
	resp, err := p.client.Post(p.url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, "", fmt.Errorf("post: %w", err)
	}
	defer resp.Body.Close()
	var reply ingestReply
	if derr := json.NewDecoder(resp.Body).Decode(&reply); derr != nil && resp.StatusCode != http.StatusServiceUnavailable {
		return 0, "", fmt.Errorf("status %s with undecodable body: %w", resp.Status, derr)
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		return len(lines), "", nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if reply.RejectedAtLine > 0 {
			accepted = reply.RejectedAtLine - 1
		}
		msg := reply.Error
		if msg == "" {
			msg = "backpressure"
		}
		return accepted, resp.Header.Get("Retry-After"),
			fmt.Errorf("server refused at line %d of burst (%s): %s", accepted+1, resp.Status, msg)
	default:
		// 400 and friends: resending the same bytes cannot succeed.
		return 0, "", fmt.Errorf("%w: %s: %s", errPermanent, resp.Status, reply.Error)
	}
}

// errPermanent marks server answers no retry can fix.
var errPermanent = errors.New("ingest rejected permanently")

func parseKind(s string) (workload.ViolationKind, error) {
	for k := workload.ViolationKind(0); k < workload.NumViolationKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown violation kind %q", s)
}
