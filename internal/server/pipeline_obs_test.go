package server

// PR 10 observability-surface tests: stage-latency histograms behind
// deterministic sampling, the flight recorder's dump-on-panic path,
// the /v1/status deep view, the /v1/watch SSE stream (including client
// disconnect), /v1/traces filters, the build-info series, and
// hot-path log rate limiting.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/obs"
)

// metricValue extracts the value of the first metrics line with the
// given series prefix, e.g. `auditd_stage_latency_seconds_count{stage="replay"}`.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metrics output has no series %q", series)
	return 0
}

// TestStageHistograms: with -stage-sample 1 every batch is timed, so
// after a WAL-backed ingest the decode, WAL append, fsync, queue-wait
// and replay histograms must all have observations; the ledger-seal
// histogram stays empty (no ledger configured) rather than reporting
// zeros as data.
func TestStageHistograms(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 2)
	cfg.StageSample = 1
	_, ts := startServer(t, sc, cfg)

	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	for _, stage := range []string{"decode", "wal_append", "wal_fsync", "queue_wait", "replay"} {
		series := fmt.Sprintf(`auditd_stage_latency_seconds_count{stage=%q}`, stage)
		if n := metricValue(t, body, series); n < 1 {
			t.Errorf("%s = %v, want >= 1", series, n)
		}
	}
	if n := metricValue(t, body, `auditd_stage_latency_seconds_count{stage="ledger_seal"}`); n != 0 {
		t.Errorf("ledger_seal observed %v batches with no ledger configured", n)
	}
	if n := metricValue(t, body, "auditd_stage_sample_every"); n != 1 {
		t.Errorf("auditd_stage_sample_every = %v, want 1", n)
	}
}

// TestStageSamplingDisabled: -stage-sample < 0 switches the timers off
// entirely — no observations, and the gauge reports 0 so an operator
// can tell "off" from "nothing happened yet".
func TestStageSamplingDisabled(t *testing.T) {
	sc := hospitalScenario(t)
	_, ts := startServer(t, sc, Config{Shards: 2, StageSample: -1})

	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	if n := metricValue(t, body, `auditd_stage_latency_seconds_count{stage="replay"}`); n != 0 {
		t.Errorf("replay observed %v batches with sampling off", n)
	}
	if n := metricValue(t, body, "auditd_stage_sample_every"); n != 0 {
		t.Errorf("auditd_stage_sample_every = %v, want 0", n)
	}
}

// TestFlightDumpOnShardPanic: an injected worker panic must leave a
// flightrec-shard_panic-*.json post-mortem in -flight-dir whose tail
// names the poisoned entry (the acceptance check for the recorder).
func TestFlightDumpOnShardPanic(t *testing.T) {
	sc := hospitalScenario(t)
	dir := t.TempDir()
	srv := newServer(t, sc.Registry, hospitalChecker(sc), Config{Shards: 2, FlightDir: dir})

	var fed atomic.Int64
	var poisonedCase, poisonedTask atomic.Value
	bad := srv.shardFor(sc.Trail.Cases()[0])
	bad.panicHook = func(e *audit.Entry) {
		if fed.Add(1) == 5 {
			poisonedCase.Store(e.Case)
			poisonedTask.Store(e.Task)
			panic("injected shard panic")
		}
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest across panic: %s", resp.Status)
	}
	if n := srv.metrics.shardPanics.Load(); n != 1 {
		t.Fatalf("shardPanics = %d, want 1", n)
	}

	matches, err := filepath.Glob(filepath.Join(dir, "flightrec-shard_panic-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("dump files %v (err %v), want exactly one", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Reason != "shard_panic" || len(dump.Events) == 0 {
		t.Fatalf("dump = reason %q, %d events", dump.Reason, len(dump.Events))
	}
	// The panic event is at (or near) the tail and names the poisoned
	// entry — that is what makes the dump a usable post-mortem.
	wantCase, wantTask := poisonedCase.Load().(string), poisonedTask.Load().(string)
	var found bool
	for _, ev := range dump.Events[max(0, len(dump.Events)-5):] {
		if ev.Kind == obs.FlightPanic {
			found = true
			if ev.Case != wantCase || !strings.Contains(ev.Detail, wantTask) ||
				!strings.Contains(ev.Detail, "injected shard panic") {
				t.Errorf("panic event = %+v, want case %q task %q", ev, wantCase, wantTask)
			}
		}
	}
	if !found {
		t.Errorf("no panic event in the dump tail: %+v", dump.Events)
	}
	if _, _, dumps := srv.flight.Stats(); dumps != 1 {
		t.Errorf("dumps = %d, want 1", dumps)
	}

	// The live view serves the same merged ring.
	code, body := getBody(t, ts.URL+"/debug/flightrecorder")
	if code != http.StatusOK || !strings.Contains(body, `"panic"`) {
		t.Errorf("/debug/flightrecorder = %d, missing panic event:\n%.400s", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestStatusEndpoint: /v1/status is the one-document operational view;
// its totals must agree with what the ingest actually did.
func TestStatusEndpoint(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 3)
	_, ts := startServer(t, sc, cfg)

	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	code, body := getBody(t, ts.URL+"/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var st statusReply
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Version == "" || st.GoVersion == "" || st.CompilerFingerprint == "" {
		t.Errorf("identity/readiness: %+v", st)
	}
	if st.Ingested != int64(sc.Trail.Len()) || st.Cases == 0 || st.Purposes == 0 {
		t.Errorf("totals: ingested %d cases %d purposes %d", st.Ingested, st.Cases, st.Purposes)
	}
	if got := st.Verdicts.Compliant + st.Verdicts.Violation + st.Verdicts.Indeterminate; got == 0 {
		t.Error("no verdicts counted")
	}
	if len(st.Shards) != 3 {
		t.Fatalf("%d shard rows, want 3", len(st.Shards))
	}
	cases := 0
	for _, sh := range st.Shards {
		cases += sh.Cases
		if sh.Pending != 0 {
			t.Errorf("shard %d still pending %d after ?wait=1", sh.ID, sh.Pending)
		}
	}
	if cases != st.Cases {
		t.Errorf("shard case rows sum to %d, status says %d", cases, st.Cases)
	}
	if st.WAL == nil || st.WAL.Records != uint64(sc.Trail.Len()) || st.WAL.Fsyncs == 0 {
		t.Errorf("wal status: %+v", st.WAL)
	}
	if st.StageSampleEvery != obs.DefaultStageSample {
		t.Errorf("stage_sample_every = %d, want default %d", st.StageSampleEvery, obs.DefaultStageSample)
	}
	if st.Flight.Total == 0 {
		t.Error("flight recorder saw no events across a full ingest")
	}
	if st.Watchers != 0 {
		t.Errorf("watchers = %d with no /v1/watch client", st.Watchers)
	}
}

// TestWatchSSE: a /v1/watch subscriber sees verdict transitions as SSE
// events while the trail streams in, each the same verdict event the
// flight recorder holds (case, outcome, WAL LSN, engine), and its
// subscription is reaped the moment the client disconnects.
func TestWatchSSE(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 2)
	srv, ts := startServer(t, sc, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	// The opening comment confirms the subscription is registered
	// before we ingest anything.
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, ":") {
		t.Fatalf("SSE preamble = %q, %v", line, err)
	}
	if n := srv.watch.count(); n != 1 {
		t.Fatalf("watchers = %d after subscribe", n)
	}

	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}

	// Read until the HT-10 violation transition arrives.
	type sse struct{ event, data string }
	deadline := time.AfterFunc(10*time.Second, cancel)
	defer deadline.Stop()
	type payload struct {
		Case    string `json:"case"`
		Purpose string `json:"purpose"`
		Outcome string `json:"outcome"`
		Detail  string `json:"detail"`
		Entries int    `json:"entries"`
		LSN     uint64 `json:"lsn"`
		Engine  string `json:"engine"`
	}
	var got *payload
	var raw string
	cur := sse{}
	for got == nil {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended early: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.event == "verdict":
			var ev payload
			if err := json.Unmarshal([]byte(cur.data), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", cur.data, err)
			}
			if ev.Case == "HT-10" {
				got, raw = &ev, cur.data
			}
			cur = sse{}
		case line == "":
			cur = sse{}
		}
	}
	if got.Outcome != outcomeViolation || got.Entries == 0 || got.Detail == "" ||
		got.Purpose == "" || got.LSN == 0 || got.Engine == "" {
		t.Errorf("HT-10 transition = %+v", got)
	}
	for _, key := range []string{"case", "purpose", "outcome", "detail", "entries", "shard", "time", "lsn", "engine"} {
		if !strings.Contains(raw, `"`+key+`":`) {
			t.Errorf("SSE payload lacks %q: %s", key, raw)
		}
	}
	// The stream and the flight ring carry one event, not two accounts.
	var flight *obs.Event
	for _, ev := range srv.flight.Snapshot() {
		if ev.Kind == obs.FlightVerdict && ev.Case == "HT-10" {
			flight = &ev
		}
	}
	if flight == nil || flight.Outcome != got.Outcome || flight.LSN != got.LSN || flight.Engine != got.Engine {
		t.Errorf("flight verdict event %+v disagrees with SSE %+v", flight, got)
	}

	// Disconnect: the hub must drop the subscription promptly.
	cancel()
	for end := time.Now().Add(5 * time.Second); srv.watch.count() != 0; {
		if time.Now().After(end) {
			t.Fatalf("watchers = %d after disconnect", srv.watch.count())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTracesFilters: ?trace_id= narrows /v1/traces to one trace,
// ?case= to one case's feed spans; Held/Total keep describing the
// whole ring so the filtered view is honest about what it omits.
func TestTracesFilters(t *testing.T) {
	sc := hospitalScenario(t)
	_, ts := startServer(t, sc, Config{Shards: 2})

	tracedPost := func(traceID, caseID string) {
		t.Helper()
		sub := sc.Trail.ByCase(caseID)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/events?wait=1", bytes.NewReader(ndjson(t, sub)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("traced ingest: %s", resp.Status)
		}
	}
	const traceA = "aaaa0000aaaa0000aaaa0000aaaa0000"
	const traceB = "bbbb1111bbbb1111bbbb1111bbbb1111"
	tracedPost(traceA, "HT-1")
	tracedPost(traceB, "HT-10")

	all := getTraces(t, ts.URL+"/v1/traces")
	byID := getTraces(t, ts.URL+"/v1/traces?trace_id="+traceA)
	if len(byID.Spans) == 0 || len(byID.Spans) >= len(all.Spans) {
		t.Fatalf("trace_id filter returned %d of %d spans", len(byID.Spans), len(all.Spans))
	}
	for _, sp := range byID.Spans {
		if sp.TraceID.String() != traceA {
			t.Errorf("span %q from trace %s leaked through the filter", sp.Name, sp.TraceID)
		}
	}
	if byID.Held != all.Held || byID.Total != all.Total {
		t.Errorf("filtered view changed ring stats: %d/%d vs %d/%d", byID.Held, byID.Total, all.Held, all.Total)
	}

	byCase := getTraces(t, ts.URL+"/v1/traces?case=HT-10")
	if len(byCase.Spans) == 0 {
		t.Fatal("case filter returned nothing")
	}
	for _, sp := range byCase.Spans {
		if sp.Attrs["case"] != "HT-10" {
			t.Errorf("span %q attrs %v leaked through case filter", sp.Name, sp.Attrs)
		}
	}

	if empty := getTraces(t, ts.URL+"/v1/traces?trace_id=cccc2222cccc2222cccc2222cccc2222"); len(empty.Spans) != 0 {
		t.Errorf("unknown trace id matched %d spans", len(empty.Spans))
	}
}

// TestBuildInfoMetric: the build-identity series is present with all
// three labels, value 1 (the standard build_info convention).
func TestBuildInfoMetric(t *testing.T) {
	sc := hospitalScenario(t)
	_, ts := startServer(t, sc, Config{Shards: 1})
	_, body := getBody(t, ts.URL+"/metrics")
	var line string
	for _, l := range strings.Split(body, "\n") {
		if strings.HasPrefix(l, "auditd_build_info{") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatal("no auditd_build_info series")
	}
	for _, want := range []string{`version="`, `go_version="go`, `compiler_fingerprint="`} {
		if !strings.Contains(line, want) {
			t.Errorf("build_info %q missing %q", line, want)
		}
	}
	if !strings.HasSuffix(line, " 1") {
		t.Errorf("build_info value: %q", line)
	}
	if !strings.Contains(body, "auditd_trace_spans_dropped_total 0") {
		t.Error("missing auditd_trace_spans_dropped_total")
	}
}

// TestQuarantineWarnSuppression: a poison stream that quarantines on
// every line must not produce a warn per line — past the burst the
// limiter suppresses and the metric counts what was dropped.
func TestQuarantineWarnSuppression(t *testing.T) {
	sc := hospitalScenario(t)
	srv, ts := startServer(t, sc, Config{Shards: 1})

	var buf bytes.Buffer
	if err := audit.WriteCSV(&buf, sc.Trail); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	garbage := strings.Repeat("garbage,row\n", 40)
	body := lines[0] + garbage + strings.Join(lines[1:], "")

	resp, res := post(t, ts.URL+"/v1/events?wait=1", "text/csv", []byte(body))
	if resp.StatusCode != http.StatusAccepted || res.Quarantined != 40 {
		t.Fatalf("poison ingest: %s %+v", resp.Status, res)
	}
	if n := srv.limQuar.Suppressed(); n == 0 {
		t.Error("40 quarantine warns and none suppressed: limiter not wired")
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, metrics, `auditd_log_suppressed_total{class="quarantine"}`); v == 0 {
		t.Error("suppression not exported")
	}
}

// TestWatchDropsCounted: a subscriber that never reads loses every
// verdict event, and the loss is exported rather than silent.
func TestWatchDropsCounted(t *testing.T) {
	sc := hospitalScenario(t)
	srv, ts := startServer(t, sc, Config{Shards: 2})
	id, _ := srv.watch.subscribe(0)
	defer srv.watch.unsubscribe(id)

	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	if n := metricValue(t, body, "auditd_watch_events_dropped_total"); n < 5 {
		t.Errorf("auditd_watch_events_dropped_total = %v, want >= 5 (one per Figure 4 infringement)", n)
	}
}

// blockingHandler is a slog handler whose "case violated" record
// blocks until release is closed, signalling entered first: a log sink
// stalled on slow I/O.
type blockingHandler struct {
	entered chan struct{}
	release chan struct{}
}

func (h *blockingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *blockingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *blockingHandler) WithGroup(string) slog.Handler            { return h }
func (h *blockingHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "case violated" {
		select {
		case h.entered <- struct{}{}:
		default:
		}
		<-h.release
	}
	return nil
}

// TestDeviationLogOutsideViewLock: a stalled log sink must not stall
// GET /v1/cases. The deviation warning is written after the shard
// releases its view lock, so a view read returns while the handler is
// still blocked.
func TestDeviationLogOutsideViewLock(t *testing.T) {
	sc := hospitalScenario(t)
	h := &blockingHandler{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, _ := startServer(t, sc, Config{Shards: 1, Logger: slog.New(h)})
	defer close(h.release)

	if n, ok := srv.IngestEntries(sc.Trail.ByCase("HT-10").View()); !ok {
		t.Fatalf("ingest accepted %d entries", n)
	}
	select {
	case <-h.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no deviation warning for HT-10")
	}
	read := make(chan CaseView, 1)
	go func() {
		v, _ := srv.shardFor("HT-10").view("HT-10")
		read <- v
	}()
	select {
	case v := <-read:
		if v.Outcome != outcomeViolation {
			t.Errorf("HT-10 outcome = %q while its warning is being logged", v.Outcome)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("view read blocked behind the deviation log")
	}
}

// TestTracesCaseFilterMatchesTransitions: a feed span covering several
// cases names none of them, but ?case= still finds it through the
// verdict transition event it carries.
func TestTracesCaseFilterMatchesTransitions(t *testing.T) {
	sc := hospitalScenario(t)
	_, ts := startServer(t, sc, Config{Shards: 1})
	var both []audit.Entry
	both = append(both, sc.Trail.ByCase("HT-1").View()...)
	both = append(both, sc.Trail.ByCase("HT-11").View()...)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/events?wait=1", bytes.NewReader(ndjson(t, audit.NewTrail(both))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("traceparent", "00-dddd3333dddd3333dddd3333dddd3333-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("traced ingest: %s", resp.Status)
	}
	byCase := getTraces(t, ts.URL+"/v1/traces?case=HT-11")
	if len(byCase.Spans) != 1 || byCase.Spans[0].Name != "feed" || byCase.Spans[0].Attrs["case"] != "" {
		t.Fatalf("?case=HT-11 matched %+v, want the one multi-case feed span", byCase.Spans)
	}
	if none := getTraces(t, ts.URL+"/v1/traces?case=HT-1"); len(none.Spans) != 0 {
		t.Errorf("?case=HT-1 (no transition, not the span's case) matched %d spans", len(none.Spans))
	}
}
