package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/hospital"
)

// hospitalScenario builds the paper's running example once per test.
func hospitalScenario(t *testing.T) *hospital.Scenario {
	t.Helper()
	sc, err := hospital.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func hospitalChecker(sc *hospital.Scenario) *core.Checker {
	return core.NewChecker(sc.Registry, sc.Policy.Roles)
}

// expectedOutcomes runs the offline checker over the trail — the ground
// truth the streaming server must reproduce exactly.
func expectedOutcomes(t *testing.T, sc *hospital.Scenario, trail *audit.Trail) map[string]string {
	t.Helper()
	reports, err := hospitalChecker(sc).CheckTrail(trail)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, rep := range reports {
		want[rep.Case] = rep.Outcome.String()
	}
	return want
}

func ndjson(t *testing.T, trail *audit.Trail) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := audit.WriteJSONL(&buf, trail); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newServer is New with flight-recorder dumps going to the test's
// temporary directory, so a test that trips one leaves nothing behind.
func newServer(t *testing.T, reg *core.Registry, checker *core.Checker, cfg Config) *Server {
	if cfg.FlightDir == "" {
		cfg.FlightDir = t.TempDir()
	}
	return New(reg, checker, cfg)
}

func startServer(t *testing.T, sc *hospital.Scenario, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := newServer(t, sc.Registry, hospitalChecker(sc), cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url, contentType string, body []byte) (*http.Response, ingestResult) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res ingestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding ingest response: %v", err)
	}
	return resp, res
}

type caseList struct {
	Cases []CaseView `json:"cases"`
	Total int        `json:"total"`
}

func getCases(t *testing.T, url string) caseList {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	var cl caseList
	if err := json.NewDecoder(resp.Body).Decode(&cl); err != nil {
		t.Fatal(err)
	}
	return cl
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// assertOutcomes compares the server's case views against the offline
// ground truth.
func assertOutcomes(t *testing.T, got caseList, want map[string]string) {
	t.Helper()
	if got.Total != len(want) {
		t.Errorf("server monitors %d cases, checker saw %d", got.Total, len(want))
	}
	for _, v := range got.Cases {
		if w, ok := want[v.Case]; !ok {
			t.Errorf("case %s: not in offline reports", v.Case)
		} else if v.Outcome != w {
			t.Errorf("case %s: server says %s, offline checker says %s", v.Case, v.Outcome, w)
		}
	}
}

// TestIngestMatchesOfflineChecker streams the Figure 4 trail as one
// NDJSON body and checks the live verdicts against CheckTrail: same
// cases, same tri-state outcomes, including the five known
// infringements.
func TestIngestMatchesOfflineChecker(t *testing.T) {
	sc := hospitalScenario(t)
	_, ts := startServer(t, sc, Config{Shards: 8})

	resp, res := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	if res.Accepted != sc.Trail.Len() || res.Quarantined != 0 {
		t.Fatalf("ingest result = %+v, want %d accepted", res, sc.Trail.Len())
	}

	want := expectedOutcomes(t, sc, sc.Trail)
	got := getCases(t, ts.URL+"/v1/cases")
	assertOutcomes(t, got, want)

	violations := getCases(t, ts.URL+"/v1/cases?outcome=violation")
	if violations.Total != 5 {
		t.Errorf("violations = %d, want the paper's 5 infringing cases", violations.Total)
	}
	for _, v := range violations.Cases {
		if v.Violation == "" {
			t.Errorf("case %s: violation outcome without diagnosis", v.Case)
		}
	}

	// Single-case endpoint, hit and miss.
	if code, _ := getBody(t, ts.URL+"/v1/cases/HT-10"); code != http.StatusOK {
		t.Errorf("GET /v1/cases/HT-10 = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/cases/NO-99"); code != http.StatusNotFound {
		t.Errorf("GET /v1/cases/NO-99 = %d, want 404", code)
	}

	// Purposes report case counts that sum to the case total.
	code, body := getBody(t, ts.URL+"/v1/purposes")
	if code != http.StatusOK || !strings.Contains(body, "Treatment") {
		t.Errorf("GET /v1/purposes = %d %q", code, body)
	}
}

// TestConcurrentShardedIngest posts each case's entries from its own
// goroutine (per-case order preserved, cases racing each other) across
// 8 shards and requires verdicts identical to the single-threaded
// checker. Run under -race this is the sharding-contract test at the
// HTTP layer.
func TestConcurrentShardedIngest(t *testing.T) {
	sc := hospitalScenario(t)
	srv, ts := startServer(t, sc, Config{Shards: 8, QueueDepth: 4096})

	var wg sync.WaitGroup
	for _, caseID := range sc.Trail.Cases() {
		sub := sc.Trail.ByCase(caseID)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Several small posts per case: entries of one case must
			// stay ordered even across requests.
			entries := sub.Entries()
			for i := 0; i < len(entries); i += 3 {
				end := i + 3
				if end > len(entries) {
					end = len(entries)
				}
				var buf bytes.Buffer
				for _, e := range entries[i:end] {
					if err := audit.AppendJSONL(&buf, e); err != nil {
						t.Error(err)
						return
					}
				}
				resp, err := http.Post(ts.URL+"/v1/events", "application/x-ndjson", &buf)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("case %s chunk at %d: %s", caseID, i, resp.Status)
					return
				}
			}
		}()
	}
	wg.Wait()
	srv.Flush()

	assertOutcomes(t, getCases(t, ts.URL+"/v1/cases"), expectedOutcomes(t, sc, sc.Trail))
}

// TestPooledScannersConcurrentIngest posts NDJSON bodies that mix
// clean, slow-path and quarantined lines from several goroutines at
// once, so pooled request scanners pass between requests mid-stream
// (run under -race). Every response must count what a fresh scanner
// counts on the same body: no position, quarantine record or memo of
// one request may leak into another's.
func TestPooledScannersConcurrentIngest(t *testing.T) {
	sc := hospitalScenario(t)
	srv, ts := startServer(t, sc, Config{Shards: 4, QueueDepth: 1 << 16})
	defer srv.Shutdown(context.Background())
	clean := bytes.SplitAfter(ndjson(t, sc.Trail), []byte("\n"))
	clean = clean[:len(clean)-1] // the empty tail after the last newline
	bad := []string{"not json\n", "{\"user\":\n", "\n", "{\"user\":\"u\",\"time\":\"yesterday\"}\n"}
	body := func(k int) []byte {
		var b bytes.Buffer
		repeat := 1
		if k%6 == 0 {
			repeat = 30 // past the scanner's 64 KiB read window
		}
		for r := 0; r < repeat; r++ {
			for i, line := range clean {
				if (k+i)%5 == 0 {
					b.WriteString(bad[(k+i)%len(bad)])
				}
				if (k+i)%7 == 0 {
					// An escape sends the line down the slow path.
					line = bytes.Replace(line, []byte(`"success"`), []byte(`"succ\u0065ss"`), 1)
				}
				b.Write(line)
			}
		}
		return b.Bytes()
	}
	type counts struct{ accepted, quarantined, rejectedAt int }
	fresh := func(doc []byte) counts {
		s := audit.NewEntryScanner(bytes.NewReader(doc), audit.DecodeOptions{Lenient: true})
		var c counts
		for s.Scan() {
			c.accepted++
		}
		if err := s.Err(); err != nil {
			t.Error(err)
		}
		c.quarantined = len(s.Quarantine().Records)
		return c
	}

	const workers, posts = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < posts; p++ {
				k := w*posts + p
				doc := body(k)
				want := fresh(doc)
				resp, err := http.Post(ts.URL+"/v1/events", "application/x-ndjson", bytes.NewReader(doc))
				if err != nil {
					t.Error(err)
					return
				}
				var res ingestResult
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("body %d: %s (%v)", k, resp.Status, err)
					return
				}
				if got := (counts{res.Accepted, res.Quarantined, res.RejectedAtLine}); got != want {
					t.Errorf("body %d: response counts %+v, a fresh scanner counts %+v", k, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestBackpressure saturates a 1-deep single shard (workers not
// started, so nothing drains) and checks the 429 contract: Retry-After
// set, RejectedAtLine pointing at the first unaccepted line.
func TestBackpressure(t *testing.T) {
	sc := hospitalScenario(t)
	srv := newServer(t, sc.Registry, hospitalChecker(sc), Config{Shards: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, res := post(t, ts.URL+"/v1/events", "application/x-ndjson", ndjson(t, sc.Trail))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if res.Accepted != 1 || res.RejectedAtLine != 2 {
		t.Errorf("result = %+v, want 1 accepted, rejected at line 2", res)
	}
	if n := srv.metrics.eventsRejected.Load(); n == 0 {
		t.Error("rejected counter did not move")
	}
}

// TestCheckpointRoundTrip snapshots mid-trail via Shutdown, restarts on
// the same file with a different shard count, streams the tail, and
// requires final verdicts identical to an uninterrupted run — including
// the dead (violating) cases and the persisted quarantine.
func TestCheckpointRoundTrip(t *testing.T) {
	sc := hospitalScenario(t)
	path := filepath.Join(t.TempDir(), "ckpt.json")

	cut := sc.Trail.Len() / 2
	head := audit.NewTrail(sc.Trail.Entries()[:cut])
	tail := audit.NewTrail(sc.Trail.Entries()[cut:])

	// Phase 1: ingest the head (plus one malformed line for the
	// quarantine), then drain and snapshot.
	srv1, ts1 := startServer(t, sc, Config{Shards: 4, CheckpointPath: path})
	body := append([]byte("this is not json\n"), ndjson(t, head)...)
	resp, res := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", body)
	if resp.StatusCode != http.StatusAccepted || res.Accepted != cut || res.Quarantined != 1 {
		t.Fatalf("head ingest: %s %+v", resp.Status, res)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts1.Close()

	// A drained server refuses further ingest.
	resp2, err := http.Post(ts1.URL+"/v1/events", "application/x-ndjson", strings.NewReader(""))
	if err == nil {
		resp2.Body.Close()
		t.Fatal("closed test server still accepted a request")
	}

	// Phase 2: restore into a different shard layout and stream the
	// tail.
	srv2, ts2 := startServer(t, sc, Config{Shards: 7, CheckpointPath: path})
	resp, res = post(t, ts2.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, tail))
	if resp.StatusCode != http.StatusAccepted || res.Accepted != sc.Trail.Len()-cut {
		t.Fatalf("tail ingest: %s %+v", resp.Status, res)
	}

	want := expectedOutcomes(t, sc, sc.Trail)
	got := getCases(t, ts2.URL+"/v1/cases")
	assertOutcomes(t, got, want)
	// Per-case entry counts must also survive the restart (resumed, not
	// restarted, analyses).
	for _, v := range got.Cases {
		if n := sc.Trail.ByCase(v.Case).Len(); v.Entries != n {
			t.Errorf("case %s: %d entries after restore+tail, want %d", v.Case, v.Entries, n)
		}
	}

	// The quarantined line from phase 1 survived the restart.
	code, qbody := getBody(t, ts2.URL+"/v1/quarantine")
	if code != http.StatusOK || !strings.Contains(qbody, "this is not json") {
		t.Errorf("quarantine after restore = %d %q", code, qbody)
	}

	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestCheckpointRejectsCorruption requires Start to fail loudly, never
// boot empty, when the checkpoint file is not a complete JSON
// checkpoint: a truncated write, or the flat binary container
// ("\x89PCB" magic) that older builds wrote under -binary-checkpoint.
func TestCheckpointRejectsCorruption(t *testing.T) {
	sc := hospitalScenario(t)
	path := filepath.Join(t.TempDir(), "ckpt.json")

	srv1, ts1 := startServer(t, sc, Config{Shards: 2, CheckpointPath: path})
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, data, wantErr string
	}{
		{"truncated", string(img[:len(img)/2]), "decoding checkpoint"},
		{"binary-container", "\x89PCB\r\n\x1a\n\x01\x00\x00\x00\x02\x00\x00\x00" + string(img), "retired binary format"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			srv := newServer(t, sc.Registry, hospitalChecker(sc), Config{Shards: 2, CheckpointPath: path})
			err := srv.Start()
			if err == nil {
				srv.Shutdown(ctx)
				t.Fatal("corrupt checkpoint restored without error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Start error %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunningCheckpointConsistency takes a live checkpoint through the
// shard queues (no drain) and checks the file restores into a server
// that, given the tail, still matches the offline checker.
func TestRunningCheckpointConsistency(t *testing.T) {
	sc := hospitalScenario(t)
	path := filepath.Join(t.TempDir(), "ckpt.json")

	cut := 2 * sc.Trail.Len() / 3
	head := audit.NewTrail(sc.Trail.Entries()[:cut])
	tail := audit.NewTrail(sc.Trail.Entries()[cut:])

	srv1, ts1 := startServer(t, sc, Config{Shards: 3, CheckpointPath: path, CheckpointEvery: time.Hour})
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, head)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("head ingest: %s", resp.Status)
	}
	if err := srv1.checkpointRunning(); err != nil {
		t.Fatalf("live checkpoint: %v", err)
	}
	// srv1 keeps running; the snapshot must still be a complete cut.
	srv2, ts2 := startServer(t, sc, Config{Shards: 8, CheckpointPath: path})
	if resp, _ := post(t, ts2.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, tail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tail ingest: %s", resp.Status)
	}
	assertOutcomes(t, getCases(t, ts2.URL+"/v1/cases"), expectedOutcomes(t, sc, sc.Trail))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// srv2 has no pending work either; shut it down on a fresh path so
	// its final snapshot does not clobber anything under test.
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLenientCSVIngest posts the Figure 4 trail as CSV with a corrupted
// row: the row lands in quarantine, everything else is checked.
func TestLenientCSVIngest(t *testing.T) {
	sc := hospitalScenario(t)
	_, ts := startServer(t, sc, Config{Shards: 2})

	var buf bytes.Buffer
	if err := audit.WriteCSV(&buf, sc.Trail); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	lines[3] = "garbage,row\n"
	body := strings.Join(lines, "")

	resp, res := post(t, ts.URL+"/v1/events?wait=1", "text/csv", []byte(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("csv ingest: %s", resp.Status)
	}
	if res.Accepted != sc.Trail.Len()-1 || res.Quarantined != 1 {
		t.Fatalf("csv ingest result = %+v", res)
	}

	code, qbody := getBody(t, ts.URL+"/v1/quarantine")
	if code != http.StatusOK || !strings.Contains(qbody, "garbage") {
		t.Errorf("quarantine = %d %q", code, qbody)
	}
}

// TestMetricsAndHealth checks the Prometheus text surface and the
// liveness/readiness lifecycle.
func TestMetricsAndHealth(t *testing.T) {
	sc := hospitalScenario(t)
	srv := newServer(t, sc.Registry, hospitalChecker(sc), Config{Shards: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Not started yet: alive but not ready.
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz before start = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz before start = %d, want 503", code)
	}

	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("readyz after start = %d", code)
	}

	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, series := range []string{
		fmt.Sprintf("auditd_events_ingested_total %d", sc.Trail.Len()),
		"auditd_events_rejected_total 0",
		"auditd_events_quarantined_total 0",
		"auditd_verdicts_total{outcome=\"violation\"}",
		"auditd_verdicts_total{outcome=\"compliant\"}",
		"auditd_shard_queue_depth{shard=\"0\"}",
		"auditd_shard_queue_depth{shard=\"1\"}",
		"auditd_cases 8",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Draining/stopped: readyz 503 and ingest refused with 503.
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after shutdown = %d, want 503", code)
	}
	resp, err := http.Post(ts.URL+"/v1/events", "application/x-ndjson", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest after shutdown = %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain 503 without Retry-After")
	}
}

// TestBodyBoundEnforced: an ingest body is read up to 32 MiB and no
// further. The entries before the bound stand; the request is refused
// with 400 naming the bound.
func TestBodyBoundEnforced(t *testing.T) {
	sc := hospitalScenario(t)
	srv, ts := startServer(t, sc, Config{Shards: 2})
	defer srv.Shutdown(context.Background())
	body := append(ndjson(t, sc.Trail), bytes.Repeat([]byte("\n"), 32<<20)...)
	resp, res := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(res.Error, "too large") || res.Accepted != sc.Trail.Len() {
		t.Errorf("body past the bound: %s %+v", resp.Status, res)
	}
}
