package server

// Observability-surface tests (DESIGN.md §12): the explain endpoint,
// trace propagation from a caller's traceparent into per-batch feed
// spans, the new metrics series, and explanation persistence across a
// checkpoint round trip.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/obs"
)

type explainReply struct {
	Case        string            `json:"case"`
	Outcome     string            `json:"outcome"`
	Explanation *core.Explanation `json:"explanation"`
}

func getExplain(t *testing.T, url string) (int, explainReply) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er explainReply
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, er
}

func TestExplainEndpoint(t *testing.T) {
	sc := hospitalScenario(t)
	_, ts := startServer(t, sc, Config{Shards: 4})

	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}

	// A violating case answers with the full structured account.
	code, er := getExplain(t, ts.URL+"/v1/cases/HT-10/explain")
	if code != http.StatusOK {
		t.Fatalf("explain HT-10 = %d", code)
	}
	x := er.Explanation
	if er.Outcome != outcomeViolation || x == nil {
		t.Fatalf("explain HT-10 = %+v", er)
	}
	if x.Task != "T06" || x.EntryIndex != 0 {
		t.Errorf("diverging entry: task %q index %d, want T06/0", x.Task, x.EntryIndex)
	}
	if len(x.ExpectedTasks) != 1 || x.ExpectedTasks[0] != "T01" {
		t.Errorf("expected tasks %v, want [T01]", x.ExpectedTasks)
	}
	if x.NearestMiss == "" || x.Reason == "" {
		t.Errorf("incomplete explanation: %+v", x)
	}

	// A compliant case exists but has nothing to explain.
	code, er = getExplain(t, ts.URL+"/v1/cases/HT-1/explain")
	if code != http.StatusOK || er.Outcome != outcomeCompliant || er.Explanation != nil {
		t.Errorf("explain HT-1 = %d %+v", code, er)
	}

	// An unmonitored case is a 404, like /v1/cases/{id}.
	if code, _ := getExplain(t, ts.URL+"/v1/cases/NO-99/explain"); code != http.StatusNotFound {
		t.Errorf("explain NO-99 = %d, want 404", code)
	}

	// The case view itself carries engine and explanation too.
	_, body := getBody(t, ts.URL+"/v1/cases/HT-10")
	if !strings.Contains(body, `"engine": "interpreted"`) || !strings.Contains(body, `"explanation"`) {
		t.Errorf("case view lacks engine/explanation:\n%s", body)
	}
}

type traceReply struct {
	Held  int        `json:"held"`
	Total uint64     `json:"total"`
	Spans []obs.Span `json:"spans"`
}

func getTraces(t *testing.T, url string) traceReply {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s", url, resp.Status)
	}
	var tr traceReply
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceparentPropagation: an ingest carrying W3C trace context
// produces one ingest span and one feed span per batch, both in the
// caller's trace; the feed span carries the batch's stage breakdown
// and its verdict transition as span events. An untraced ingest
// records nothing.
func TestTraceparentPropagation(t *testing.T) {
	sc := hospitalScenario(t)
	_, ts := startServer(t, sc, Config{Shards: 4})

	// Untraced bulk load of every other case first: the ring must stay
	// empty, and HT-10 is still compliant for the traced ingest.
	var rest []audit.Entry
	for _, e := range sc.Trail.View() {
		if e.Case != "HT-10" {
			rest = append(rest, e)
		}
	}
	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, audit.NewTrail(rest))); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	if tr := getTraces(t, ts.URL+"/v1/traces"); tr.Total != 0 {
		t.Fatalf("untraced ingest recorded %d spans", tr.Total)
	}

	// Traced ingest of HT-10's entries: one batch on one shard.
	sub := sc.Trail.ByCase("HT-10")
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/events?wait=1",
		bytes.NewReader(ndjson(t, sub)))
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

	tr := getTraces(t, ts.URL+"/v1/traces")
	var ingests, feeds int
	for _, sp := range tr.Spans {
		if sp.TraceID.String() != traceID {
			t.Errorf("span %q left the caller's trace: %s", sp.Name, sp.TraceID)
		}
		switch sp.Name {
		case "ingest":
			ingests++
			if sp.Attrs["accepted"] != fmt.Sprint(sub.Len()) {
				t.Errorf("ingest span attrs: %v", sp.Attrs)
			}
		case "feed":
			feeds++
			if sp.Attrs["case"] != "HT-10" || sp.Attrs["entries"] != fmt.Sprint(sub.Len()) {
				t.Errorf("feed span attrs: %v", sp.Attrs)
			}
			// One event per stage plus the case's one transition.
			if len(sp.Events) != int(obs.NumStages)+1 {
				t.Errorf("feed span has %d events, want %d: %+v", len(sp.Events), obs.NumStages+1, sp.Events)
			}
			var transitions int
			for _, ev := range sp.Events {
				if ev.Name == "transition" {
					transitions++
					if ev.Attrs["case"] != "HT-10" || ev.Attrs["outcome"] != outcomeViolation || ev.Attrs["lsn"] == "" {
						t.Errorf("transition event attrs: %v", ev.Attrs)
					}
				}
			}
			if transitions != 1 {
				t.Errorf("feed span has %d transition events, want 1", transitions)
			}
		}
	}
	if ingests != 1 || feeds != 1 || tr.Held != 2 {
		t.Errorf("%d ingest + %d feed spans (%d held), want 1 + 1 (2 held)", ingests, feeds, tr.Held)
	}
}

// TestObservabilityMetrics: the PR 5 series — per-purpose verdicts,
// engine counters, span gauges, Go runtime gauges — are present, and a
// compiled checker reports engine=compiled with symbol-cache traffic.
func TestObservabilityMetrics(t *testing.T) {
	sc := hospitalScenario(t)
	checker := hospitalChecker(sc)
	checker.UseCompiled = true
	srv := newServer(t, sc.Registry, checker, Config{Shards: 2})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, series := range []string{
		`auditd_purpose_verdicts_total{purpose="HealthcareTreatment",outcome="violation"}`,
		`auditd_purpose_verdicts_total{purpose="HealthcareTreatment",outcome="compliant"}`,
		`auditd_feed_engine_total{engine="compiled"}`,
		`auditd_feed_engine_total{engine="interpreted"}`,
		"auditd_symbol_cache_hits_total",
		"auditd_symbol_cache_hit_ratio",
		"auditd_trace_spans_held 0",
		"auditd_trace_spans_total 0",
		"auditd_quarantine_held 0",
		"auditd_go_goroutines",
		"auditd_go_heap_alloc_bytes",
		"auditd_go_gc_cycles_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
	// The hospital purposes compile, so the compiled engine must have
	// consumed entries and hit its symbol cache.
	if strings.Contains(body, `auditd_feed_engine_total{engine="compiled"} 0`) {
		t.Error("compiled checker fed no entries on the compiled engine")
	}
	if strings.Contains(body, "auditd_symbol_cache_hits_total 0\n") {
		t.Error("symbol cache never hit across the Figure 4 trail")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointPersistsExplanation: a dead case's explanation survives
// shutdown, restore, and a different shard layout.
func TestCheckpointPersistsExplanation(t *testing.T) {
	sc := hospitalScenario(t)
	path := filepath.Join(t.TempDir(), "ckpt.json")

	srv1, ts1 := startServer(t, sc, Config{Shards: 3, CheckpointPath: path})
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	srv2, ts2 := startServer(t, sc, Config{Shards: 5, CheckpointPath: path})
	code, er := getExplain(t, ts2.URL+"/v1/cases/HT-10/explain")
	if code != http.StatusOK || er.Explanation == nil || er.Explanation.Task != "T06" {
		t.Fatalf("explanation lost across checkpoint: %d %+v", code, er)
	}
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
