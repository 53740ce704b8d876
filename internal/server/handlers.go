package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"mime"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
)

// HTTP surface:
//
//	POST /v1/events              NDJSON (default) or text/csv entry stream;
//	                             honors a W3C traceparent header
//	GET  /v1/cases               all case verdicts; ?outcome=, ?purpose=, ?since=
//	GET  /v1/cases/{id}          one case
//	GET  /v1/cases/{id}/explain  structured explanation of the first deviation
//	GET  /v1/traces              recent spans from the in-memory ring buffer;
//	                             ?trace_id=, ?case= filters
//	GET  /v1/purposes            registered purposes
//	GET  /v1/quarantine          malformed lines set aside by lenient ingestion
//	GET  /v1/proofs/{id}         verdict + Merkle inclusion proof for one case
//	GET  /v1/roots               signed ledger root chain and tree head;
//	                             ?since=N adds the consistency proof from size N
//	GET  /v1/status              deep operational state (per-shard queues, WAL,
//	                             ledger, flight recorder) — purposectl top's feed
//	GET  /v1/watch               SSE stream of verdict transitions; ?outcome=
//	GET  /debug/flightrecorder   live flight-recorder event snapshot
//	GET  /metrics                Prometheus text exposition
//	GET  /healthz                process liveness
//	GET  /readyz                 ready to ingest (503 while starting/draining)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/cases", s.handleCases)
	s.mux.HandleFunc("GET /v1/cases/{id}", s.handleCase)
	s.mux.HandleFunc("GET /v1/cases/{id}/explain", s.handleExplain)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/purposes", s.handlePurposes)
	s.mux.HandleFunc("GET /v1/quarantine", s.handleQuarantine)
	s.mux.HandleFunc("GET /v1/proofs/{id}", s.handleProof)
	s.mux.HandleFunc("GET /v1/roots", s.handleRoots)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/watch", s.handleWatch)
	s.mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writeMetrics(w)
	})
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
}

// readyStatus is the GET /readyz body. Status is "ready", "degraded"
// (serving, but with failed shards or a shed WAL — details attached)
// or "not_ready" (starting, draining, or wedged by WAL fail-stop).
type readyStatus struct {
	Status        string `json:"status"`
	FailedShards  []int  `json:"failed_shards,omitempty"`
	ShardRestarts int64  `json:"shard_restarts,omitempty"`
	WAL           string `json:"wal,omitempty"` // "ok" | "failed" (omitted when no WAL)
}

// handleReadyz reports readiness with supervision detail. Fail-stop
// WAL failure answers 503 (the node must be pulled: it refuses all
// ingest); failed shards or a shed WAL degrade the body but keep 200,
// since the node still serves queries and the surviving shards ingest.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := readyStatus{Status: "ready"}
	var restarts int64
	for _, sh := range s.shards {
		restarts += sh.restarts.Load()
		if sh.failed.Load() {
			st.FailedShards = append(st.FailedShards, sh.id)
		}
	}
	st.ShardRestarts = restarts
	if s.wal != nil {
		st.WAL = "ok"
		if s.walBroken() {
			st.WAL = "failed"
		}
	}
	switch {
	case !s.isReady():
		st.Status = "not_ready"
		writeJSON(w, http.StatusServiceUnavailable, st)
	case s.walRefusing():
		st.Status = "not_ready"
		writeJSON(w, http.StatusServiceUnavailable, st)
	case len(st.FailedShards) > 0 || st.WAL == "failed":
		st.Status = "degraded"
		writeJSON(w, http.StatusOK, st)
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

// retryAfterSeconds derives the Retry-After hint from queue occupancy
// plus jitter, so clients synchronized by a shared saturation event
// don't come back in lockstep. A draining server suggests a longer
// wait (restart plus drain outlasts a quick retry); a saturated one
// scales the hint with its fullest shard — a nearly-drained queue
// invites a fast retry, a packed one backs clients off harder.
func (s *Server) retryAfterSeconds(draining bool) int {
	if draining {
		return 3 + rand.IntN(4) // 3-6s
	}
	var worst float64
	for _, sh := range s.shards {
		if o := float64(sh.pendingEntries()) / float64(sh.depth); o > worst {
			worst = o
		}
	}
	base := 1 + int(worst*3+0.5) // 1..4s with occupancy
	return base + rand.IntN(base+1)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ingestResult is the POST /v1/events response body.
type ingestResult struct {
	// Accepted entries were enqueued to a shard (not necessarily fed
	// yet unless ?wait=1).
	Accepted int `json:"accepted"`
	// Quarantined lines were malformed and set aside.
	Quarantined int `json:"quarantined"`
	// RejectedAtLine is set on 429: the 1-based body line at which a
	// saturated shard stopped the ingest. Everything before it (minus
	// quarantined lines) was accepted; resend from here.
	RejectedAtLine int    `json:"rejected_at_line,omitempty"`
	Error          string `json:"error,omitempty"`
}

// maxBodyBytes bounds one POST /v1/events body.
const maxBodyBytes = 32 << 20

// handleEvents ingests an entry stream. NDJSON bodies are consumed
// line-at-a-time so backpressure stops the read exactly at the
// rejected line; CSV bodies (Content-Type: text/csv) are decoded as a
// batch first (the CSV reader needs the header) and then enqueued with
// the same backpressure contract. Malformed lines land in the
// quarantine in both modes — lenient ingestion, not rejection.
//
// When the request carries a valid W3C traceparent header, the ingest
// is recorded as a span in the caller's trace and every batch's feed
// becomes a child span of it; untraced requests record nothing.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.walRefusing() {
		writeJSON(w, http.StatusServiceUnavailable, ingestResult{
			Error: "write-ahead log failed; ingest disabled (fail-stop)",
		})
		return
	}
	if !s.accepting() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(true)))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.ingestWG.Done()

	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	wait := r.URL.Query().Get("wait") != ""

	var span *obs.ActiveSpan
	var spanCtx obs.SpanContext
	if tp := r.Header.Get("traceparent"); tp != "" {
		if parent, err := obs.ParseTraceparent(tp); err == nil {
			span = s.tracer.StartSpan(parent, "ingest")
			span.SetAttr("format", ct)
			spanCtx = span.Context()
		}
	}

	var res ingestResult
	var full bool
	if ct == "text/csv" {
		res, full = s.ingestCSV(r, body, spanCtx)
	} else {
		res, full = s.ingestNDJSON(r, body, spanCtx)
	}

	if span != nil {
		span.SetAttr("accepted", strconv.Itoa(res.Accepted))
		span.SetAttr("quarantined", strconv.Itoa(res.Quarantined))
		if full {
			span.SetAttr("backpressure", "true")
		}
		span.End()
	}

	if wait {
		s.Flush()
	}
	switch {
	case full && s.walBroken():
		// The rejection wasn't backpressure: the WAL refused the write.
		// 503 (not 429) with the resume line, so a client can still
		// resend exactly the unaccepted tail elsewhere or later.
		if res.Error == "" {
			res.Error = "write-ahead log append failed"
		}
		writeJSON(w, http.StatusServiceUnavailable, res)
	case full:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(false)))
		writeJSON(w, http.StatusTooManyRequests, res)
	case res.Error != "":
		writeJSON(w, http.StatusBadRequest, res)
	default:
		writeJSON(w, http.StatusAccepted, res)
	}
}

// scannerPool recycles the NDJSON request scanners, so a POST neither
// allocates a fresh read buffer nor starts with cold intern tables.
var scannerPool = sync.Pool{New: func() any {
	return audit.NewEntryScanner(nil, audit.DecodeOptions{Lenient: true})
}}

// ingestNDJSON consumes one JSON entry per line through a pooled
// zero-allocation scanner, grouping consecutive same-shard runs into
// batched dispatches. The pending batch is flushed whenever the
// scanner is about to block on the socket, so live trickle streams
// keep per-entry latency.
func (s *Server) ingestNDJSON(r *http.Request, body io.Reader, spanCtx obs.SpanContext) (ingestResult, bool) {
	var res ingestResult
	sc := scannerPool.Get().(*audit.EntryScanner)
	sc.Reset(body)
	defer func() {
		sc.Reset(nil)
		scannerPool.Put(sc)
	}()
	b := s.newBatcher(spanCtx)
	qseen := 0
	drain := func() {
		recs := sc.Quarantine().Records
		for ; qseen < len(recs); qseen++ {
			rec := recs[qseen]
			s.quarantineLine(r, rec.Line, strings.TrimSpace(rec.Raw), rec.Err)
			res.Quarantined++
		}
	}
	reject := func() (ingestResult, bool) {
		drain()
		res.Accepted = b.accepted
		res.RejectedAtLine = b.rejectedLine
		return res, true
	}
	for sc.Scan() {
		if !b.add(*sc.Entry(), sc.Line()) {
			return reject()
		}
		if !sc.Buffered() && !b.flush() {
			return reject()
		}
	}
	if !b.flush() {
		return reject()
	}
	drain()
	res.Accepted = b.accepted
	if err := sc.Err(); err != nil {
		res.Error = err.Error()
	}
	return res, false
}

// ingestCSV decodes a Figure 4 CSV body leniently, then enqueues
// through the same batcher as NDJSON.
func (s *Server) ingestCSV(r *http.Request, body io.Reader, spanCtx obs.SpanContext) (ingestResult, bool) {
	var res ingestResult
	entries, q, err := audit.DecodeCSVEntries(body, audit.DecodeOptions{Lenient: true})
	if err != nil {
		res.Error = err.Error()
		return res, false
	}
	for _, rec := range q.Records {
		s.quarantineLine(r, rec.Line, rec.Raw, rec.Err)
		res.Quarantined++
	}
	b := s.newBatcher(spanCtx)
	reject := func() (ingestResult, bool) {
		res.Accepted = b.accepted
		res.RejectedAtLine = b.rejectedLine
		return res, true
	}
	for i, e := range entries {
		// +2: CSV data starts at body line 2 (header is line 1).
		if !b.add(e, i+2) {
			return reject()
		}
	}
	if !b.flush() {
		return reject()
	}
	res.Accepted = b.accepted
	return res, false
}

func (s *Server) quarantineLine(r *http.Request, line int, raw string, err error) {
	s.metrics.eventsQuarantined.Add(1)
	s.quar.add(r.RemoteAddr, line, raw, err, time.Now())
	// Rate-limited: a body that's garbage on every line must not turn
	// the log into a copy of the body.
	if ok, suppressed := s.limQuar.Allow(); ok {
		args := []any{"line", line, "err", err, "remote", r.RemoteAddr}
		if suppressed > 0 {
			args = append(args, "suppressed", suppressed)
		}
		s.log.Warn("line quarantined", args...)
	}
}

// handleCases lists case verdicts, optionally filtered by ?outcome=
// (compliant|violation|indeterminate), ?purpose=, and ?since= (cases
// whose verdict state changed at or after the given time, paper layout
// or RFC 3339 — for incremental polling).
func (s *Server) handleCases(w http.ResponseWriter, r *http.Request) {
	outcome := r.URL.Query().Get("outcome")
	purpose := r.URL.Query().Get("purpose")
	var since time.Time
	if v := r.URL.Query().Get("since"); v != "" {
		t, err := cli.ParseTime(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		since = t
	}
	accept := func(v *CaseView) bool {
		if outcome != "" && v.Outcome != outcome {
			return false
		}
		if purpose != "" && v.Purpose != purpose {
			return false
		}
		if !since.IsZero() && v.Updated.Before(since) {
			return false
		}
		return true
	}
	var views []CaseView
	for _, sh := range s.shards {
		views = sh.collectViews(views, accept)
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Case < views[j].Case })
	writeJSON(w, http.StatusOK, struct {
		Cases []CaseView `json:"cases"`
		Total int        `json:"total"`
	}{Cases: views, Total: len(views)})
}

func (s *Server) handleCase(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.shardFor(id).view(id)
	if !ok {
		http.Error(w, fmt.Sprintf("case %q not monitored", id), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleExplain returns the structured account of a case's first
// deviation. Compliant cases answer with a null explanation — the case
// exists but there is nothing to explain yet.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.shardFor(id).view(id)
	if !ok {
		http.Error(w, fmt.Sprintf("case %q not monitored", id), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Case        string            `json:"case"`
		Outcome     string            `json:"outcome"`
		Explanation *core.Explanation `json:"explanation"`
	}{Case: v.Case, Outcome: v.Outcome, Explanation: v.Explanation})
}

// handleTraces dumps the span ring, oldest-first. ?trace_id= narrows
// to one trace; ?case= to spans whose case attribute, or one of whose
// events' (a feed span's verdict transitions), names that case.
// Held/Total/Dropped always describe the whole ring, so a filtered
// read still shows whether eviction may have eaten matching spans.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traceID := r.URL.Query().Get("trace_id")
	caseID := r.URL.Query().Get("case")
	spans := s.ring.Snapshot()
	if traceID != "" || caseID != "" {
		filtered := make([]obs.Span, 0, len(spans))
		for _, sp := range spans {
			if traceID != "" && sp.TraceID.String() != traceID {
				continue
			}
			if caseID != "" && !spanNamesCase(sp, caseID) {
				continue
			}
			filtered = append(filtered, sp)
		}
		spans = filtered
	}
	held, total := s.ring.Stats()
	writeJSON(w, http.StatusOK, struct {
		Held    int        `json:"held"`
		Total   uint64     `json:"total"`
		Dropped uint64     `json:"dropped"`
		Spans   []obs.Span `json:"spans"`
	}{Held: held, Total: total, Dropped: s.ring.Dropped(), Spans: spans})
}

func spanNamesCase(sp obs.Span, caseID string) bool {
	if sp.Attrs["case"] == caseID {
		return true
	}
	for _, ev := range sp.Events {
		if ev.Attrs["case"] == caseID {
			return true
		}
	}
	return false
}

// purposeInfo is one row of GET /v1/purposes.
type purposeInfo struct {
	Name  string   `json:"name"`
	Codes []string `json:"codes"`
	Tasks int      `json:"tasks"`
	Cases int      `json:"cases"`
}

func (s *Server) handlePurposes(w http.ResponseWriter, r *http.Request) {
	perPurpose := map[string]int{}
	var all []CaseView
	for _, sh := range s.shards {
		all = sh.collectViews(all, nil)
	}
	for _, v := range all {
		perPurpose[v.Purpose]++
	}
	var out []purposeInfo
	for _, name := range s.reg.Purposes() {
		p := s.reg.Purpose(name)
		out = append(out, purposeInfo{
			Name:  name,
			Codes: p.Codes,
			Tasks: len(p.Process.Tasks()),
			Cases: perPurpose[name],
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Purposes []purposeInfo `json:"purposes"`
	}{Purposes: out})
}

func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	held, total := s.quar.stats()
	writeJSON(w, http.StatusOK, struct {
		Total   int64              `json:"total"`
		Held    int                `json:"held"`
		Records []QuarantineRecord `json:"records"`
	}{Total: total, Held: held, Records: s.quar.snapshot()})
}
