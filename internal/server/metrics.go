package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
)

// Metrics is auditd's observability surface, exposed at /metrics in
// Prometheus text exposition format. It is stdlib-only by design (the
// container bakes no client library): counters and histogram buckets
// are plain atomics, and rendering walks them under no lock, so a
// scrape never stalls ingestion.
type metrics struct {
	eventsIngested    atomic.Int64 // accepted into a shard queue
	eventsRejected    atomic.Int64 // refused with 429 backpressure
	eventsQuarantined atomic.Int64 // malformed lines set aside
	feedErrors        atomic.Int64 // genuine monitor errors (not verdicts)

	verdictsOK            atomic.Int64
	verdictsViolation     atomic.Int64
	verdictsIndeterminate atomic.Int64

	// purposeVerdicts maps purpose name → *purposeCounters; purposes
	// are few and fixed at boot, so a sync.Map read path is hit after
	// the first entry of each purpose.
	purposeVerdicts sync.Map

	// feedCompiled/feedInterpreted count entries by the engine that
	// consumed them — the live compiled-vs-fallback ratio.
	feedCompiled    atomic.Int64
	feedInterpreted atomic.Int64

	snapshotDuration histogram
	snapshots        atomic.Int64
	snapshotErrors   atomic.Int64
	lastSnapshotNano atomic.Int64 // unix nanoseconds of the last successful snapshot

	// Durability and supervision (PR 7).
	walAppendErrors atomic.Int64 // WAL appends that failed (policy applied)
	walReplayed     atomic.Int64 // records re-fed from the WAL at boot
	walDecoded      atomic.Int64 // records decoded at boot, past the checkpoint's cut
	walTruncated    atomic.Int64 // WAL segments removed past checkpoints
	shardPanics     atomic.Int64 // shard worker panics recovered by the supervisor
	shardsFailed    atomic.Int64 // shards whose restart budget is exhausted
	entriesDropped  atomic.Int64 // accepted entries dropped by panics/failed shards

	// Tamper-evident ledger (PR 8).
	ledgerBatches      atomic.Int64 // batches sealed (roots signed)
	ledgerLeaves       atomic.Int64 // leaves covered by sealed batches
	ledgerProofs       atomic.Int64 // proof bundles served
	ledgerSealDuration histogram    // close-to-signed latency per batch

	// Pipeline stage telemetry (PR 10): one histogram per stage, fed
	// by sampled per-batch StageRecords (DESIGN.md §17).
	stageLatency [obs.NumStages]histogram
}

func newMetrics() *metrics {
	m := &metrics{}
	m.snapshotDuration.bounds = []float64{1e-3, 5e-3, 25e-3, 100e-3, 500e-3, 2, 10}
	m.snapshotDuration.counts = make([]atomic.Int64, len(m.snapshotDuration.bounds)+1)
	// Sealing a batch is hashing + one ed25519 signature: tens of
	// microseconds typically, milliseconds only for very large batches.
	m.ledgerSealDuration.bounds = []float64{25e-6, 100e-6, 500e-6, 2.5e-3, 10e-3, 100e-3}
	m.ledgerSealDuration.counts = make([]atomic.Int64, len(m.ledgerSealDuration.bounds)+1)
	// Stage durations span sub-microsecond (queue handoff on an idle
	// shard) to seconds (fsync on a stalled disk), hence the wide grid.
	for i := range m.stageLatency {
		m.stageLatency[i].bounds = []float64{1e-6, 5e-6, 25e-6, 100e-6, 500e-6, 2.5e-3, 10e-3, 50e-3, 250e-3, 1}
		m.stageLatency[i].counts = make([]atomic.Int64, len(m.stageLatency[i].bounds)+1)
	}
	return m
}

// observeStages folds one completed batch's timing record into the
// stage histograms. WAL/ledger stages are skipped when they never ran
// (no WAL or no ledger configured) so their histograms don't fill
// with meaningless zeros.
func (m *metrics) observeStages(r *obs.StageRecord) {
	if r == nil {
		return
	}
	for _, st := range obs.Stages() {
		d := r.Dur(st)
		if d == 0 {
			switch st {
			case obs.StageWALAppend, obs.StageWALFsync, obs.StageLedgerSeal:
				continue
			}
		}
		m.stageLatency[st].observe(d)
	}
}

// purposeCounters is one purpose's verdict tally.
type purposeCounters struct {
	ok, violation, indeterminate atomic.Int64
}

// countPurposeVerdict bumps the per-purpose verdict counter. Unknown
// purposes ("" — unregistered case codes) are skipped: the global
// verdict counters already cover them.
func (m *metrics) countPurposeVerdict(purpose, outcome string) {
	if purpose == "" {
		return
	}
	v, ok := m.purposeVerdicts.Load(purpose)
	if !ok {
		v, _ = m.purposeVerdicts.LoadOrStore(purpose, &purposeCounters{})
	}
	pc := v.(*purposeCounters)
	switch outcome {
	case outcomeCompliant:
		pc.ok.Add(1)
	case outcomeViolation:
		pc.violation.Add(1)
	case outcomeIndeterminate:
		pc.indeterminate.Add(1)
	}
}

// countEngine bumps the engine feed counter.
func (m *metrics) countEngine(engine string) {
	switch engine {
	case core.EngineCompiled:
		m.feedCompiled.Add(1)
	case core.EngineInterpreted:
		m.feedInterpreted.Add(1)
	}
}

// histogram is a fixed-bucket latency histogram in seconds. counts has
// one extra slot for the +Inf bucket; sum is kept in nanoseconds so it
// stays an integer atomic.
type histogram struct {
	bounds  []float64
	counts  []atomic.Int64
	sumNano atomic.Int64
	n       atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for ; i < len(h.bounds); i++ {
		if sec <= h.bounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sumNano.Add(int64(d))
	h.n.Add(1)
}

// write renders the histogram with cumulative buckets, as Prometheus
// expects. A label (e.g. stage="decode") goes inside every series'
// braces, and the caller writes the family's # TYPE header once;
// without one, write emits the header itself.
func (h *histogram) write(w io.Writer, name, label string) {
	le, sel := label+",le=", "{"+label+"}"
	if label == "" {
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		le, sel = "le=", ""
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%q} %d\n", name, le, formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s\"+Inf\"} %d\n", name, le, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sel, float64(h.sumNano.Load())/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, h.n.Load())
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

func counter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func gauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// writeTo renders the full exposition, pulling live gauges (queue
// depths, quarantine size, snapshot age) from the server.
func (s *Server) writeMetrics(w io.Writer) {
	m := s.metrics
	counter(w, "auditd_events_ingested_total", "Entries accepted into a shard queue.", m.eventsIngested.Load())
	counter(w, "auditd_events_rejected_total", "Entries refused with 429 backpressure.", m.eventsRejected.Load())
	counter(w, "auditd_events_quarantined_total", "Malformed input lines quarantined.", m.eventsQuarantined.Load())
	counter(w, "auditd_feed_errors_total", "Monitor feed errors that were not verdicts.", m.feedErrors.Load())

	fmt.Fprintf(w, "# HELP auditd_verdicts_total Verdicts returned by the online monitor, by outcome.\n# TYPE auditd_verdicts_total counter\n")
	fmt.Fprintf(w, "auditd_verdicts_total{outcome=\"compliant\"} %d\n", m.verdictsOK.Load())
	fmt.Fprintf(w, "auditd_verdicts_total{outcome=\"violation\"} %d\n", m.verdictsViolation.Load())
	fmt.Fprintf(w, "auditd_verdicts_total{outcome=\"indeterminate\"} %d\n", m.verdictsIndeterminate.Load())

	// Per-purpose verdicts, purposes sorted for a stable exposition.
	var purposes []string
	m.purposeVerdicts.Range(func(k, _ any) bool {
		purposes = append(purposes, k.(string))
		return true
	})
	if len(purposes) > 0 {
		sort.Strings(purposes)
		fmt.Fprintf(w, "# HELP auditd_purpose_verdicts_total Verdicts by purpose and outcome.\n# TYPE auditd_purpose_verdicts_total counter\n")
		for _, p := range purposes {
			v, _ := m.purposeVerdicts.Load(p)
			pc := v.(*purposeCounters)
			fmt.Fprintf(w, "auditd_purpose_verdicts_total{purpose=%q,outcome=\"compliant\"} %d\n", p, pc.ok.Load())
			fmt.Fprintf(w, "auditd_purpose_verdicts_total{purpose=%q,outcome=\"violation\"} %d\n", p, pc.violation.Load())
			fmt.Fprintf(w, "auditd_purpose_verdicts_total{purpose=%q,outcome=\"indeterminate\"} %d\n", p, pc.indeterminate.Load())
		}
	}

	fmt.Fprintf(w, "# HELP auditd_feed_engine_total Entries consumed, by replay engine.\n# TYPE auditd_feed_engine_total counter\n")
	fmt.Fprintf(w, "auditd_feed_engine_total{engine=\"compiled\"} %d\n", m.feedCompiled.Load())
	fmt.Fprintf(w, "auditd_feed_engine_total{engine=\"interpreted\"} %d\n", m.feedInterpreted.Load())

	// Symbol-cache effectiveness of the compiled fast path, summed
	// over the shards' monitors (their counters are atomics).
	var symHits, symMisses uint64
	for _, sh := range s.shards {
		h, miss := sh.mon.SymbolCacheStats()
		symHits += h
		symMisses += miss
	}
	counter(w, "auditd_symbol_cache_hits_total", "Compiled-engine symbol lookups served from cache.", int64(symHits))
	counter(w, "auditd_symbol_cache_misses_total", "Compiled-engine symbol lookups resolved via the DFA index.", int64(symMisses))
	if total := symHits + symMisses; total > 0 {
		gauge(w, "auditd_symbol_cache_hit_ratio", "Fraction of symbol lookups served from cache.",
			float64(symHits)/float64(total))
	}

	fmt.Fprintf(w, "# HELP auditd_shard_queue_depth Entries accepted but not yet fed, per shard.\n# TYPE auditd_shard_queue_depth gauge\n")
	for _, sh := range s.shards {
		fmt.Fprintf(w, "auditd_shard_queue_depth{shard=\"%d\"} %d\n", sh.id, sh.pendingEntries())
	}
	gauge(w, "auditd_shards", "Number of monitor shards.", float64(len(s.shards)))
	gauge(w, "auditd_cases", "Cases with live verdict state.", float64(s.caseCount()))

	held, _ := s.quar.stats()
	gauge(w, "auditd_quarantine_held", "Quarantined records currently held (bounded).", float64(held))

	spansHeld, spansTotal := s.ring.Stats()
	gauge(w, "auditd_trace_spans_held", "Spans currently held in the trace ring buffer.", float64(spansHeld))
	counter(w, "auditd_trace_spans_total", "Spans recorded since boot (ring evicts beyond its capacity).", int64(spansTotal))
	counter(w, "auditd_trace_spans_dropped_total", "Spans evicted from the trace ring by overflow.", int64(s.ring.Dropped()))

	// Build identity: which binary is this, exactly (value is always 1).
	fmt.Fprintf(w, "# HELP auditd_build_info Build metadata as labels; the value is always 1.\n# TYPE auditd_build_info gauge\n")
	fmt.Fprintf(w, "auditd_build_info{version=%q,go_version=%q,compiler_fingerprint=%q} 1\n",
		cli.Version, runtime.Version(), cli.CompilerFingerprint())

	// Pipeline stage latency (sampled per batch; see /v1/status for
	// the configured 1-in-N).
	fmt.Fprintf(w, "# HELP auditd_stage_latency_seconds Per-batch pipeline stage latency (deterministic 1-in-N batch sampling).\n# TYPE auditd_stage_latency_seconds histogram\n")
	for _, st := range obs.Stages() {
		m.stageLatency[st].write(w, "auditd_stage_latency_seconds", fmt.Sprintf("stage=%q", st.String()))
	}
	gauge(w, "auditd_stage_sample_every", "Configured 1-in-N stage sampling (0 = off; traced requests always timed).", float64(s.stages.Every()))

	// Log suppression: hot-path warnings dropped by the token-bucket
	// limiters.
	fmt.Fprintf(w, "# HELP auditd_log_suppressed_total Hot-path log statements suppressed by rate limiting.\n# TYPE auditd_log_suppressed_total counter\n")
	fmt.Fprintf(w, "auditd_log_suppressed_total{class=\"verdict\"} %d\n", s.warnLim.Suppressed())
	fmt.Fprintf(w, "auditd_log_suppressed_total{class=\"quarantine\"} %d\n", s.limQuar.Suppressed())
	fmt.Fprintf(w, "auditd_log_suppressed_total{class=\"wal\"} %d\n", s.limWAL.Suppressed())

	// Flight recorder bookkeeping.
	fHeld, fTotal, fDumps := s.flight.Stats()
	gauge(w, "auditd_flight_events_held", "Flight-recorder events currently held across all rings.", float64(fHeld))
	counter(w, "auditd_flight_events_total", "Flight-recorder events recorded since boot.", int64(fTotal))
	counter(w, "auditd_flight_dumps_total", "Flight-recorder dump files written.", fDumps)
	counter(w, "auditd_watch_events_dropped_total", "Verdict events lost to /v1/watch subscribers with full buffers.", s.watch.dropped.Load())

	// Go runtime gauges: enough to spot leaks and GC pressure without
	// a client library.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge(w, "auditd_go_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	gauge(w, "auditd_go_heap_alloc_bytes", "Heap bytes in use.", float64(ms.HeapAlloc))
	gauge(w, "auditd_go_heap_objects", "Live heap objects.", float64(ms.HeapObjects))
	counter(w, "auditd_go_gc_cycles_total", "Completed GC cycles.", int64(ms.NumGC))
	gauge(w, "auditd_go_gc_pause_total_seconds", "Cumulative GC stop-the-world pause.", float64(ms.PauseTotalNs)/1e9)

	// Durability and supervision.
	if s.wal != nil {
		appended, syncs, segments, bytes := s.wal.Stats()
		counter(w, "auditd_wal_records_total", "Entries appended to the write-ahead log since boot.", int64(appended))
		counter(w, "auditd_wal_fsyncs_total", "Explicit WAL fsyncs issued.", int64(syncs))
		gauge(w, "auditd_wal_segments", "Live WAL segment files.", float64(segments))
		gauge(w, "auditd_wal_bytes", "Total WAL bytes on disk.", float64(bytes))
		counter(w, "auditd_wal_replayed_total", "Entries re-fed from the WAL at boot.", m.walReplayed.Load())
		counter(w, "auditd_wal_replay_decoded_total", "WAL records decoded at boot, past the restored checkpoint's cut.", m.walDecoded.Load())
		counter(w, "auditd_wal_truncated_segments_total", "WAL segments removed as covered by checkpoints.", m.walTruncated.Load())
		counter(w, "auditd_wal_append_errors_total", "WAL appends that failed (failure policy applied).", m.walAppendErrors.Load())
	}
	if s.ledger != nil {
		// Gauges come from ledger state (restored batches count too);
		// the counters are since-boot sealing activity.
		batches, leaves, open, forced := s.ledger.Stats()
		counter(w, "auditd_ledger_batches_total", "Ledger batches sealed since boot (roots signed).", m.ledgerBatches.Load())
		counter(w, "auditd_ledger_leaves_total", "Entries sealed into ledger batches since boot.", m.ledgerLeaves.Load())
		counter(w, "auditd_ledger_proofs_total", "Proof bundles served.", m.ledgerProofs.Load())
		counter(w, "auditd_ledger_forced_cuts_total", "Batches cut early to answer a proof request.", int64(forced))
		gauge(w, "auditd_ledger_head_seq", "Sequence number of the newest signed root.", float64(batches))
		gauge(w, "auditd_ledger_sealed_leaves", "Entries covered by sealed batches, including restored ones.", float64(leaves))
		gauge(w, "auditd_ledger_open_leaves", "Entries appended but not yet sealed.", float64(open))
		gauge(w, "auditd_ledger_sealed_lsn", "Highest WAL LSN covered by a sealed batch.", float64(s.ledger.LastSealedLSN()))
		m.ledgerSealDuration.write(w, "auditd_ledger_seal_duration_seconds", "")
	}
	counter(w, "auditd_shard_panics_total", "Shard worker panics recovered by the supervisor.", m.shardPanics.Load())
	gauge(w, "auditd_shards_failed", "Shards whose restart budget is exhausted.", float64(m.shardsFailed.Load()))
	counter(w, "auditd_entries_dropped_total", "Accepted entries dropped by shard panics or failed shards (recoverable from the WAL).", m.entriesDropped.Load())

	m.snapshotDuration.write(w, "auditd_snapshot_duration_seconds", "")
	counter(w, "auditd_snapshots_total", "Checkpoint snapshots written.", m.snapshots.Load())
	counter(w, "auditd_snapshot_errors_total", "Checkpoint snapshots that failed.", m.snapshotErrors.Load())
	if last := m.lastSnapshotNano.Load(); last > 0 {
		gauge(w, "auditd_snapshot_age_seconds", "Seconds since the last successful snapshot.",
			time.Since(time.Unix(0, last)).Seconds())
	}
}
