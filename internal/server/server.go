// Package server implements auditd's engine: a long-running, sharded
// purpose-audit service over the paper's online monitor (Section 4's
// "the analysis should be resumed when new actions within the process
// instance are recorded", turned into a deployable process).
//
// Architecture. Ingested entries are routed by core.ShardCase to one of
// N shards; each shard owns a core.Monitor over a Checker.Clone() — all
// clones share the warm per-purpose runtime from PR 1, so the LTS and
// configuration memos are derived once and hit by every shard. Shard
// queues are bounded: a saturated shard answers POST /v1/events with
// 429 + Retry-After instead of buffering without limit (explicit
// backpressure). Verdict state is queryable at GET /v1/cases while the
// stream is still flowing, and the whole live state checkpoints to disk
// periodically and on shutdown, so a restart resumes mid-case instead
// of losing history.
package server

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Config tunes the server; zero values take the documented defaults.
type Config struct {
	// Shards is the monitor worker pool size (default 8).
	Shards int
	// QueueDepth bounds each shard's queue (default 1024); a full
	// queue triggers 429 backpressure.
	QueueDepth int
	// CheckpointPath, when set, enables snapshotting the live state to
	// this file (atomic rename) and restoring it on Start.
	CheckpointPath string
	// CheckpointEvery is the periodic snapshot interval (default 30s;
	// only meaningful with CheckpointPath).
	CheckpointEvery time.Duration
	// Logger receives structured request/verdict logs (default
	// slog.Default()).
	Logger *slog.Logger

	// WALDir, when set, enables the write-ahead ingest log: every
	// accepted entry is appended (CRC-framed) to segmented log files in
	// this directory BEFORE dispatch, and Start replays the log tail
	// past the checkpoint — a kill -9 loses nothing acknowledged.
	WALDir string
	// WALFsync is the log's durability policy: wal.FsyncAlways,
	// wal.FsyncInterval (default; a background fsync every 100ms) or
	// wal.FsyncOff.
	WALFsync string
	// WALSegmentBytes rotates log segments at this size (default 64 MiB).
	WALSegmentBytes int64
	// WALFailure selects the degradation when a WAL write fails:
	// WALFailstop (default) wedges ingest entirely — every later POST
	// gets 503 and /readyz fails, so the node is pulled; WALShed sheds
	// only the affected requests with 503 and keeps the node serving
	// queries and checkpoints, /readyz degraded but 200.
	WALFailure string
	// ShardRestartLimit bounds how many times the supervisor restarts a
	// panicking shard worker before failing the shard (default 5).
	ShardRestartLimit int

	// LedgerKey, when set, enables the tamper-evident Merkle audit
	// ledger (DESIGN.md §15): every WAL-appended entry becomes a leaf,
	// batches seal into ed25519-signed chained roots, and GET
	// /v1/proofs/{case} serves offline-checkable inclusion proofs.
	// Requires WALDir — sealing happens after the WAL append, so
	// "acknowledged" means both replayable and provable.
	LedgerKey ed25519.PrivateKey
	// LedgerBatch closes a ledger batch at this many leaves (default
	// ledger.DefaultBatch; 1 = direct ledger, a signed root per entry).
	LedgerBatch int
	// LedgerWait seals a partial batch this long after its first leaf
	// (0 = size/explicit cuts only — the deterministic mode).
	LedgerWait time.Duration

	// StageSample times 1 in N ingest batches through the pipeline
	// stages (decode → WAL append/fsync → queue wait → replay → ledger
	// seal), exported as auditd_stage_latency_seconds{stage=...}.
	// 0 takes the default (obs.DefaultStageSample, 1-in-64), 1 times
	// every batch, negative disables sampling. Requests carrying a W3C
	// traceparent are always timed regardless.
	StageSample int
	// FlightDir is where flight-recorder dumps are written (default
	// os.TempDir()).
	FlightDir string
}

// WAL failure policies (Config.WALFailure).
const (
	WALFailstop = "failstop"
	WALShed     = "shed"
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.WALFailure == "" {
		c.WALFailure = WALFailstop
	}
	if c.ShardRestartLimit <= 0 {
		c.ShardRestartLimit = 5
	}
	if c.StageSample == 0 {
		c.StageSample = obs.DefaultStageSample
	}
	return c
}

// Server is the auditd engine. Build with New, then Start, serve
// Handler over any http.Server, and Shutdown to drain and snapshot.
type Server struct {
	// The embedded sink is the pipeline-event emitter every shard
	// shares; it also carries the server's metrics, logger, span ring,
	// flight recorder and watch hub (sink.go).
	*sink
	cfg    Config
	reg    *core.Registry
	shards []*shard
	quar   *quarantine
	mux    *http.ServeMux

	// ingest gate: handlers register in-flight ingests so Shutdown can
	// wait for them before closing the shard queues.
	gate     sync.Mutex
	draining bool
	ingestWG sync.WaitGroup

	started  bool
	ready    bool
	readyMu  sync.RWMutex
	stopCkpt chan struct{}
	ckptDone chan struct{}
	// ckptMu serializes checkpoint writes (ticker vs. shutdown).
	ckptMu sync.Mutex

	// wal is the write-ahead ingest log (nil when WALDir is unset);
	// inflight tracks append→enqueue windows for safe truncation, and
	// walFailed flips under the fail-stop policy when an append fails
	// (see wal.go).
	wal       *wal.Log
	inflight  inflightTracker
	walFailed atomic.Bool

	// ledger seals WAL-appended entries into signed Merkle roots (nil
	// when LedgerKey is unset). archiveRef is the ledger archive prefix
	// the last published (or restored) checkpoint references; the next
	// checkpoint appends past it (checkpoint.go, under ckptMu).
	ledger     *ledger.Ledger
	archiveRef ledger.ArchiveRef
	// walCutRestored is the restored checkpoint's WAL cut: boot replay
	// starts at the record after it.
	walCutRestored uint64

	// stages decides which batches carry a timing record (DESIGN.md
	// §17).
	stages    *obs.StageSampler
	startTime time.Time

	// Hot-path log limiters: a poison stream that makes every entry
	// warn must not drown the log (suppressed counts are exported as
	// auditd_log_suppressed_total; the deviation log's limiter is the
	// sink's warnLim).
	limQuar *obs.LogLimiter
	limWAL  *obs.LogLimiter
}

// New builds a server over the registry's purposes. The checker
// configures replay (caps, role hierarchy); each shard gets a clone, so
// all shards share its warm caches.
func New(reg *core.Registry, checker *core.Checker, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sink:      newSink(cfg.Shards, cfg.FlightDir, newMetrics(), cfg.Logger),
		cfg:       cfg,
		reg:       reg,
		quar:      &quarantine{},
		mux:       http.NewServeMux(),
		stages:    obs.NewStageSampler(cfg.StageSample),
		startTime: time.Now(),
		limQuar:   obs.NewLogLimiter(warnBurst, warnPerSec),
		limWAL:    obs.NewLogLimiter(warnBurst, warnPerSec),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(i, checker, cfg.QueueDepth, s.sink, reg.PurposeOf))
	}
	s.routes()
	return s
}

// warnBurst/warnPerSec tune the hot-path log limiters: enough burst
// that a handful of deviating cases log normally, a sustained rate low
// enough that a fully poisoned stream costs ~1 line/s per class.
const (
	warnBurst  = 10
	warnPerSec = 1.0
)

// sampleStages decides whether the batch being opened gets a stage
// timing record: always for traced requests (the caller asked to see
// the breakdown), 1-in-N otherwise.
func (s *Server) sampleStages(sc obs.SpanContext) *obs.StageRecord {
	if sc.IsValid() || s.stages.Sample() {
		return obs.NewStageRecord()
	}
	return nil
}

// shardFor routes a case to its shard.
func (s *Server) shardFor(caseID string) *shard {
	return s.shards[core.ShardCase(caseID, len(s.shards))]
}

// caseCount sums live cases across shards.
func (s *Server) caseCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.viewCount()
	}
	return n
}

// Start restores the checkpoint (if configured and present), opens the
// write-ahead log and replays its tail through the shards, launches
// the shard workers and the checkpoint loop, and marks the server
// ready. A corrupt WAL fails Start loudly — refusing to boot beats
// silently losing acknowledged entries. It must be called exactly
// once.
func (s *Server) Start() error {
	if s.started {
		return fmt.Errorf("server: already started")
	}
	s.started = true
	if err := s.openLedger(); err != nil {
		return err
	}
	if err := s.restore(); err != nil {
		return err
	}
	if err := s.openWAL(); err != nil {
		return err
	}
	if err := s.replayWAL(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		go sh.run(s.cfg.ShardRestartLimit)
	}
	s.stopCkpt = make(chan struct{})
	s.ckptDone = make(chan struct{})
	go s.checkpointLoop()
	s.setReady(true)
	s.log.Info("auditd started", "shards", len(s.shards), "queue_depth", s.cfg.QueueDepth,
		"checkpoint", s.cfg.CheckpointPath, "wal", s.cfg.WALDir,
		"purposes", len(s.reg.Purposes()), "cases", s.caseCount())
	return nil
}

// Shutdown drains and stops the server: new ingests are refused,
// in-flight ingests finish, shard queues are drained to their monitors,
// and a final checkpoint is written. The context bounds the wait: on
// deadline, whatever DID drain is still checkpointed (stragglers keep
// their previous checkpoint state, and their unfed entries stay in the
// WAL for the next boot to replay), the stragglers are logged, and the
// deadline error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.setReady(false)

	// Refuse new ingests, then wait for in-flight ones: after this no
	// goroutine writes the shard queues except the checkpoint loop.
	s.gate.Lock()
	s.draining = true
	s.gate.Unlock()

	// Stop the checkpoint loop before closing queues (it enqueues
	// control messages).
	if s.stopCkpt != nil {
		close(s.stopCkpt)
		<-s.ckptDone
	}

	done := make(chan struct{})
	go func() {
		s.ingestWG.Wait()
		for _, sh := range s.shards {
			close(sh.queue)
		}
		for _, sh := range s.shards {
			<-sh.done
		}
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return s.shutdownExpired(ctx)
	}

	// Workers are gone. Seal the ledger's open tail first, so every
	// acknowledged entry is provable after a clean restart, and the
	// final checkpoint carries the sealed batches.
	if s.ledger != nil {
		s.ledger.Cut()
	}
	// Monitors are safe to read directly.
	cut, err := s.checkpointFinal()
	if err != nil {
		s.log.Error("final checkpoint failed", "err", err)
		s.closeWAL(0)
		if s.ledger != nil {
			s.ledger.Close()
		}
		return err
	}
	// Every acknowledged entry up to the cut is now in the checkpoint;
	// the WAL can shed its sealed history.
	s.closeWAL(cut)
	if s.ledger != nil {
		s.ledger.Close()
	}
	s.log.Info("auditd drained and stopped", "cases", s.caseCount())
	return nil
}

// shutdownExpired is Shutdown's deadline path: checkpoint the shards
// that finished draining, carry the stragglers' cases over from the
// previous checkpoint (a consistent, if older, cut — their newer
// entries are still in the WAL), and report who was stuck.
func (s *Server) shutdownExpired(ctx context.Context) error {
	var drained []*shard
	var stuck []int
	stale := map[int]bool{}
	for _, sh := range s.shards {
		select {
		case <-sh.done:
			drained = append(drained, sh)
		default:
			stuck = append(stuck, sh.id)
			stale[sh.id] = true
		}
	}
	if err := s.checkpointPartial(drained, stale); err != nil {
		s.log.Error("partial checkpoint failed", "err", err)
	}
	// No WAL truncation here: the stragglers' unfed entries must
	// survive for the next boot's replay.
	s.closeWAL(0)
	if s.ledger != nil {
		s.ledger.Close()
	}
	s.log.Error("drain deadline exceeded; straggler shards abandoned",
		"stragglers", stuck, "drained", len(drained))
	return fmt.Errorf("server: drain deadline exceeded, %d shard(s) still busy %v: %w",
		len(stuck), stuck, ctx.Err())
}

// Crash stops the server the way a kill -9 would leave it: no final
// checkpoint, no WAL truncation — the on-disk state is a stale (or
// absent) checkpoint plus the full log. Chaos and recovery-test
// support; production shutdown is Shutdown.
func (s *Server) Crash() {
	s.setReady(false)
	s.gate.Lock()
	s.draining = true
	s.gate.Unlock()
	if s.stopCkpt != nil {
		close(s.stopCkpt)
		<-s.ckptDone
	}
	s.ingestWG.Wait()
	for _, sh := range s.shards {
		close(sh.queue)
	}
	for _, sh := range s.shards {
		<-sh.done
	}
	s.closeWAL(0)
	if s.ledger != nil {
		// No Cut: like the WAL, the open tail exists only in the log
		// and is rebuilt by replay at next boot.
		s.ledger.Close()
	}
}

// accepting registers an ingest if the server is not draining.
func (s *Server) accepting() bool {
	s.gate.Lock()
	defer s.gate.Unlock()
	if s.draining {
		return false
	}
	s.ingestWG.Add(1)
	return true
}

func (s *Server) setReady(v bool) {
	s.readyMu.Lock()
	changed := s.ready != v
	s.ready = v
	s.readyMu.Unlock()
	if changed {
		detail := "not_ready"
		if v {
			detail = "ready"
		}
		s.emit(obs.Event{Kind: obs.FlightReadiness, Shard: -1, Detail: detail})
	}
}

func (s *Server) isReady() bool {
	s.readyMu.RLock()
	defer s.readyMu.RUnlock()
	return s.ready
}

// Handler returns the HTTP surface with request logging.
func (s *Server) Handler() http.Handler { return s.logRequests(s.mux) }

// Flush blocks until every entry enqueued before the call has been fed
// to its monitor — the barrier behind POST /v1/events?wait=1, giving
// tests and the CI smoke a deterministic read-your-writes handle.
func (s *Server) Flush() {
	var waits []<-chan struct{}
	for _, sh := range s.shards {
		waits = append(waits, sh.barrier())
	}
	for _, w := range waits {
		<-w
	}
}

// logRequests wraps the mux with structured request logging.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		lw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(lw, r)
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", lw.code,
			"dur_ms", float64(time.Since(start).Microseconds())/1000, "remote", r.RemoteAddr)
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming handlers (the
// /v1/watch SSE stream) work through the logging wrapper.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// IngestEntries routes pre-decoded entries through the batched
// dispatch path, grouping consecutive same-shard runs into one queue
// message each. It returns how many entries were accepted and whether
// all were; false mirrors the HTTP 429 contract (a saturated shard or
// a draining server stopped the ingest). This is the in-process
// ingestion surface used by benchmarks and embedders.
func (s *Server) IngestEntries(entries []audit.Entry) (int, bool) {
	if s.walRefusing() || !s.accepting() {
		return 0, false
	}
	defer s.ingestWG.Done()
	b := s.newBatcher(obs.SpanContext{})
	for i := range entries {
		if !b.add(entries[i], i+1) {
			return b.accepted, false
		}
	}
	if !b.flush() {
		return b.accepted, false
	}
	return b.accepted, true
}
