package server

// Durable dispatch: the glue between the ingest path and internal/wal
// (DESIGN.md §14). With a WAL configured, acceptance means durability:
// a batch's credits are reserved first (so the 429 decision happens
// before any disk write), the batch is appended to the log, and only
// then is it enqueued to its shard — a blocking send, which cannot
// stall indefinitely because credits bound queued entries to the
// channel capacity and the supervisor keeps even a failed shard's
// queue draining.
//
// Replay correctness rests on two invariants kept here:
//
//  1. Per shard, WAL record order equals feed order (sh.enqMu makes
//     append+send atomic per shard; cases never span shards).
//  2. Each case view carries the LSN of its last fed entry, persisted
//     in checkpoints, so boot replay skips exactly the records the
//     restored checkpoint already covers — robust against segment
//     truncation and shard-count changes.
//
// Truncation safety: a checkpoint may only drop records that are
// certain to be inside its cut. Records enqueued before the dump
// requests are fed before the dumps (FIFO queues); the only records
// that might not be are those inside an append→enqueue window, which
// the inflight tracker exposes as a low-water mark captured before the
// dump fan-out.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/wal"
)

// inflightTracker records the first LSN of every batch that has been
// appended to the WAL but not yet enqueued to its shard. Its mutex
// also brackets the append itself, so lowWater never misses a window
// that completed its append before the capture.
type inflightTracker struct {
	mu     sync.Mutex
	firsts map[uint64]int // first LSN → open windows with that first
	// canon is the batch being appended, in canonical form: rendered
	// once, then framed by the WAL and chained by the ledger.
	canon audit.CanonicalBatch
}

// openWAL opens the configured log; no-op without WALDir.
func (s *Server) openWAL() error {
	if s.cfg.WALDir == "" {
		return nil
	}
	switch s.cfg.WALFailure {
	case WALFailstop, WALShed:
	default:
		return fmt.Errorf("server: unknown WAL failure policy %q (want %s|%s)",
			s.cfg.WALFailure, WALFailstop, WALShed)
	}
	l, err := wal.Open(s.cfg.WALDir, wal.Options{
		SegmentBytes: s.cfg.WALSegmentBytes,
		Fsync:        s.cfg.WALFsync,
	})
	if err != nil {
		return fmt.Errorf("server: opening wal: %w", err)
	}
	s.wal = l
	s.inflight.firsts = map[uint64]int{}
	return nil
}

// replayWAL re-feeds the log tail through the shards — records past
// each case's checkpointed LSN, in log order, before the workers
// start. Corruption aborts boot.
//
// Replay starts past the restored checkpoint's cut: every record at or
// below it is in the checkpoint's dumps and (with a ledger) its
// archived batches, so decoding it would only be skipped again. Above
// the cut, the per-case skip map and the ledger's sealed boundary
// decide what is re-fed.
func (s *Server) replayWAL() error {
	if s.wal == nil {
		return nil
	}
	skip := map[string]uint64{}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id, v := range sh.views {
			if v.WalLSN > 0 {
				skip[id] = v.WalLSN
			}
		}
		sh.mu.RUnlock()
	}
	start := time.Now()
	replayed := 0
	// The ledger rebuilds from the same pass: every record past its
	// checkpointed sealed boundary becomes a leaf again, in LSN order,
	// regrowing the open tail (and any unpersisted batches) exactly as
	// the pre-crash run sealed them.
	ledgerFrom := uint64(0)
	cut := s.walCutRestored
	if s.ledger != nil {
		ledgerFrom = s.ledger.LastLSN()
		// A checkpoint written without the ledger does not clamp its
		// cut to sealed leaves; the ledger still needs every record
		// past its own boundary.
		cut = min(cut, ledgerFrom)
	}
	decoded := 0
	// The ledger takes each record's bytes as they are; the monitors
	// take the entry parsed from them, held in one.
	var one audit.Entry
	err := s.wal.ReplayCanonical(cut+1, func(lsn uint64, e audit.Entry, rec *audit.CanonicalBatch) error {
		decoded++
		if s.ledger != nil && lsn > ledgerFrom {
			if err := s.ledger.AppendCanonical(rec, lsn); err != nil {
				return fmt.Errorf("rebuilding ledger: %w", err)
			}
		}
		if lsn <= skip[e.Case] {
			return nil // already inside the restored checkpoint's cut
		}
		one = e
		s.shardFor(e.Case).feed(&one, lsn)
		replayed++
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: wal replay: %w", err)
	}
	s.metrics.walDecoded.Add(int64(decoded))
	if replayed > 0 || s.wal.LastLSN() > 0 {
		s.metrics.walReplayed.Add(int64(replayed))
		s.log.Info("wal replayed", "records", replayed, "decoded", decoded, "from_lsn", cut+1, "last_lsn", s.wal.LastLSN(),
			"dur_ms", float64(time.Since(start).Microseconds())/1000)
	}
	return nil
}

// enqueueBatch dispatches one pooled batch to sh — directly when no
// WAL is configured, through it otherwise. false means the batch was
// not accepted (saturation, failed shard, or WAL failure) and the
// caller still owns the slice. rec is the batch's stage timing record
// (nil when unsampled): the WAL path splits the append into
// wal_append / wal_fsync / ledger_seal before stamping the enqueue.
func (s *Server) enqueueBatch(sh *shard, b *[]audit.Entry, sc obs.SpanContext, rec *obs.StageRecord) bool {
	if s.wal == nil {
		return sh.tryEnqueueBatch(b, sc, rec)
	}
	if s.walFailed.Load() {
		return false
	}
	n := int64(len(*b))
	if !sh.reserve(n) {
		return false
	}
	sh.enqMu.Lock()
	var appendStart time.Time
	if rec != nil {
		appendStart = time.Now()
	}
	first, err := s.walAppend(*b, rec)
	if err != nil {
		sh.enqMu.Unlock()
		sh.credits.Add(n)
		s.walFailure(err, len(*b))
		return false
	}
	if rec != nil {
		// The append wall-clock minus its inline fsync (zero unless the
		// policy is always; appends are serialized under inflight.mu, so
		// the read-back is this append's) and minus the ledger seal,
		// already attributed inside walAppend.
		total := time.Since(appendStart)
		fsync := s.wal.AppendSyncWait()
		rec.Add(obs.StageWALFsync, fsync)
		rec.Add(obs.StageWALAppend, total-fsync-rec.Dur(obs.StageLedgerSeal))
		rec.MarkEnqueued()
	}
	// Blocking send: the credits just reserved guarantee a queue slot
	// frees up, and the worker (or its supervisor/drainer) is always
	// consuming.
	sh.queue <- shardMsg{batch: b, sc: sc, firstLSN: first, stages: rec}
	sh.enqMu.Unlock()
	sh.noteHighWater()
	s.inflightDone(first)
	return true
}

// walAppend appends one batch and registers its append→enqueue window,
// atomically with respect to lowWater captures. Each entry is rendered
// in canonical form once; the WAL frames those bytes and the ledger
// chains the same bytes, so a leaf is exactly its record. The ledger
// seals here too: inflight.mu globally serializes WAL appends, so
// feeding the ledger under it hands leaves over in exact LSN order —
// the invariant that makes crash rebuilds sign the same trees as the
// original run.
func (s *Server) walAppend(entries []audit.Entry, rec *obs.StageRecord) (uint64, error) {
	s.inflight.mu.Lock()
	defer s.inflight.mu.Unlock()
	canon := &s.inflight.canon
	canon.Render(entries)
	first, _, err := s.wal.AppendCanonical(canon)
	if err != nil {
		return 0, err
	}
	if s.ledger != nil {
		var sealStart time.Time
		if rec != nil {
			sealStart = time.Now()
		}
		if err := s.ledger.AppendCanonical(canon, first); err != nil {
			// The entries are durable but unsealed; refuse the batch so
			// the acknowledged ⇒ provable contract holds (replay re-seals
			// them at next boot).
			s.emit(obs.Event{Kind: obs.FlightLedgerErr, Shard: -1, Detail: err.Error(), LSN: first})
			return 0, fmt.Errorf("ledger append: %w", err)
		}
		if rec != nil {
			rec.Add(obs.StageLedgerSeal, time.Since(sealStart))
		}
	}
	s.inflight.firsts[first]++
	return first, nil
}

// inflightDone closes an append→enqueue window: the batch is in its
// shard queue, so any dump requested from now on will reflect it.
func (s *Server) inflightDone(first uint64) {
	s.inflight.mu.Lock()
	if s.inflight.firsts[first]--; s.inflight.firsts[first] <= 0 {
		delete(s.inflight.firsts, first)
	}
	s.inflight.mu.Unlock()
}

// walLowWater returns the highest LSN that a checkpoint whose dump
// requests are issued after this call is guaranteed to cover: every
// record up to it is either fed or queued ahead of the dump message.
func (s *Server) walLowWater() uint64 {
	if s.wal == nil {
		return 0
	}
	s.inflight.mu.Lock()
	defer s.inflight.mu.Unlock()
	low := s.wal.LastLSN()
	for first := range s.inflight.firsts {
		if first-1 < low {
			low = first - 1
		}
	}
	return low
}

// walCut turns lsn, the highest WAL LSN a checkpoint's dumps reflect,
// into the checkpoint's cut: the LSN through which it covers every
// record, so boot replay starts past it and truncation may drop
// segments up to it. Two clamps apply.
//
// Failed shards: drainFailed drops queued batches on the premise they
// stay in the WAL for the next boot — but those batches closed their
// append→enqueue windows, so the low-water mark counts them as
// covered, and the failed shard's dump serves a frozen pre-failure cut
// that does not. Per shard, WAL record order is feed order, so
// everything the drainer dropped has LSN above the shard's last
// consumed record; cutting only below that keeps the dropped records
// replayable.
func (s *Server) walCut(lsn, ledgerLSN uint64) uint64 {
	for _, sh := range s.shards {
		if sh.failed.Load() {
			if l := sh.lastFedLSN.Load(); l < lsn {
				lsn = l
			}
		}
	}
	// Ledger: leaves above ledgerLSN, the last sealed LSN this
	// checkpoint archives, exist only in the WAL (checkpoints persist
	// sealed batches; the open tail never). Cutting past them would
	// make the ledger rebuild start inside a batch.
	if s.ledger != nil && ledgerLSN < lsn {
		lsn = ledgerLSN
	}
	return lsn
}

// walFailure applies the configured write-failure policy to a failed
// append of n entries. Append errors are sticky in the log itself, so
// under WALShed every affected request keeps getting refused (503)
// while queries and checkpoints continue; under WALFailstop the whole
// ingest surface is wedged and readiness fails, pulling the node. The
// wal_error event is emitted here, outside the append lock, because
// the first one dumps the flight recorder.
func (s *Server) walFailure(err error, n int) {
	s.metrics.walAppendErrors.Add(1)
	s.emit(obs.Event{Kind: obs.FlightWALError, Shard: -1, Detail: err.Error(), N: n})
	if s.cfg.WALFailure == WALShed {
		// Every batch of every later request hits this under a sticky
		// error; the limiter keeps it to a bounded rate with a
		// suppressed=N summary.
		if ok, suppressed := s.limWAL.Allow(); ok {
			args := []any{"err", err}
			if suppressed > 0 {
				args = append(args, "suppressed", suppressed)
			}
			s.log.Error("wal append failed; batch shed", args...)
		}
		return
	}
	if s.walFailed.CompareAndSwap(false, true) {
		s.log.Error("wal append failed; fail-stop: all further ingest refused", "err", err)
	}
}

// walRefusing reports whether fail-stop has wedged the ingest surface.
func (s *Server) walRefusing() bool { return s.walFailed.Load() }

// walBroken reports whether the log has a sticky write failure (either
// policy) — the ingest 503 signal.
func (s *Server) walBroken() bool {
	return s.wal != nil && (s.walFailed.Load() || s.wal.Err() != nil)
}

// truncateWAL drops sealed segments fully covered by a checkpoint.
func (s *Server) truncateWAL(lsn uint64) {
	if s.wal == nil || lsn == 0 {
		return
	}
	n, err := s.wal.TruncateBefore(lsn)
	if err != nil {
		s.log.Warn("wal truncation failed", "err", err)
		return
	}
	if n > 0 {
		s.metrics.walTruncated.Add(int64(n))
		s.log.Info("wal truncated", "segments", n, "through_lsn", lsn)
	}
}

// closeWAL flushes and closes the log, first shedding the segments at
// or below through, the final checkpoint's cut (clean shutdown only —
// never after a partial drain, and never without a checkpoint to
// replay from: 0 truncates nothing).
func (s *Server) closeWAL(through uint64) {
	if s.wal == nil {
		return
	}
	s.truncateWAL(through)
	if err := s.wal.Close(); err != nil {
		s.log.Warn("wal close", "err", err)
	}
}
