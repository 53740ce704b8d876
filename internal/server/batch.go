package server

import (
	"sync"

	"repro/internal/audit"
	"repro/internal/obs"
)

// Batched dispatch. The ingest loop used to pay one channel send (and
// one shard wake-up) per entry; real trails are runs of same-case
// entries, and same case means same shard, so consecutive entries are
// grouped into pooled batch slices and each run crosses the queue as
// one message. Batching changes dispatch cost only — ordering, the
// QueueDepth bound (in entries, via shard credits) and the
// RejectedAtLine resume contract are all preserved exactly.

// maxBatch caps one dispatch batch. Large enough to amortize the
// channel op into noise, small enough that a batch in flight doesn't
// add noticeable latency before a barrier.
const maxBatch = 256

// batchPool recycles batch slices between producers and shard workers.
var batchPool = sync.Pool{New: func() any {
	b := make([]audit.Entry, 0, maxBatch)
	return &b
}}

func getBatch() *[]audit.Entry { return batchPool.Get().(*[]audit.Entry) }

func putBatch(b *[]audit.Entry) {
	*b = (*b)[:0]
	batchPool.Put(b)
}

// batcher accumulates one ingest stream's consecutive same-shard run
// and flushes it as a single queue message. Not safe for concurrent
// use; each request builds its own.
type batcher struct {
	s  *Server
	sc obs.SpanContext
	// cap bounds one batch: maxBatch, clamped to QueueDepth so a full
	// batch can always fit the shard's credit budget (otherwise small
	// QueueDepth configurations would degrade every flush).
	cap int

	sh  *shard
	buf *[]audit.Entry
	// rec is the pending batch's stage timing record (nil when the
	// sampler skipped it), opened with the batch so the decode stage
	// spans open → flush.
	rec *obs.StageRecord
	// lines holds each pending entry's 1-based body line (lines are not
	// contiguous when quarantined lines interleave), so a degraded
	// flush can report the exact rejected line.
	lines []int

	accepted     int
	rejectedLine int
}

func (s *Server) newBatcher(sc obs.SpanContext) batcher {
	c := maxBatch
	if s.cfg.QueueDepth < c {
		c = s.cfg.QueueDepth
	}
	return batcher{s: s, sc: sc, cap: c}
}

// add routes one entry (at 1-based body line line). false means a
// saturated shard stopped the ingest: accepted holds the entries
// enqueued so far and rejectedLine the line to resend from. The entry
// is taken in UTC: the WAL and the ledger keep the instant, not the
// zone, so a crash replays it in UTC, and verdict views and
// explanations must read the same before and after a crash.
func (b *batcher) add(e audit.Entry, line int) bool {
	e.Time = e.Time.UTC()
	sh := b.s.shardFor(e.Case)
	if b.buf != nil && (sh != b.sh || len(*b.buf) >= b.cap) {
		if !b.flush() {
			return false
		}
	}
	if b.buf == nil {
		b.buf = getBatch()
		b.sh = sh
		b.lines = b.lines[:0]
		b.rec = b.s.sampleStages(b.sc)
	}
	*b.buf = append(*b.buf, e)
	b.lines = append(b.lines, line)
	return true
}

// flush dispatches the pending batch, if any. When the shard cannot
// hold the whole batch it degrades to single-entry enqueues, so
// acceptance stops at exactly the first entry the queue has no room
// for — the RejectedAtLine resume contract predates batching and must
// not coarsen to batch granularity.
func (b *batcher) flush() bool {
	if b.buf == nil {
		return true
	}
	buf, lines, rec := b.buf, b.lines, b.rec
	b.buf, b.rec = nil, nil
	n := len(*buf)
	if n == 0 {
		putBatch(buf)
		return true
	}
	rec.MarkDecoded()
	if b.s.enqueueBatch(b.sh, buf, b.sc, rec) {
		b.accepted += n
		b.s.metrics.eventsIngested.Add(int64(n))
		return true
	}
	// Degraded single-entry enqueues drop the timing record: a batch
	// split by saturation is not a representative pipeline sample.
	for i := 0; i < n; i++ {
		single := getBatch()
		*single = append(*single, (*buf)[i])
		if !b.s.enqueueBatch(b.sh, single, b.sc, nil) {
			putBatch(single)
			putBatch(buf)
			b.accepted += i
			if i > 0 {
				b.s.metrics.eventsIngested.Add(int64(i))
			}
			b.s.metrics.eventsRejected.Add(1)
			b.rejectedLine = lines[i]
			return false
		}
	}
	b.accepted += n
	b.s.metrics.eventsIngested.Add(int64(n))
	putBatch(buf)
	return true
}
