package server

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/obs"
)

// A shard owns one core.Monitor (over a Checker.Clone sharing the warm
// per-purpose runtime) and consumes its queue on a single goroutine, so
// the monitor is never touched concurrently. Cases are routed to shards
// by core.ShardCase, which together with FIFO queues preserves the
// monitor sharding contract: verdicts are identical to a single monitor
// consuming the whole trail.
//
// Control traffic (barriers, snapshot requests) travels through the
// same queue as entries, so a snapshot is a consistent point-in-time
// cut of the shard: everything enqueued before it is reflected,
// everything after is not.
type shard struct {
	id    int
	queue chan shardMsg
	done  chan struct{}
	// depth is the configured queue bound in entries; credits is how
	// many of them are free. Batches carry whole entry runs through the
	// queue, so the channel alone cannot bound entries — credits are
	// acquired (per entry) on enqueue and released once the batch has
	// been fed, keeping QueueDepth's meaning independent of batching.
	depth   int64
	credits atomic.Int64

	// enqMu serializes the WAL-append + queue-send pair for this shard:
	// the WAL's per-case record order must equal feed order, or boot
	// replay would re-feed entries in a different order than the
	// checkpoint counted them (durable dispatch in wal.go).
	enqMu sync.Mutex

	// Supervision state. restarts counts worker panics survived so far;
	// failed flips when the restart budget is exhausted, after which new
	// batches are refused and a drainer keeps the queue live for
	// control traffic (barriers, snapshots) so Flush and Shutdown never
	// wedge on a dead shard.
	restarts atomic.Int64
	failed   atomic.Bool
	// pending is the batch being fed, tracked in the shard (not on the
	// worker's stack) so a restart after a panic resumes the batch at
	// the entry AFTER the one that blew up — exactly one entry is
	// dropped per panic, and its credits are still returned.
	pending    *[]audit.Entry
	pendingIdx int
	// fed is the pending batch's batch_fed event, opened at dequeue: LSN
	// is the batch's first WAL LSN (0 without a WAL), Stages its timing
	// record (nil when unsampled), Span its feed span (nil when
	// untraced). It lives here so replay timing and the span survive a
	// panic-resume.
	fed obs.Event
	// panicHook, when set (tests only), runs before each feed — the
	// injection point for supervisor chaos tests.
	panicHook func(*audit.Entry)
	// snapHook, when set (tests only), runs at the start of every dump —
	// the injection point for dump-panic supervision tests.
	snapHook func()

	// lastFedLSN is the WAL LSN of the last entry whose feed completed
	// (0 without a WAL). When the shard fails, everything it dropped —
	// queued batches its drainer discarded, the entry whose feed
	// panicked — exists only in the WAL, all above this mark (per-shard
	// WAL order is feed order), so checkpoint truncation clamps to it
	// (walSafeLSN) to keep those records replayable at next boot.
	lastFedLSN atomic.Uint64

	mon *core.Monitor
	// verdict receives every feed's verdict (core.Monitor.FeedInto),
	// so feeding allocates none. Like mon it belongs to whichever single
	// goroutine feeds the shard: boot replay, then the worker.
	verdict core.Verdict
	metrics *metrics
	log     *slog.Logger
	// sink receives the shard's pipeline events (sink.go).
	sink *sink
	// purposeOf resolves a case id to its purpose name (registry
	// lookup), for the view's Purpose field.
	purposeOf func(string) string

	// highWater is the worst queue occupancy seen (entries), reported
	// by /v1/status; hwRecorded is the occupancy at the last flight
	// event, so the ring gets step-sized marks instead of one event per
	// +1 creep.
	highWater  atomic.Int64
	hwRecorded atomic.Int64

	// views is the queryable verdict state, written only by the shard
	// worker, read by HTTP handlers.
	mu    sync.RWMutex
	views map[string]*CaseView
}

// shardMsg is one unit of shard queue traffic: exactly one of batch,
// barrier, snap is set.
type shardMsg struct {
	// batch is a run of consecutive entries routed to this shard. The
	// slice comes from batchPool; the worker recycles it after feeding.
	batch *[]audit.Entry
	// firstLSN is the WAL LSN of the batch's first entry (consecutive
	// from there); 0 when the server runs without a WAL. The feed
	// stamps each case view with its last applied LSN, which is what
	// boot replay uses to skip records the checkpoint already covers.
	firstLSN uint64
	// sc is the ingest span's context when the submitting request
	// carried a traceparent header; the zero value otherwise. It rides
	// the queue so the batch's feed span lands in the caller's trace.
	sc obs.SpanContext
	// stages is the batch's stage timing record (nil when unsampled);
	// it rides the queue so the worker can close the queue-wait stage
	// and time the replay.
	stages *obs.StageRecord
	// barrier is closed by the worker when it reaches the message —
	// everything enqueued before it has then been fed.
	barrier chan<- struct{}
	// snap receives the shard's consistent state cut.
	snap chan<- shardDump
}

// shardDump is one shard's contribution to a checkpoint. incomplete
// marks a reply whose dump panicked: the requester got an answer (so
// the checkpoint loop never wedges) but must discard the whole round —
// persisting a cut missing this shard's cases would lose them.
type shardDump struct {
	state      *core.MonitorState
	views      map[string]*CaseView
	incomplete bool
}

// CaseView is the queryable verdict state of one case, exposed at
// GET /v1/cases. Outcome is "compliant" (so far), "violation" or
// "indeterminate"; a dead case's first verdict is sticky, matching the
// monitor's semantics.
type CaseView struct {
	Case    string `json:"case"`
	Purpose string `json:"purpose"`
	Entries int    `json:"entries"`
	Outcome string `json:"outcome"`
	// Configurations is the live configuration count (0 once dead).
	Configurations int `json:"configurations,omitempty"`
	// Violation/Indeterminate carry the first deviating verdict's
	// diagnosis.
	Violation     string `json:"violation,omitempty"`
	Indeterminate string `json:"indeterminate,omitempty"`
	// Engine is the replay engine carrying the case ("compiled" or
	// "interpreted").
	Engine string `json:"engine,omitempty"`
	// Explanation is the structured account of the first deviation
	// (GET /v1/cases/{id}/explain); nil while compliant. Sticky like
	// Outcome, and persisted in checkpoints.
	Explanation *core.Explanation `json:"explanation,omitempty"`
	// Updated is the log time of the entry that last changed this view.
	Updated time.Time `json:"updated"`
	Shard   int       `json:"shard"`
	// WalLSN is the write-ahead-log sequence number of the case's last
	// fed entry (0 without a WAL). Checkpoints persist it, and boot
	// replay skips the case's WAL records at or below it — the
	// exactly-once contract between checkpoint and log.
	WalLSN uint64 `json:"wal_lsn,omitempty"`
}

const (
	outcomeCompliant     = "compliant"
	outcomeViolation     = "violation"
	outcomeIndeterminate = "indeterminate"
)

func newShard(id int, checker *core.Checker, depth int, k *sink, purposeOf func(string) string) *shard {
	sh := &shard{
		id:        id,
		queue:     make(chan shardMsg, depth),
		done:      make(chan struct{}),
		depth:     int64(depth),
		mon:       core.NewMonitor(checker.Clone()),
		metrics:   k.metrics,
		log:       k.log,
		sink:      k,
		purposeOf: purposeOf,
		views:     map[string]*CaseView{},
	}
	sh.credits.Store(sh.depth)
	return sh
}

// pendingEntries reports how many accepted entries have not been fed
// yet (queued batches plus the batch currently being fed).
func (sh *shard) pendingEntries() int64 { return sh.depth - sh.credits.Load() }

// run is the supervised worker loop: runOnce consumes the queue until
// it is closed (clean exit) or panics, in which case the supervisor
// restarts it — with exponential backoff, up to restartLimit times.
// Past the budget the shard is failed: its monitor stops, new batches
// are refused with backpressure, and a drainer keeps consuming the
// queue (returning credits, honoring barriers, serving frozen
// snapshots) so nothing blocking on this shard ever wedges. Only this
// goroutine touches sh.mon after Start.
func (sh *shard) run(restartLimit int) {
	defer close(sh.done)
	for {
		if sh.runOnce() {
			return
		}
		sh.metrics.shardPanics.Add(1)
		n := sh.restarts.Add(1)
		if n > int64(restartLimit) {
			sh.failed.Store(true)
			sh.metrics.shardsFailed.Add(1)
			sh.log.Error("shard failed: restart budget exhausted, draining without feeding",
				"shard", sh.id, "restarts", n-1)
			sh.sink.emit(obs.Event{Kind: obs.FlightShardFail, Shard: sh.id, N: int(n - 1)})
			sh.drainFailed()
			return
		}
		// 5ms, 10ms, 20ms ... capped at 320ms: enough to ride out a
		// tight panic loop without parking the queue for long.
		backoff := (5 * time.Millisecond) << min(uint(n-1), 6)
		sh.log.Warn("shard worker restarting after panic",
			"shard", sh.id, "restart", n, "backoff", backoff)
		sh.sink.emit(obs.Event{Kind: obs.FlightRestart, Shard: sh.id, N: int(n), Detail: backoff.String()})
		time.Sleep(backoff)
	}
}

// runOnce consumes the queue until closed. It returns true on a clean
// queue-close and false if a panic unwound it (recovered here, with
// the stack logged; the interrupted batch stays in sh.pending for the
// next incarnation to resume).
func (sh *shard) runOnce() (clean bool) {
	defer func() {
		if r := recover(); r != nil {
			ev := obs.Event{Kind: obs.FlightPanic, Shard: sh.id, Detail: fmt.Sprint(r)}
			if sh.pending != nil {
				// Exactly the entry being fed is lost; feedPending
				// already advanced past it.
				sh.metrics.entriesDropped.Add(1)
				if i := sh.pendingIdx - 1; i >= 0 && i < len(*sh.pending) {
					// The poisoned entry: feedPending advances the cursor
					// before feeding, so it sits one behind.
					e := (*sh.pending)[i]
					ev.Case = e.Case
					ev.Detail = fmt.Sprintf("task=%s: %v", e.Task, r)
					if sh.fed.LSN > 0 {
						ev.LSN = sh.fed.LSN + uint64(i)
					}
				}
			}
			sh.log.Error("shard worker panicked",
				"shard", sh.id, "panic", r, "stack", string(debug.Stack()))
			sh.sink.emit(ev)
		}
	}()
	if sh.pending != nil {
		sh.feedPending()
	}
	for msg := range sh.queue {
		switch {
		case msg.batch != nil:
			msg.stages.MarkDequeued()
			sh.pending, sh.pendingIdx = msg.batch, 0
			sh.fed = obs.Event{Kind: obs.FlightBatchFed, Shard: sh.id, LSN: msg.firstLSN,
				Stages: msg.stages, Span: sh.sink.openFeedSpan(msg.sc, sh.id, *msg.batch)}
			sh.feedPending()
		case msg.barrier != nil:
			close(msg.barrier)
		case msg.snap != nil:
			sh.serveSnap(msg.snap)
		}
	}
	return true
}

// serveSnap replies to a snapshot request with a guaranteed answer: if
// dump panics (a monitor corrupted by the very fault supervision exists
// for), the deferred send delivers an incomplete dump before the panic
// unwinds into the supervisor — checkpointRunning must never block
// forever on a reply that isn't coming. The reply channel is buffered
// (requestDump), so neither send can block.
func (sh *shard) serveSnap(ch chan<- shardDump) {
	sent := false
	defer func() {
		if !sent {
			ch <- shardDump{incomplete: true}
		}
	}()
	d := sh.dump()
	ch <- d
	sent = true
}

// feedPending feeds the in-progress batch from its cursor, emits its
// batch_fed event, then returns its credits and recycles it. The cursor
// advances BEFORE each feed, so when a feed panics the supervisor's
// resume skips exactly the poisonous entry instead of re-feeding it
// into another panic.
func (sh *shard) feedPending() {
	entries := *sh.pending
	var replayStart time.Time
	if sh.fed.Stages != nil {
		replayStart = time.Now()
	}
	for sh.pendingIdx < len(entries) {
		i := sh.pendingIdx
		sh.pendingIdx++
		var lsn uint64
		if sh.fed.LSN > 0 {
			lsn = sh.fed.LSN + uint64(i)
		}
		sh.feed(&entries[i], lsn)
	}
	if sh.fed.Stages != nil {
		sh.fed.Stages.Add(obs.StageReplay, time.Since(replayStart))
	}
	if len(entries) > 0 {
		sh.fed.Case, sh.fed.N = entries[0].Case, len(entries)
		sh.sink.emit(sh.fed)
	}
	sh.fed = obs.Event{}
	sh.credits.Add(int64(len(entries)))
	putBatch(sh.pending)
	sh.pending = nil
}

// drainFailed is the terminal loop of a failed shard: every batch is
// dropped (counted — and still in the WAL, so a restart recovers it),
// credits are returned so producers never leak capacity, barriers
// close and snapshots serve the frozen pre-failure state.
func (sh *shard) drainFailed() {
	if sh.pending != nil {
		entries := *sh.pending
		sh.metrics.entriesDropped.Add(int64(len(entries) - sh.pendingIdx))
		sh.credits.Add(int64(len(entries)))
		putBatch(sh.pending)
		sh.pending = nil
		sh.fed = obs.Event{}
	}
	for msg := range sh.queue {
		switch {
		case msg.batch != nil:
			n := int64(len(*msg.batch))
			sh.metrics.entriesDropped.Add(n)
			sh.credits.Add(n)
			putBatch(msg.batch)
		case msg.barrier != nil:
			close(msg.barrier)
		case msg.snap != nil:
			sh.drainSnap(msg.snap)
		}
	}
}

// drainSnap serves a snapshot from the drainer, recovering a dump
// panic: the terminal loop has no supervisor above it, and an escaped
// panic here would take down the whole process. The requester still
// gets serveSnap's incomplete reply.
func (sh *shard) drainSnap(ch chan<- shardDump) {
	defer func() {
		if r := recover(); r != nil {
			sh.log.Error("failed shard's dump panicked",
				"shard", sh.id, "panic", r, "stack", string(debug.Stack()))
		}
	}()
	sh.serveSnap(ch)
}

// tryEnqueueBatch offers a run of entries to the queue without
// blocking; false means the shard cannot hold the whole batch and the
// caller must apply backpressure (typically by degrading to
// single-entry enqueues — see batcher.flush). On success the worker
// owns the slice and recycles it. sc carries the submitting request's
// trace context (zero when untraced).
func (sh *shard) tryEnqueueBatch(b *[]audit.Entry, sc obs.SpanContext, rec *obs.StageRecord) bool {
	n := int64(len(*b))
	if !sh.reserve(n) {
		return false
	}
	rec.MarkEnqueued()
	select {
	case sh.queue <- shardMsg{batch: b, sc: sc, stages: rec}:
		sh.noteHighWater()
		return true
	default:
		// Queue slots are scarcer than credits only transiently (each
		// queued message holds at least one credit); hand the credits
		// back and report saturation.
		sh.credits.Add(n)
		return false
	}
}

// noteHighWater tracks the shard's worst queue occupancy. The running
// maximum feeds /v1/status; the flight ring only gets a mark when the
// maximum grew by at least a depth/8 step (or hit the ceiling), so a
// slow creep doesn't flood it.
func (sh *shard) noteHighWater() {
	p := sh.pendingEntries()
	for {
		hw := sh.highWater.Load()
		if p <= hw {
			return
		}
		if !sh.highWater.CompareAndSwap(hw, p) {
			continue
		}
		step := sh.depth / 8
		if step < 1 {
			step = 1
		}
		last := sh.hwRecorded.Load()
		if (p >= last+step || p >= sh.depth) && sh.hwRecorded.CompareAndSwap(last, p) {
			sh.sink.emit(obs.Event{Kind: obs.FlightHighWater, Shard: sh.id, N: int(p)})
		}
		return
	}
}

// reserve acquires n entry credits, or none. A failed shard refuses
// all reservations: accepting entries its drainer would drop silently
// is worse than honest backpressure.
func (sh *shard) reserve(n int64) bool {
	if sh.failed.Load() {
		return false
	}
	for {
		c := sh.credits.Load()
		if c < n {
			return false
		}
		if sh.credits.CompareAndSwap(c, c-n) {
			return true
		}
	}
}

// barrier enqueues a flush marker (blocking: control traffic may wait
// for queue space) and returns the channel closed when it is reached.
func (sh *shard) barrier() <-chan struct{} {
	ch := make(chan struct{})
	sh.queue <- shardMsg{barrier: ch}
	return ch
}

// requestDump asks the running worker for a consistent cut.
func (sh *shard) requestDump() <-chan shardDump {
	ch := make(chan shardDump, 1)
	sh.queue <- shardMsg{snap: ch}
	return ch
}

// dump exports monitor state and a copy of the views. Called either by
// the worker goroutine (running) or after the worker exited (final
// checkpoint).
func (sh *shard) dump() shardDump {
	if sh.snapHook != nil {
		sh.snapHook()
	}
	sh.mu.RLock()
	views := make(map[string]*CaseView, len(sh.views))
	for id, v := range sh.views {
		c := *v
		views[id] = &c
	}
	sh.mu.RUnlock()
	return shardDump{state: sh.mon.State(), views: views}
}

// feed advances one case by one entry, folds the verdict into the case
// view and the metrics, and emits a verdict event when the case leaves
// compliant. lsn is the entry's WAL record number (0 without a WAL),
// stamped into the view for boot replay. e points into the pending
// batch; nothing keeps it past the call.
func (sh *shard) feed(e *audit.Entry, lsn uint64) {
	if sh.panicHook != nil {
		sh.panicHook(e)
	}
	err := sh.mon.FeedInto(context.Background(), e, &sh.verdict)
	if lsn > 0 {
		// Stored only after Feed returns: an entry that panics mid-feed
		// stays ABOVE the truncation clamp (walSafeLSN), so the WAL
		// keeps it for the next boot's replay — the same recovery
		// contract the supervisor's one-entry drop relies on.
		sh.lastFedLSN.Store(lsn)
	}
	if err != nil {
		// Genuine engine error (not a verdict): count it, log it, and
		// leave the case view untouched — the entry is lost, which the
		// feed-errors counter makes visible.
		sh.metrics.feedErrors.Add(1)
		sh.log.Error("feed failed", "shard", sh.id, "case", e.Case, "err", err,
			"trace_id", traceField(sh.fed.Span.Context()))
		return
	}
	sh.metrics.countEngine(sh.verdict.Engine)
	if ev := sh.applyVerdict(e, &sh.verdict, lsn); ev.Kind != "" {
		sh.sink.emit(ev)
	}
}

// applyVerdict folds one verdict into the case view under the view
// lock and returns the verdict event when the case just left compliant
// (the zero Event otherwise). The caller emits it after the lock is
// released: the sink logs and publishes, and none of that may stall
// the GET /v1/cases readers waiting on the lock. It is its own function
// so the lock is released by defer even if something under it panics —
// the supervisor must never inherit a poisoned mutex.
func (sh *shard) applyVerdict(e *audit.Entry, v *core.Verdict, lsn uint64) obs.Event {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	view, ok := sh.views[e.Case]
	if !ok {
		view = &CaseView{
			Case: e.Case, Shard: sh.id, Outcome: outcomeCompliant,
			Purpose: sh.purposeOf(e.Case),
		}
		sh.views[e.Case] = view
	}
	view.Entries = v.CaseEntries
	view.Updated = e.Time
	view.Configurations = v.Configurations
	if lsn > 0 {
		view.WalLSN = lsn
	}
	if v.Engine != "" {
		view.Engine = v.Engine
	}
	was, detail := view.Outcome, ""
	switch {
	case v.OK:
		sh.metrics.verdictsOK.Add(1)
		sh.metrics.countPurposeVerdict(view.Purpose, outcomeCompliant)
	case v.Indeterminate != nil:
		sh.metrics.verdictsIndeterminate.Add(1)
		sh.metrics.countPurposeVerdict(view.Purpose, outcomeIndeterminate)
		if view.Outcome == outcomeCompliant {
			view.Outcome = outcomeIndeterminate
			view.Indeterminate = v.Indeterminate.String()
			view.Explanation = v.Explanation
			detail = v.Indeterminate.Cause.String()
		}
	case v.Violation != nil:
		sh.metrics.verdictsViolation.Add(1)
		sh.metrics.countPurposeVerdict(view.Purpose, outcomeViolation)
		if view.Outcome == outcomeCompliant {
			view.Outcome = outcomeViolation
			view.Violation = v.Violation.String()
			view.Explanation = v.Explanation
			detail = v.Violation.Reason
		}
	}
	if view.Outcome == was {
		return obs.Event{}
	}
	return obs.Event{
		Kind: obs.FlightVerdict, Shard: sh.id, Case: view.Case, Purpose: view.Purpose,
		Outcome: view.Outcome, Detail: detail, N: view.Entries,
		LSN: view.WalLSN, Engine: view.Engine, Span: sh.fed.Span,
	}
}

// view returns a copy of one case's view.
func (sh *shard) view(caseID string) (CaseView, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.views[caseID]
	if !ok {
		return CaseView{}, false
	}
	return *v, true
}

// viewCount returns the number of cases with live view state.
func (sh *shard) viewCount() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.views)
}

// collectViews appends copies of views passing the filter.
func (sh *shard) collectViews(dst []CaseView, accept func(*CaseView) bool) []CaseView {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, v := range sh.views {
		if accept == nil || accept(v) {
			dst = append(dst, *v)
		}
	}
	return dst
}

// loadViews seeds the view table from a checkpoint (before the worker
// starts; no locking concerns, but take the lock for form).
func (sh *shard) loadViews(views map[string]*CaseView) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for id, v := range views {
		c := *v
		c.Shard = sh.id
		sh.views[id] = &c
	}
}
