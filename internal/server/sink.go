package server

import (
	"log/slog"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/obs"
)

// sink is the one emitter of pipeline events (DESIGN.md §17). Shard
// workers hand it one batch_fed event per queue message and one
// verdict event per case leaving compliant; supervision and the WAL
// path hand it their failures. Each event lands in the flight ring, and
// by kind: verdicts go to GET /v1/watch, the rate-limited deviation log
// and the batch's feed span; batch_fed events go to the stage
// histograms and close the feed span into the trace ring; panic,
// shard_failed and the first wal_error dump the flight recorder.
type sink struct {
	flight  *obs.FlightRecorder
	watch   *watchHub
	ring    *obs.Ring
	tracer  *obs.Tracer
	metrics *metrics
	log     *slog.Logger
	// warnLim rate-limits the deviation log; walErrDumped makes the
	// WAL-failure dump a one-shot (the error is sticky, so every later
	// batch would re-trigger it).
	warnLim      *obs.LogLimiter
	walErrDumped atomic.Bool
}

func newSink(shards int, flightDir string, m *metrics, log *slog.Logger) *sink {
	ring := obs.NewRing(obs.DefaultRingCapacity)
	return &sink{
		flight:  obs.NewFlightRecorder(shards, obs.DefaultFlightEvents, flightDir),
		watch:   newWatchHub(),
		ring:    ring,
		tracer:  &obs.Tracer{Rec: ring},
		metrics: m,
		log:     log,
		warnLim: obs.NewLogLimiter(warnBurst, warnPerSec),
	}
}

// emit fans one event out. Safe for concurrent use; callers must not
// hold a lock HTTP readers wait on (the deviation log and a dump do
// I/O).
func (k *sink) emit(ev obs.Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	k.flight.Record(ev)
	switch ev.Kind {
	case obs.FlightBatchFed:
		k.metrics.observeStages(ev.Stages)
		if ev.Span != nil {
			// A batch split by saturation carries no timing record.
			if ev.Stages != nil {
				for _, st := range obs.Stages() {
					ev.Span.AddEvent(st.String(), "dur", ev.Stages.Dur(st).String())
				}
			}
			ev.Span.End()
		}
	case obs.FlightVerdict:
		k.watch.publish(ev)
		k.warnDeviation(ev)
		if ev.Span != nil {
			ev.Span.AddEvent("transition", "case", ev.Case, "outcome", ev.Outcome,
				"lsn", strconv.FormatUint(ev.LSN, 10))
		}
	case obs.FlightPanic:
		k.DumpFlightRecorder("shard_panic")
	case obs.FlightShardFail:
		k.DumpFlightRecorder("shard_failed")
	case obs.FlightWALError:
		if k.walErrDumped.CompareAndSwap(false, true) {
			k.DumpFlightRecorder("wal_error")
		}
	}
}

// openFeedSpan opens the feed span of a batch whose ingest carried
// trace context, as a child of the ingest span; nil when untraced, so
// untraced bulk loads record nothing. The span names the case when the
// whole batch belongs to one.
func (k *sink) openFeedSpan(sc obs.SpanContext, shard int, entries []audit.Entry) *obs.ActiveSpan {
	if !sc.IsValid() {
		return nil
	}
	sp := k.tracer.StartSpan(sc, "feed")
	sp.SetAttr("shard", strconv.Itoa(shard))
	sp.SetAttr("entries", strconv.Itoa(len(entries)))
	for i := range entries {
		if entries[i].Case != entries[0].Case {
			return sp
		}
	}
	if len(entries) > 0 {
		sp.SetAttr("case", entries[0].Case)
	}
	return sp
}

// warnDeviation logs a verdict transition through the token-bucket
// limiter: a poison stream that deviates on every entry gets a bounded
// log rate plus a suppressed=N summary instead of a line per entry.
func (k *sink) warnDeviation(ev obs.Event) {
	ok, suppressed := k.warnLim.Allow()
	if !ok {
		return
	}
	msg, key := "case violated", "reason"
	if ev.Outcome == outcomeIndeterminate {
		msg, key = "case indeterminate", "cause"
	}
	args := []any{"shard", ev.Shard, "case", ev.Case, key, ev.Detail, "lsn", ev.LSN,
		"trace_id", traceField(ev.Span.Context())}
	if suppressed > 0 {
		args = append(args, "suppressed", suppressed)
	}
	k.log.Warn(msg, args...)
}

// DumpFlightRecorder writes a flight-recorder dump file (used by the
// SIGQUIT handler, failure paths and tests) and returns its path.
func (k *sink) DumpFlightRecorder(reason string) (string, error) {
	path, err := k.flight.Dump(reason)
	if err != nil {
		k.log.Error("flight recorder dump failed", "reason", reason, "err", err)
		return "", err
	}
	k.log.Info("flight recorder dumped", "reason", reason, "path", path)
	return path, nil
}

// traceField renders the trace id for log correlation; empty when the
// entry was untraced (slog drops nothing, so empty is fine).
func traceField(sc obs.SpanContext) string {
	if !sc.IsValid() {
		return ""
	}
	return sc.TraceID.String()
}
