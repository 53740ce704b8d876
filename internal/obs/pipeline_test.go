package obs_test

// Tests for the PR 10 pipeline-observability primitives: the stage
// enum and record, the deterministic 1-in-N sampler, the per-shard
// flight recorder and its dump format, and the token-bucket log
// limiter.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestStageNamesAndOrder(t *testing.T) {
	want := []string{"decode", "wal_append", "wal_fsync", "queue_wait", "replay", "ledger_seal"}
	got := obs.Stages()
	if len(got) != len(want) || len(got) != int(obs.NumStages) {
		t.Fatalf("Stages() = %v, want %d stages", got, len(want))
	}
	for i, st := range got {
		if st.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, st.String(), want[i])
		}
	}
	if obs.Stage(obs.NumStages).String() != "unknown" {
		t.Errorf("out-of-range stage String() = %q", obs.Stage(obs.NumStages).String())
	}
}

func TestStageRecord(t *testing.T) {
	r := obs.NewStageRecord()
	r.Add(obs.StageReplay, 2*time.Millisecond)
	r.Add(obs.StageReplay, 3*time.Millisecond) // accumulates across panic-resume
	if d := r.Dur(obs.StageReplay); d != 5*time.Millisecond {
		t.Errorf("replay = %v, want 5ms", d)
	}
	r.MarkEnqueued()
	r.MarkDequeued()
	if r.Dur(obs.StageQueueWait) <= 0 {
		t.Error("queue wait did not advance between enqueue and dequeue")
	}
	r.MarkDecoded()
	if r.Dur(obs.StageDecode) <= 0 {
		t.Error("decode did not advance since open")
	}
	// Out-of-range stages are ignored, not a panic.
	r.Add(obs.NumStages, time.Second)
	if d := r.Dur(obs.NumStages); d != 0 {
		t.Errorf("out-of-range Dur = %v", d)
	}
}

// TestStageRecordNilSafe: every method on a nil record is a no-op, so
// unsampled batches cost only the nil check.
func TestStageRecordNilSafe(t *testing.T) {
	var r *obs.StageRecord
	r.Add(obs.StageReplay, time.Second)
	r.MarkDecoded()
	r.MarkEnqueued()
	r.MarkDequeued()
	if d := r.Dur(obs.StageReplay); d != 0 {
		t.Errorf("nil record Dur = %v", d)
	}
}

// TestStageSamplerDeterminism: the sampler is a counter, not a coin —
// exactly batches 0, N, 2N, ... are timed, so tests and CI can predict
// which batches produce histogram samples.
func TestStageSamplerDeterminism(t *testing.T) {
	s := obs.NewStageSampler(4)
	if s.Every() != 4 {
		t.Fatalf("Every() = %d", s.Every())
	}
	var got []int
	for i := 0; i < 12; i++ {
		if s.Sample() {
			got = append(got, i)
		}
	}
	if fmt.Sprint(got) != "[0 4 8]" {
		t.Errorf("sampled batches %v, want [0 4 8]", got)
	}

	always := obs.NewStageSampler(1)
	for i := 0; i < 5; i++ {
		if !always.Sample() {
			t.Fatalf("every=1 skipped batch %d", i)
		}
	}
	for _, off := range []*obs.StageSampler{obs.NewStageSampler(0), obs.NewStageSampler(-1), nil} {
		for i := 0; i < 5; i++ {
			if off.Sample() {
				t.Fatal("disabled sampler sampled a batch")
			}
		}
		if off.Every() != 0 {
			t.Errorf("disabled Every() = %d", off.Every())
		}
	}
}

// TestStageSamplerConcurrent: N goroutines hammering one sampler get
// exactly total/every true results between them (the counter never
// double-fires under contention). Run with -race in CI.
func TestStageSamplerConcurrent(t *testing.T) {
	const workers, perWorker, every = 8, 1000, 64
	s := obs.NewStageSampler(every)
	var wg sync.WaitGroup
	hits := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if s.Sample() {
					hits[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, h := range hits {
		total += h
	}
	if want := workers * perWorker / every; total != want {
		t.Errorf("%d samples across workers, want exactly %d", total, want)
	}
}

func TestFlightRecorderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := obs.NewFlightRecorder(2, 8, dir)

	f.Record(obs.Event{Shard: 0, Kind: obs.FlightBatchFed, Case: "HT-1", N: 3, LSN: 10})
	f.Record(obs.Event{Shard: 1, Kind: obs.FlightVerdict, Case: "HT-2", Outcome: "violation", Detail: "wrong task"})
	f.Record(obs.Event{Shard: -1, Kind: obs.FlightReadiness, Detail: "ready"})
	f.Record(obs.Event{Shard: 99, Kind: obs.FlightWALError}) // out of range → server ring

	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d events, want 4", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %+v", i, snap)
		}
	}
	if snap[0].Kind != obs.FlightBatchFed || snap[0].Shard != 0 || snap[0].Time.IsZero() {
		t.Errorf("first event = %+v", snap[0])
	}
	held, total, dumps := f.Stats()
	if held != 4 || total != 4 || dumps != 0 {
		t.Errorf("Stats = %d held, %d total, %d dumps", held, total, dumps)
	}

	path, err := f.Dump("test")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.HasPrefix(filepath.Base(path), "flightrec-test-") {
		t.Errorf("dump path %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Reason != "test" || len(dump.Events) != 4 || dump.Events[1].Case != "HT-2" || dump.Events[1].Outcome != "violation" {
		t.Errorf("dump = %+v", dump)
	}
	if _, _, dumps := f.Stats(); dumps != 1 || f.LastDump() != path {
		t.Errorf("dump bookkeeping: %d dumps, last %q", dumps, f.LastDump())
	}
}

// TestFlightRecorderEviction: a ring holds its newest perRing events;
// one shard flooding its ring does not evict another shard's history.
func TestFlightRecorderEviction(t *testing.T) {
	f := obs.NewFlightRecorder(2, 4, t.TempDir())
	f.Record(obs.Event{Shard: 1, Kind: obs.FlightVerdict, Case: "KEEP"})
	for i := 0; i < 10; i++ {
		f.Record(obs.Event{Shard: 0, Kind: obs.FlightBatchFed, N: i})
	}
	snap := f.Snapshot()
	if len(snap) != 5 { // 4 newest from shard 0 + shard 1's event
		t.Fatalf("snapshot holds %d events, want 5: %+v", len(snap), snap)
	}
	var kept bool
	for _, ev := range snap {
		if ev.Case == "KEEP" {
			kept = true
		}
		if ev.Kind == obs.FlightBatchFed && ev.N < 6 {
			t.Errorf("evicted event survived: %+v", ev)
		}
	}
	if !kept {
		t.Error("shard 1's event evicted by shard 0's flood")
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *obs.FlightRecorder
	f.Record(obs.Event{Kind: obs.FlightPanic})
	if f.Snapshot() != nil {
		t.Error("nil Snapshot")
	}
	if held, total, dumps := f.Stats(); held != 0 || total != 0 || dumps != 0 {
		t.Error("nil Stats")
	}
	if path, err := f.Dump("x"); path != "" || err != nil {
		t.Errorf("nil Dump = %q, %v", path, err)
	}
	if f.LastDump() != "" {
		t.Error("nil LastDump")
	}
}

// TestLogLimiter: the burst passes, the flood is suppressed and
// counted, and the next allowed statement carries the count.
func TestLogLimiter(t *testing.T) {
	l := obs.NewLogLimiter(3, 0.001) // refill slow enough to be inert here
	for i := 0; i < 3; i++ {
		if ok, sup := l.Allow(); !ok || sup != 0 {
			t.Fatalf("burst statement %d: ok=%v suppressed=%d", i, ok, sup)
		}
	}
	for i := 0; i < 7; i++ {
		if ok, _ := l.Allow(); ok {
			t.Fatalf("statement %d allowed with a dry bucket", i)
		}
	}
	if got := l.Suppressed(); got != 7 {
		t.Errorf("Suppressed() = %d, want 7", got)
	}

	// A nil limiter allows everything (call sites wire unconditionally).
	var nilLim *obs.LogLimiter
	if ok, sup := nilLim.Allow(); !ok || sup != 0 {
		t.Error("nil limiter suppressed")
	}
	if nilLim.Suppressed() != 0 {
		t.Error("nil limiter counted")
	}
}

// TestLogLimiterRefill: after the refill interval elapses the next
// statement is allowed and reports how many were dropped meanwhile.
func TestLogLimiterRefill(t *testing.T) {
	l := obs.NewLogLimiter(1, 50) // a token every 20ms
	if ok, _ := l.Allow(); !ok {
		t.Fatal("first statement suppressed")
	}
	dropped := 0
	deadline := time.Now().Add(2 * time.Second)
	for {
		ok, sup := l.Allow()
		if ok {
			if int(sup) != dropped {
				t.Errorf("suppressed=%d reported, %d actually dropped", sup, dropped)
			}
			return
		}
		dropped++
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRingDropped: the span ring counts what eviction discarded, for
// the auditd_trace_spans_dropped_total series.
func TestRingDropped(t *testing.T) {
	r := obs.NewRing(2)
	for i := 0; i < 5; i++ {
		r.Record(obs.Span{Name: fmt.Sprintf("s%d", i)})
	}
	if got := r.Dropped(); got != 3 {
		t.Errorf("Dropped() = %d, want 3", got)
	}
	if held, total := r.Stats(); held != 2 || total != 5 {
		t.Errorf("Stats = %d, %d", held, total)
	}
}
