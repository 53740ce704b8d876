package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/wal"
)

// Crash-recovery and supervision tests. The contract under test is the
// tentpole of DESIGN.md §14: an acknowledged entry survives kill -9,
// a restored server reproduces exactly the verdicts of an uninterrupted
// run, corruption refuses to boot instead of guessing, and a panicking
// shard degrades loudly instead of wedging the node.

func walConfig(t *testing.T, shards int) (Config, string) {
	t.Helper()
	dir := t.TempDir()
	return Config{
		Shards:          shards,
		WALDir:          filepath.Join(dir, "wal"),
		WALFsync:        wal.FsyncAlways,
		CheckpointPath:  filepath.Join(dir, "ckpt.json"),
		CheckpointEvery: time.Hour,
	}, dir
}

// TestWALReplayAfterCrash streams half the trail, kills the server
// without any checkpoint, reboots on the same WAL directory with a
// different shard count, streams the rest, and requires verdicts
// identical to an uninterrupted run — every acknowledged entry came
// back from the log alone.
func TestWALReplayAfterCrash(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, dir := walConfig(t, 3)

	cut := sc.Trail.Len() / 2
	head := audit.NewTrail(sc.Trail.Entries()[:cut])
	tail := audit.NewTrail(sc.Trail.Entries()[cut:])

	srv1, ts1 := startServer(t, sc, cfg)
	resp, res := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, head))
	if resp.StatusCode != http.StatusAccepted || res.Accepted != cut {
		t.Fatalf("head ingest: %s %+v", resp.Status, res)
	}
	srv1.Crash()
	ts1.Close()

	// No checkpoint was ever written: recovery is pure WAL replay.
	if _, err := os.Stat(filepath.Join(dir, "ckpt.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("crash left a checkpoint behind: %v", err)
	}

	cfg2 := cfg
	cfg2.Shards = 7
	srv2, ts2 := startServer(t, sc, cfg2)
	if n := srv2.metrics.walReplayed.Load(); n != int64(cut) {
		t.Errorf("replayed %d records, want %d", n, cut)
	}
	resp, res = post(t, ts2.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, tail))
	if resp.StatusCode != http.StatusAccepted || res.Accepted != tail.Len() {
		t.Fatalf("tail ingest: %s %+v", resp.Status, res)
	}

	want := expectedOutcomes(t, sc, sc.Trail)
	got := getCases(t, ts2.URL+"/v1/cases")
	assertOutcomes(t, got, want)
	for _, v := range got.Cases {
		if n := sc.Trail.ByCase(v.Case).Len(); v.Entries != n {
			t.Errorf("case %s: %d entries after replay+tail, want %d", v.Case, v.Entries, n)
		}
		if v.WalLSN == 0 {
			t.Errorf("case %s: no wal_lsn in view", v.Case)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWALReplaySkipsCheckpointedPrefix crashes with BOTH a checkpoint
// and a WAL tail on disk: boot must feed exactly the records past each
// case's checkpointed LSN — no double-feeding, no gaps — even into a
// different shard layout.
func TestWALReplaySkipsCheckpointedPrefix(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 4)

	cut1 := sc.Trail.Len() / 3
	cut2 := 2 * sc.Trail.Len() / 3
	first := audit.NewTrail(sc.Trail.Entries()[:cut1])
	second := audit.NewTrail(sc.Trail.Entries()[cut1:cut2])
	tail := audit.NewTrail(sc.Trail.Entries()[cut2:])

	srv1, ts1 := startServer(t, sc, cfg)
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, first)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first ingest: %s", resp.Status)
	}
	// A live checkpoint covers the first third (and may truncate
	// covered segments); the second third lands only in the WAL.
	if err := srv1.checkpointRunning(); err != nil {
		t.Fatalf("live checkpoint: %v", err)
	}
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, second)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second ingest: %s", resp.Status)
	}
	srv1.Crash()
	ts1.Close()

	cfg2 := cfg
	cfg2.Shards = 9
	srv2, ts2 := startServer(t, sc, cfg2)
	if resp, _ := post(t, ts2.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, tail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tail ingest: %s", resp.Status)
	}
	want := expectedOutcomes(t, sc, sc.Trail)
	got := getCases(t, ts2.URL+"/v1/cases")
	assertOutcomes(t, got, want)
	for _, v := range got.Cases {
		if n := sc.Trail.ByCase(v.Case).Len(); v.Entries != n {
			t.Errorf("case %s: %d entries, want %d (double-fed or lost on replay)", v.Case, v.Entries, n)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWALCorruptionRefusesBoot flips a payload byte inside an interior
// WAL record and requires Start to fail with wal.ErrCorrupt — booting
// past silent corruption would fabricate verdicts.
func TestWALCorruptionRefusesBoot(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 2)

	srv1, ts1 := startServer(t, sc, cfg)
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	srv1.Crash()
	ts1.Close()

	segs, err := filepath.Glob(filepath.Join(cfg.WALDir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Offset 40 is inside the first record's payload (24-byte segment
	// header + 8-byte frame header + a few bytes), far from the torn
	// tail, so the damage is unambiguous corruption — not a crash scar.
	data[40] ^= 0x41
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(sc.Registry, hospitalChecker(sc), cfg)
	err = srv2.Start()
	if err == nil {
		t.Fatal("Start succeeded on a corrupt WAL")
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Errorf("Start error = %v, want wal.ErrCorrupt", err)
	}
}

// TestShardSupervisorRecoversPanic injects a one-shot panic into a
// shard worker mid-trail: the supervisor must restart the worker,
// count the dropped entry, and keep the node serving; a crash-reboot
// then recovers even the dropped entry from the WAL.
func TestShardSupervisorRecoversPanic(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 1)

	var fed atomic.Int64
	srv1 := New(sc.Registry, hospitalChecker(sc), cfg)
	srv1.shards[0].panicHook = func(e *audit.Entry) {
		if fed.Add(1) == 5 {
			panic("injected shard panic")
		}
	}
	if err := srv1.Start(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	resp, res := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail))
	if resp.StatusCode != http.StatusAccepted || res.Accepted != sc.Trail.Len() {
		t.Fatalf("ingest across panic: %s %+v", resp.Status, res)
	}
	if n := srv1.metrics.shardPanics.Load(); n != 1 {
		t.Errorf("shardPanics = %d, want 1", n)
	}
	if n := srv1.metrics.entriesDropped.Load(); n != 1 {
		t.Errorf("entriesDropped = %d, want 1", n)
	}
	if n := srv1.metrics.shardsFailed.Load(); n != 0 {
		t.Errorf("shardsFailed = %d, want 0 (restart budget not exhausted)", n)
	}
	// Still ready — restarts are reported, not degrading.
	code, body := getBody(t, ts1.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz after recovered panic = %d %s", code, body)
	}
	var rs readyStatus
	if err := json.Unmarshal([]byte(body), &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Status != "ready" || rs.ShardRestarts != 1 {
		t.Errorf("readyz = %+v, want ready with 1 restart", rs)
	}

	// The dropped entry was acknowledged, so it is in the WAL: a
	// crash-reboot without the fault must reach the exact offline
	// verdicts.
	srv1.Crash()
	ts1.Close()
	srv2, ts2 := startServer(t, sc, cfg)
	assertOutcomes(t, getCases(t, ts2.URL+"/v1/cases"), expectedOutcomes(t, sc, sc.Trail))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShardFailsAfterRestartBudget wedges one shard with a persistent
// panic: past the restart budget the shard must fail loudly (metric,
// degraded readyz with the shard id, honest 429s for its cases) while
// the other shards keep working.
func TestShardFailsAfterRestartBudget(t *testing.T) {
	sc := hospitalScenario(t)

	srv := New(sc.Registry, hospitalChecker(sc), Config{Shards: 2, ShardRestartLimit: 2})
	bad := srv.shardFor(sc.Trail.Cases()[0])
	bad.panicHook = func(e *audit.Entry) { panic("persistent shard fault") }
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Stream the whole trail; entries routed to the bad shard burn its
	// restart budget, everything else proceeds.
	post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail))
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.shardsFailed.Load() == 0 && time.Now().Before(deadline) {
		post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail))
	}
	if n := srv.metrics.shardsFailed.Load(); n != 1 {
		t.Fatalf("shardsFailed = %d, want 1", n)
	}
	if n := bad.restarts.Load(); n < 2 {
		t.Errorf("restarts = %d, want >= 2", n)
	}

	code, body := getBody(t, ts.URL+"/readyz")
	var rs readyStatus
	if err := json.Unmarshal([]byte(body), &rs); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || rs.Status != "degraded" {
		t.Errorf("readyz with failed shard = %d %+v, want 200 degraded", code, rs)
	}
	if len(rs.FailedShards) != 1 || rs.FailedShards[0] != bad.id {
		t.Errorf("failed_shards = %v, want [%d]", rs.FailedShards, bad.id)
	}

	// A failed shard refuses its cases with backpressure semantics: the
	// resume contract stays intact for a client that can retry against
	// a recovered replica.
	one := audit.NewTrail(sc.Trail.ByCase(sc.Trail.Cases()[0]).Entries()[:1])
	resp, res := post(t, ts.URL+"/v1/events", "application/x-ndjson", ndjson(t, one))
	if resp.StatusCode != http.StatusTooManyRequests || res.RejectedAtLine != 1 {
		t.Errorf("ingest into failed shard: %s %+v, want 429 rejected at line 1", resp.Status, res)
	}
}

// TestFailedShardCheckpointPreservesWAL fails one shard while
// acknowledged batches still sit in its queue — the drainer drops them
// on the premise they stay in the WAL — then runs both truncation
// paths (a live checkpoint and a clean Shutdown). Neither may remove
// the dropped records: a reboot must recover every acknowledged entry
// and reach the exact uninterrupted verdicts.
func TestFailedShardCheckpointPreservesWAL(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 2)
	cfg.ShardRestartLimit = 1
	cfg.WALSegmentBytes = 512 // many sealed segments: truncation has teeth

	srv1 := New(sc.Registry, hospitalChecker(sc), cfg)
	cases := sc.Trail.Cases()
	bad := srv1.shardFor(cases[0])
	var badEntries []audit.Entry
	var healthy bytes.Buffer
	nHealthy := 0
	for _, id := range cases {
		sub := sc.Trail.ByCase(id)
		if srv1.shardFor(id) == bad {
			badEntries = append(badEntries, sub.Entries()...)
		} else {
			if err := audit.WriteJSONL(&healthy, sub); err != nil {
				t.Fatal(err)
			}
			nHealthy += sub.Len()
		}
	}
	if nHealthy == 0 || len(badEntries) < 3 {
		t.Skip("case hashing left a shard too empty for this scenario")
	}

	var armed atomic.Bool
	release := make(chan struct{})
	bad.panicHook = func(e *audit.Entry) {
		if armed.Load() {
			<-release // holds the worker so every batch enqueues first
			panic("persistent shard fault")
		}
	}
	if err := srv1.Start(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	// One clean feed first, so the truncation clamp is a real LSN.
	first := audit.NewTrail(badEntries[:1])
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, first)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first ingest: %s", resp.Status)
	}
	// The rest of the shard's entries are acknowledged while the worker
	// is held at its first feed, then the fault burns the restart
	// budget and the drainer discards everything still queued.
	armed.Store(true)
	rest := audit.NewTrail(badEntries[1:])
	resp, res := post(t, ts1.URL+"/v1/events", "application/x-ndjson", ndjson(t, rest))
	if resp.StatusCode != http.StatusAccepted || res.Accepted != rest.Len() {
		t.Fatalf("bad-shard ingest: %s %+v", resp.Status, res)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for !bad.failed.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !bad.failed.Load() {
		t.Fatal("shard never failed")
	}
	if n := srv1.metrics.entriesDropped.Load(); n == 0 {
		t.Fatal("drainer dropped nothing; scenario broken")
	}

	// Healthy traffic after the failure pushes the WAL high-water mark
	// (and segment seals) far past the dropped records.
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", healthy.Bytes()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy ingest: %s", resp.Status)
	}
	if err := srv1.checkpointRunning(); err != nil {
		t.Fatalf("checkpoint with failed shard: %v", err)
	}

	// Clean shutdown (closeWAL's truncation path), then reboot without
	// the fault: the log must still hold everything the shard dropped.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	srv2, ts2 := startServer(t, sc, cfg)
	// Everything the failed shard lost comes back from the log: all its
	// records except the one entry fed before the fault was armed.
	if n := srv2.metrics.walReplayed.Load(); n != int64(len(badEntries)-1) {
		t.Errorf("replayed %d records, want %d", n, len(badEntries)-1)
	}
	want := expectedOutcomes(t, sc, sc.Trail)
	got := getCases(t, ts2.URL+"/v1/cases")
	assertOutcomes(t, got, want)
	for _, v := range got.Cases {
		if n := sc.Trail.ByCase(v.Case).Len(); v.Entries != n {
			t.Errorf("case %s: %d entries after reboot, want %d (dropped records truncated?)", v.Case, v.Entries, n)
		}
	}
	ts2.Close()
	srv2.Crash()
}

// TestCheckpointSurvivesDumpPanic panics a shard's dump mid-checkpoint:
// the checkpoint round must fail loudly (never wedge the loop waiting
// on a reply that isn't coming, never persist a cut missing the
// shard's cases), and the next round must succeed once the supervisor
// has restarted the worker.
func TestCheckpointSurvivesDumpPanic(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 2)

	srv := New(sc.Registry, hospitalChecker(sc), cfg)
	var faulted atomic.Bool
	srv.shards[0].snapHook = func() {
		if faulted.CompareAndSwap(false, true) {
			panic("injected dump panic")
		}
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.checkpointRunning() }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("checkpoint succeeded despite a panicked dump")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint wedged waiting for a panicked dump")
	}
	// The worker was restarted, not wedged: the next round succeeds.
	if err := srv.checkpointRunning(); err != nil {
		t.Fatalf("checkpoint after restart: %v", err)
	}
	if n := srv.metrics.shardPanics.Load(); n != 1 {
		t.Errorf("shardPanics = %d, want 1", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWALFailstopWedgesIngest breaks the log under the default
// fail-stop policy (segment rotation into a deleted directory) and
// requires the whole ingest surface to wedge with 503s and readiness
// to fail — the node must be pulled, not trusted to acknowledge into
// a black hole.
func TestWALFailstopWedgesIngest(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 2)
	cfg.WALSegmentBytes = 512 // rotate every few records

	srv, ts := startServer(t, sc, cfg)
	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("priming ingest: %s", resp.Status)
	}
	if err := os.RemoveAll(cfg.WALDir); err != nil {
		t.Fatal(err)
	}

	// The open segment's fd still works, so the failure lands on the
	// next rotation — retry until the append path hits it.
	broke := false
	for i := 0; i < 10 && !broke; i++ {
		resp, _ := post(t, ts.URL+"/v1/events", "application/x-ndjson", ndjson(t, sc.Trail))
		broke = resp.StatusCode == http.StatusServiceUnavailable
	}
	if !broke {
		t.Fatal("WAL failure never surfaced as 503")
	}
	if !srv.walRefusing() {
		t.Error("fail-stop did not wedge the ingest gate")
	}
	if n := srv.metrics.walAppendErrors.Load(); n == 0 {
		t.Error("walAppendErrors did not move")
	}

	// Everything is refused now, before any body processing.
	resp, res := post(t, ts.URL+"/v1/events", "application/x-ndjson", []byte("{}\n"))
	if resp.StatusCode != http.StatusServiceUnavailable || res.Error == "" {
		t.Errorf("post-wedge ingest = %s %+v, want 503 with error", resp.Status, res)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz under fail-stop = %d, want 503", code)
	}
	// Queries still answer — only ingest is wedged.
	if code, _ := getBody(t, ts.URL+"/v1/cases"); code != http.StatusOK {
		t.Errorf("queries wedged too: /v1/cases = %d", code)
	}
}

// TestWALShedKeepsServing breaks the log under the shed policy: each
// affected request gets a 503 with its resume line, but the node stays
// ready (degraded) and keeps serving queries.
func TestWALShedKeepsServing(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 2)
	cfg.WALSegmentBytes = 512
	cfg.WALFailure = WALShed

	srv, ts := startServer(t, sc, cfg)
	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("priming ingest: %s", resp.Status)
	}
	if err := os.RemoveAll(cfg.WALDir); err != nil {
		t.Fatal(err)
	}

	var res ingestResult
	broke := false
	for i := 0; i < 10 && !broke; i++ {
		var resp *http.Response
		resp, res = post(t, ts.URL+"/v1/events", "application/x-ndjson", ndjson(t, sc.Trail))
		broke = resp.StatusCode == http.StatusServiceUnavailable
	}
	if !broke {
		t.Fatal("WAL failure never surfaced as 503")
	}
	if res.RejectedAtLine == 0 {
		t.Errorf("shed 503 without resume line: %+v", res)
	}
	if srv.walRefusing() {
		t.Error("shed policy wedged the ingest gate")
	}

	code, body := getBody(t, ts.URL+"/readyz")
	var rs readyStatus
	if err := json.Unmarshal([]byte(body), &rs); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || rs.Status != "degraded" || rs.WAL != "failed" {
		t.Errorf("readyz under shed = %d %+v, want 200 degraded with failed WAL", code, rs)
	}
	if code, _ := getBody(t, ts.URL+"/v1/cases"); code != http.StatusOK {
		t.Errorf("queries wedged: /v1/cases = %d", code)
	}
}

// TestDrainDeadlinePartialCheckpoint sticks one shard's worker and
// shuts down with a deadline: Shutdown must return the deadline error,
// name the straggler, and still write a checkpoint covering the
// drained shard — whose cases then restore.
func TestDrainDeadlinePartialCheckpoint(t *testing.T) {
	sc := hospitalScenario(t)
	dir := t.TempDir()
	cfg := Config{
		Shards:          2,
		CheckpointPath:  filepath.Join(dir, "ckpt.json"),
		CheckpointEvery: time.Hour,
	}

	cases := sc.Trail.Cases()
	stuckCase := cases[0]
	srv := New(sc.Registry, hospitalChecker(sc), cfg)
	stuckShard := srv.shardFor(stuckCase)
	block := make(chan struct{})
	stuckShard.panicHook = func(e *audit.Entry) { <-block }
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(block)

	// Healthy cases first, with a barrier (the stuck shard is still
	// idle, so the barrier passes); then one entry to wedge the stuck
	// shard — posted without wait, since it never feeds.
	var healthy bytes.Buffer
	fedHealthy := 0
	for _, id := range cases {
		if srv.shardFor(id) != stuckShard {
			sub := sc.Trail.ByCase(id)
			if err := audit.WriteJSONL(&healthy, sub); err != nil {
				t.Fatal(err)
			}
			fedHealthy += sub.Len()
		}
	}
	if fedHealthy == 0 {
		t.Skip("every case hashed to the stuck shard")
	}
	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", healthy.Bytes()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy ingest: %s", resp.Status)
	}
	one := audit.NewTrail(sc.Trail.ByCase(stuckCase).Entries()[:1])
	if resp, _ := post(t, ts.URL+"/v1/events", "application/x-ndjson", ndjson(t, one)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stuck-shard ingest: %s", resp.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}

	// The partial checkpoint restores the drained shard's cases.
	srv2, ts2 := startServer(t, sc, cfg)
	got := getCases(t, ts2.URL+"/v1/cases")
	seen := map[string]int{}
	for _, v := range got.Cases {
		seen[v.Case] = v.Entries
	}
	for _, id := range cases {
		if srv.shardFor(id) == stuckShard {
			continue
		}
		if n := sc.Trail.ByCase(id).Len(); seen[id] != n {
			t.Errorf("case %s: %d entries after partial checkpoint restore, want %d", id, seen[id], n)
		}
	}
	ts2.Close()
	srv2.Crash()
}

// TestRetryAfterOccupancy checks the backpressure hint is derived and
// jittered, not hardcoded: small positive values that vary with load
// rather than a constant "1".
func TestRetryAfterOccupancy(t *testing.T) {
	sc := hospitalScenario(t)
	srv := New(sc.Registry, hospitalChecker(sc), Config{Shards: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := post(t, ts.URL+"/v1/events", "application/x-ndjson", ndjson(t, sc.Trail))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest: %s, want 429", resp.Status)
	}
	ra := resp.Header.Get("Retry-After")
	sec, err := strconv.Atoi(ra)
	if err != nil || sec < 1 || sec > 10 {
		t.Errorf("Retry-After = %q, want integer seconds in [1,10]", ra)
	}
	// The saturated queue (occupancy 1.0) must push the hint above the
	// old constant floor at least sometimes across draws.
	max := 0
	for i := 0; i < 32; i++ {
		if v := srv.retryAfterSeconds(false); v > max {
			max = v
		}
	}
	if max < 4 {
		t.Errorf("retryAfterSeconds never exceeded %d under full occupancy", max)
	}
}
