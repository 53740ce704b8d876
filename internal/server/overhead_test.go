package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/hospital"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestDurableIngestOverhead holds the durability tiers to their
// admission bounds on a 4,000-entry hospital day: the interval-fsync
// WAL within 2x of no WAL, and the batch-64 ledger within 2x of the
// same WAL pipeline without one. A pass boots a fresh server and
// measures the process CPU time (user + system, every goroutine) of
// what POST /v1/events does per body (scan, IngestEntries in 256-entry
// chunks) through Flush; CPU time does not count the time a shared
// box's neighbours hold the cores, which wall time does. Each pass
// starts from a collected heap, so one arm's garbage is not collected
// on another arm's clock. Arms run round-robin and keep their fastest
// of five passes, so stalls and drift land on every arm alike.
// perfbench measures the same path's absolute cost per entry.
func TestDurableIngestOverhead(t *testing.T) {
	sc := hospitalScenario(t)
	trail, _, err := workload.HospitalDay(sc.Registry, hospital.TreatmentCode, 4000, 17)
	if err != nil {
		t.Fatal(err)
	}
	doc := ndjson(t, trail)
	pass := func(cfg Config) time.Duration {
		cfg.Shards, cfg.QueueDepth = 4, 1<<18
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		srv := newServer(t, sc.Registry, hospitalChecker(sc), cfg)
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown(context.Background())
		scanner := audit.NewEntryScanner(bytes.NewReader(doc), audit.DecodeOptions{})
		chunk := make([]audit.Entry, 0, 256)
		fed := 0
		ingest := func() {
			if n, ok := srv.IngestEntries(chunk); !ok {
				t.Fatalf("ingest rejected after %d entries", fed+n)
			}
			fed += len(chunk)
			chunk = chunk[:0]
		}
		runtime.GC()
		cpu0 := processCPU(t)
		for scanner.Scan() {
			if chunk = append(chunk, *scanner.Entry()); len(chunk) == cap(chunk) {
				ingest()
			}
		}
		ingest()
		srv.Flush()
		d := processCPU(t) - cpu0
		if err := scanner.Err(); err != nil || fed != trail.Len() {
			t.Fatalf("fed %d of %d entries: %v", fed, trail.Len(), err)
		}
		return d
	}

	walCfg := func() Config { return Config{WALDir: t.TempDir(), WALFsync: wal.FsyncInterval} }
	arms := []struct {
		name, vs string // vs: the arm this one must stay within 2x of
		cfg      func() Config
	}{
		{"no-wal", "", func() Config { return Config{} }},
		{"wal-interval", "no-wal", walCfg},
		{"wal-interval+ledger-b64", "wal-interval", func() Config {
			c := walCfg()
			c.LedgerKey, c.LedgerBatch = ledgerTestKey(), 64
			return c
		}},
	}
	best := map[string]time.Duration{}
	for round := 0; round < 5; round++ {
		for _, a := range arms {
			if d := pass(a.cfg()); best[a.name] == 0 || d < best[a.name] {
				best[a.name] = d
			}
		}
	}
	for _, a := range arms[1:] {
		ratio := float64(best[a.name]) / float64(best[a.vs])
		t.Logf("%s: %.0f CPU ns/entry, %.2fx %s", a.name, float64(best[a.name])/float64(trail.Len()), ratio, a.vs)
		if ratio > 2 {
			t.Errorf("%s ingest is %.2fx the %s path, want <= 2x", a.name, ratio, a.vs)
		}
	}
}

// processCPU reads the user + system CPU time this process has used.
func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIngestAllocs bounds the heap allocations of durable ingest: a
// warm 256-line NDJSON ?wait=1 POST through Server.Handler(), with the
// interval-fsync WAL, a batch-64 ledger and a compiled checker, makes
// fewer than 0.35 allocations per entry (it reads 0.32; under -race,
// where sync.Pool drops values at random, it reads 0.36–0.45 and the
// bound is 0.5), counted across every goroutine the request wakes
// (handler, shard workers, WAL, ledger). The entry itself is never a
// heap object of its own: not per fed entry, not per ledger leaf, and
// the request scanner is pooled; each shard feeds into one Verdict it
// owns, the ledger's case index grows no per-case slice (it copies a
// new case's ID out of the canonical bytes, one string per case), and
// a sealed batch renders its four hex fields as one string.
func TestIngestAllocs(t *testing.T) {
	const body, warm, runs = 256, 8, 16
	sc := hospitalScenario(t)
	trail, _, err := workload.HospitalDay(sc.Registry, hospital.TreatmentCode, 12000, 23)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(ndjson(t, trail), []byte("\n"))
	if len(lines) < (warm+runs+1)*body {
		t.Fatalf("trail has %d lines, want %d", len(lines), (warm+runs+1)*body)
	}
	checker := hospitalChecker(sc)
	checker.UseCompiled = true
	srv := newServer(t, sc.Registry, checker, Config{
		Shards: 2, QueueDepth: 1 << 16,
		WALDir: t.TempDir(), WALFsync: wal.FsyncInterval,
		LedgerKey: ledgerTestKey(), LedgerBatch: 64,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	next := 0
	postBody := func() {
		doc := bytes.Join(lines[next*body:(next+1)*body], nil)
		next++
		req := httptest.NewRequest(http.MethodPost, "/v1/events?wait=1", bytes.NewReader(doc))
		req.Header.Set("Content-Type", "application/x-ndjson")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST body %d: %d %s", next, rec.Code, rec.Body)
		}
	}
	for i := 0; i < warm; i++ {
		postBody()
	}
	perEntry := testing.AllocsPerRun(runs, postBody) / body
	t.Logf("%.2f allocations per entry", perEntry)
	bound := 0.35
	if raceEnabled {
		bound = 0.5
	}
	if perEntry >= bound {
		t.Errorf("durable ingest allocates %.2f times per entry, want < %.2f", perEntry, bound)
	}
}

// TestBatchedDispatchOneMessagePerRun: IngestEntries hands each run of
// consecutive same-shard entries to its shard queue as one message (one
// channel send and credit acquisition per run, not per entry), counted
// here as the batch_fed flight events shard workers record per message.
func TestBatchedDispatchOneMessagePerRun(t *testing.T) {
	sc := hospitalScenario(t)
	srv, _ := startServer(t, sc, Config{Shards: 2})
	defer srv.Shutdown(context.Background())
	// Runs of runLen entries alternate between cases on different shards.
	cases := [2]string{"HT-1", "HT-2"}
	for i := 3; srv.shardFor(cases[1]) == srv.shardFor(cases[0]); i++ {
		cases[1] = fmt.Sprintf("HT-%d", i)
	}
	const runs, runLen = 40, 7
	entries := make([]audit.Entry, runs*runLen)
	for i := range entries {
		entries[i] = audit.Entry{User: "John", Role: "GP", Action: "read", Task: "T01",
			Case: cases[i/runLen%2], Time: time.Date(2026, 7, 5, 9, 0, i, 0, time.UTC), Status: audit.Success}
	}
	if n, ok := srv.IngestEntries(entries); !ok {
		t.Fatalf("ingest accepted %d of %d", n, len(entries))
	}
	srv.Flush()
	msgs, fed := 0, 0
	for _, ev := range srv.flight.Snapshot() {
		if ev.Kind == obs.FlightBatchFed {
			msgs++
			fed += ev.N
		}
	}
	if msgs != runs || fed != len(entries) {
		t.Errorf("%d queue messages carried %d entries, want %d (one per run) carrying %d", msgs, fed, runs, len(entries))
	}
}
