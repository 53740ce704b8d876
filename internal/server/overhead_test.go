package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
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
// same WAL pipeline without one. A pass boots a fresh server and times
// what POST /v1/events does per body (scan, IngestEntries in 256-entry
// chunks) through Flush. Arms run round-robin and keep their fastest
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
		srv := New(sc.Registry, hospitalChecker(sc), cfg)
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
		t0 := time.Now()
		for scanner.Scan() {
			if chunk = append(chunk, *scanner.Entry()); len(chunk) == cap(chunk) {
				ingest()
			}
		}
		ingest()
		srv.Flush()
		d := time.Since(t0)
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
		t.Logf("%s: %.0f ns/entry, %.2fx %s", a.name, float64(best[a.name])/float64(trail.Len()), ratio, a.vs)
		if ratio > 2 {
			t.Errorf("%s ingest is %.2fx the %s path, want <= 2x", a.name, ratio, a.vs)
		}
	}
}

// TestBatchedDispatchOneMessagePerRun: IngestEntries hands each run of
// consecutive same-shard entries to its shard queue as one message (one
// channel send and credit acquisition per run, not per entry), counted
// here as the batch_fed flight events shard workers record per message.
func TestBatchedDispatchOneMessagePerRun(t *testing.T) {
	sc := hospitalScenario(t)
	srv, _ := startServer(t, sc, Config{Shards: 2, FlightEvents: 1024})
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
