package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/encode"
	"repro/internal/ledger"
	"repro/internal/policy"
	"repro/internal/wal"
)

// At-rest tests (DESIGN.md §14–§15): an acknowledged entry has one
// form on disk, its canonical bytes, which the WAL record, the ledger
// leaf and the archived batch all hold; any entry the wire accepts has
// that form; and a WAL left in the retired record format boots only
// where no replay needs it.

// TestLongObjectPathIngests: an entry whose object path has 256
// components is acknowledged like any other, and ingest carries on
// after it with the node ready. A crash and reboot rebuild its case's
// verdict and proof byte for byte.
func TestLongObjectPathIngests(t *testing.T) {
	sc := hospitalScenario(t)
	cfg := ledgerConfig(t, 2, 4)
	srv1, ts1 := startServer(t, sc, cfg)

	long := sc.Trail.Entries()[0]
	long.Case = "HT-99"
	long.Object = policy.Object{Subject: "Jane", Path: make([]string, 256)}
	for i := range long.Object.Path {
		long.Object.Path[i] = "a"
	}
	postWait(t, ts1.URL, []audit.Entry{long})
	postWait(t, ts1.URL, sc.Trail.Entries())
	if code, body := getBody(t, ts1.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after the long path = %d %s", code, body)
	}
	evidence := func(url string) []string {
		var out []string
		for _, path := range []string{"/v1/cases/HT-99", "/v1/proofs/HT-99"} {
			code, body := getBody(t, url+path)
			if code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", path, code, body)
			}
			out = append(out, body)
		}
		return out
	}
	before := evidence(ts1.URL)
	srv1.Crash()
	ts1.Close()

	srv2, ts2 := startServer(t, sc, cfg)
	defer srv2.Shutdown(context.Background())
	if after := evidence(ts2.URL); !reflect.DeepEqual(after, before) {
		t.Errorf("verdict and proof differ across the crash\nbefore: %q\nafter:  %q", before, after)
	}
}

// atRest reads every acknowledged entry's bytes from the three places
// they rest — the WAL record, the ledger leaf (after a cut, so every
// leaf is in a batch) and, for the batches the last checkpoint
// archived, the archive — and requires them identical per LSN. It
// returns the WAL payloads, indexed by LSN-1.
func atRest(t *testing.T, srv *Server, cfg Config) [][]byte {
	t.Helper()
	var records [][]byte
	err := srv.wal.ReplayCanonical(1, func(lsn uint64, _ audit.Entry, rec *audit.CanonicalBatch) error {
		if lsn != uint64(len(records))+1 {
			t.Fatalf("WAL yields LSN %d after %d records", lsn, len(records))
		}
		canon, _ := rec.At(0)
		records = append(records, bytes.Clone(canon))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := func(st *ledger.State) [][]byte {
		var out [][]byte
		for _, b := range st.Batches {
			for rest := b.Canon; len(rest) > 0; {
				n, _, err := audit.NextCanonicalEntry(rest)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, rest[:n])
				rest = rest[n:]
			}
		}
		return out
	}
	srv.ledger.Cut()
	st, err := srv.ledger.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if got := leaves(st); !reflect.DeepEqual(got, records) {
		t.Fatalf("ledger leaves differ from WAL records (%d leaves, %d records)", len(got), len(records))
	}
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	_, archived := checkpointArchive(t, cfg, data)
	got := leaves(archived)
	if len(got) == 0 || !reflect.DeepEqual(got, records[:len(got)]) {
		t.Fatalf("archived leaves differ from WAL records (%d archived, %d records)", len(got), len(records))
	}
	return records
}

// TestAtRestBytesIdentical: on a ledger-on server, before and after a
// crash and reboot, every LSN's WAL payload, ledger leaf bytes and
// archived bytes are identical, and the reboot changes none of them.
func TestAtRestBytesIdentical(t *testing.T) {
	sc := hospitalScenario(t)
	cfg := ledgerConfig(t, 2, 4)
	entries := sc.Trail.Entries()
	cut := len(entries) / 2

	srv1, ts1 := startServer(t, sc, cfg)
	postWait(t, ts1.URL, entries[:cut])
	if err := srv1.checkpointRunning(); err != nil {
		t.Fatal(err)
	}
	postWait(t, ts1.URL, entries[cut:])
	before := atRest(t, srv1, cfg)
	if len(before) != len(entries) {
		t.Fatalf("WAL holds %d records, want %d", len(before), len(entries))
	}
	srv1.Crash()
	ts1.Close()

	srv2, _ := startServer(t, sc, cfg)
	defer srv2.Shutdown(context.Background())
	if after := atRest(t, srv2, cfg); !reflect.DeepEqual(after, before) {
		t.Error("WAL records differ across the crash")
	}
}

// rewriteWAL rewrites the WAL's one segment in format version v, each
// record's payload replaced by payload(its old payload), CRCs intact.
func rewriteWAL(t *testing.T, dir string, v uint32, payload func([]byte) []byte) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(names) != 1 {
		t.Fatalf("WAL segments %v (%v), want one", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), data[:24]...)
	binary.LittleEndian.PutUint32(out[8:], v)
	for off := 24; off < len(data); {
		p, n, err := encode.ReadRecordFrame(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		out = encode.AppendRecordFrame(out, payload(p))
		off += n
	}
	if err := os.WriteFile(names[0], out, 0o644); err != nil {
		t.Fatal(err)
	}
	return names[0]
}

// rewriteWALAsV1 turns the WAL's one segment into a segment in the
// retired format version 1 holding as many records from the same base
// LSN. The records' payloads are opaque: this build never decodes one.
func rewriteWALAsV1(t *testing.T, dir string) string {
	return rewriteWAL(t, dir, 1, func([]byte) []byte { return []byte("retired record") })
}

// TestNonCanonicalWALRecordRefusesBoot: a WAL record whose CRC holds but
// whose payload is not exactly one canonical entry is corruption, and
// boot refuses.
func TestNonCanonicalWALRecordRefusesBoot(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 2)
	srv1, ts1 := startServer(t, sc, cfg)
	postWait(t, ts1.URL, sc.Trail.Entries())
	srv1.Crash()
	ts1.Close()
	rewriteWAL(t, cfg.WALDir, 2, func(p []byte) []byte { return append(bytes.Clone(p), '\n') })

	srv2 := newServer(t, sc.Registry, hospitalChecker(sc), cfg)
	err := srv2.Start()
	if err == nil {
		srv2.Crash()
		t.Fatal("boot replayed a record that is not a canonical entry")
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Errorf("boot refusal %v, want wal.ErrCorrupt", err)
	}
}

// TestV1WALCoveredByCheckpointBoots: a clean shutdown of the previous
// build leaves a version 1 segment whose records its checkpoint covers.
// Boot never decodes it and serves the same verdicts, new records go
// to a fresh segment, and the next checkpoint truncates the old one.
func TestV1WALCoveredByCheckpointBoots(t *testing.T) {
	sc := hospitalScenario(t)
	cfg := ledgerConfig(t, 2, 4)
	srv1, ts1 := startServer(t, sc, cfg)
	postWait(t, ts1.URL, sc.Trail.Entries())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	old := rewriteWALAsV1(t, cfg.WALDir)

	srv2, ts2 := startServer(t, sc, cfg)
	defer srv2.Shutdown(ctx)
	assertOutcomes(t, getCases(t, ts2.URL+"/v1/cases"), expectedOutcomes(t, sc, sc.Trail))
	more := sc.Trail.Entries()[:2]
	for i := range more {
		more[i].Case = "HT-99"
	}
	postWait(t, ts2.URL, more)
	if err := srv2.checkpointRunning(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(old); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint kept the version 1 segment: %v", err)
	}
	names, _ := filepath.Glob(filepath.Join(cfg.WALDir, "*.wal"))
	if len(names) != 1 {
		t.Fatalf("WAL segments after the checkpoint: %v", names)
	}
	if data, err := os.ReadFile(names[0]); err != nil || binary.LittleEndian.Uint32(data[8:]) != 2 {
		t.Errorf("new records are not in a version 2 segment (%v)", err)
	}
}

// TestV1WALNeededRefusesBoot: without a checkpoint that covers them,
// version 1 records would have to be replayed, and boot refuses with
// the format and the remedy.
func TestV1WALNeededRefusesBoot(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 2)
	srv1, ts1 := startServer(t, sc, cfg)
	postWait(t, ts1.URL, sc.Trail.Entries())
	srv1.Crash()
	ts1.Close()
	rewriteWALAsV1(t, cfg.WALDir)

	srv2 := newServer(t, sc.Registry, hospitalChecker(sc), cfg)
	err := srv2.Start()
	if err == nil {
		srv2.Crash()
		t.Fatal("boot replayed a version 1 record")
	}
	if msg := err.Error(); !strings.Contains(msg, "retired format version 1") || !strings.Contains(msg, "SIGTERM") {
		t.Errorf("boot refusal %q does not name the format and the remedy", msg)
	}
}
