package server

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/ledger"
	"repro/internal/wal"
)

// Ledger-on-the-server tests. The contract under test is DESIGN.md §15:
// an acknowledged entry is provable (inclusion proof to a signed root),
// proofs verify offline with only the public key, and a kill -9 reboot
// rebuilds the ledger from WAL replay into byte-identical signed roots —
// the crash leaves no seam in the evidence.

func ledgerTestKey() ed25519.PrivateKey {
	seed := sha256.Sum256([]byte("server-ledger-test-seed"))
	return ed25519.NewKeyFromSeed(seed[:])
}

func ledgerConfig(t *testing.T, shards, batch int) Config {
	t.Helper()
	cfg, _ := walConfig(t, shards)
	cfg.WALFsync = wal.FsyncInterval
	cfg.LedgerKey = ledgerTestKey()
	cfg.LedgerBatch = batch
	return cfg
}

// TestProofEndpointVerifiesOffline streams the Figure 4 trail, fetches
// the proof bundle for every case, and verifies each offline against
// the public key — plus the root chain from /v1/roots. The violating
// cases must carry their verdicts in the bundle: a verdict shipped with
// evidence.
func TestProofEndpointVerifiesOffline(t *testing.T) {
	sc := hospitalScenario(t)
	cfg := ledgerConfig(t, 3, 4)
	srv, ts := startServer(t, sc, cfg)

	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}

	pub := cfg.LedgerKey.Public().(ed25519.PublicKey)
	want := expectedOutcomes(t, sc, sc.Trail)
	for id, outcome := range want {
		code, body := getBody(t, ts.URL+"/v1/proofs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/proofs/%s: %d %s", id, code, body)
		}
		var b struct {
			Case    string            `json:"case"`
			Outcome string            `json:"outcome"`
			Proof   *ledger.CaseProof `json:"proof"`
		}
		if err := json.Unmarshal([]byte(body), &b); err != nil {
			t.Fatalf("case %s: decoding bundle: %v", id, err)
		}
		if b.Outcome != outcome {
			t.Errorf("case %s: bundle outcome %s, want %s", id, b.Outcome, outcome)
		}
		if err := ledger.VerifyCaseProof(pub, b.Proof); err != nil {
			t.Errorf("case %s: proof does not verify: %v", id, err)
		}
		if n := sc.Trail.ByCase(id).Len(); len(b.Proof.Entries) != n {
			t.Errorf("case %s: proof covers %d entries, want %d", id, len(b.Proof.Entries), n)
		}
	}

	code, body := getBody(t, ts.URL+"/v1/roots")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/roots: %d %s", code, body)
	}
	var rr rootsResponse
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	if err := ledger.VerifyRoots(pub, rr.Roots); err != nil {
		t.Errorf("root chain does not verify: %v", err)
	}
	if rr.Head == nil || rr.Head.Size != uint64(len(rr.Roots)) {
		t.Errorf("/v1/roots head %+v does not cover the %d roots", rr.Head, len(rr.Roots))
	} else if err := ledger.VerifyConsistency(pub, rr.Head, rr.Head, nil); err != nil {
		t.Errorf("tree head does not verify: %v", err)
	}

	if code, _ := getBody(t, ts.URL+"/v1/proofs/NO-SUCH-CASE"); code != http.StatusNotFound {
		t.Errorf("unknown case: %d, want 404", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRootsConsistencyProof: a follower that kept the signed head from
// an earlier /v1/roots checks, with ?since=<its size>, that the later
// head extends it.
func TestRootsConsistencyProof(t *testing.T) {
	sc := hospitalScenario(t)
	cfg := ledgerConfig(t, 2, 4)
	_, ts := startServer(t, sc, cfg)
	pub := cfg.LedgerKey.Public().(ed25519.PublicKey)
	roots := func(query string) rootsResponse {
		t.Helper()
		code, body := getBody(t, ts.URL+"/v1/roots"+query)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/roots%s: %d %s", query, code, body)
		}
		var rr rootsResponse
		if err := json.Unmarshal([]byte(body), &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Head == nil {
			t.Fatalf("GET /v1/roots%s carries no head", query)
		}
		return rr
	}
	entries := sc.Trail.Entries()
	half := len(entries) / 2
	ingest := func(part []audit.Entry) {
		t.Helper()
		if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, audit.NewTrail(part))); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest: %s", resp.Status)
		}
	}
	ingest(entries[:half])
	old := roots("")
	ingest(entries[half:])
	cur := roots(fmt.Sprintf("?since=%d", old.Head.Size))
	if cur.Head.Size <= old.Head.Size || len(cur.Consistency) == 0 {
		t.Fatalf("head grew from %d to %d with a %d-hash proof", old.Head.Size, cur.Head.Size, len(cur.Consistency))
	}
	if uint64(len(cur.Roots)) != cur.Head.Size-old.Head.Size {
		t.Errorf("?since=%d listed %d roots, head grew by %d", old.Head.Size, len(cur.Roots), cur.Head.Size-old.Head.Size)
	}
	if err := ledger.VerifyConsistency(pub, old.Head, cur.Head, cur.Consistency); err != nil {
		t.Fatalf("later head does not extend the earlier one: %v", err)
	}
	if same := roots(fmt.Sprintf("?since=%d", cur.Head.Size)); len(same.Consistency) != 0 || *same.Head != *cur.Head {
		t.Errorf("?since=<head size>: head %+v with %d-hash proof, want the same head and none", same.Head, len(same.Consistency))
	}
}

// TestProofEndpointsDisabledWithoutLedger keeps the surface honest when
// the ledger is off: both endpoints answer 404, not empty proofs.
func TestProofEndpointsDisabledWithoutLedger(t *testing.T) {
	sc := hospitalScenario(t)
	_, ts := startServer(t, sc, Config{Shards: 2})
	if code, _ := getBody(t, ts.URL+"/v1/proofs/HT-10"); code != http.StatusNotFound {
		t.Errorf("/v1/proofs without ledger: %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/roots"); code != http.StatusNotFound {
		t.Errorf("/v1/roots without ledger: %d, want 404", code)
	}
}

// TestLedgerRequiresWAL: sealing is defined over the durable ingest
// path; a ledger without a WAL must refuse to start.
func TestLedgerRequiresWAL(t *testing.T) {
	sc := hospitalScenario(t)
	srv := New(sc.Registry, hospitalChecker(sc), Config{Shards: 2, LedgerKey: ledgerTestKey()})
	if err := srv.Start(); err == nil {
		srv.Crash()
		t.Fatal("Start accepted a ledger without a WAL")
	}
}

// ingestHalves streams the trail in two bodies on one connection, so
// the global WAL order is the trail order in every run being compared.
func ingestHalves(t *testing.T, url string, trail *audit.Trail) {
	t.Helper()
	cut := trail.Len() / 2
	head := audit.NewTrail(trail.Entries()[:cut])
	tail := audit.NewTrail(trail.Entries()[cut:])
	for _, part := range []*audit.Trail{head, tail} {
		if resp, _ := post(t, url+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, part)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest: %s", resp.Status)
		}
	}
}

// TestLedgerCrashRebuildMatchesControl is the tamper-evidence half of
// the kill -9 contract: crash mid-stream (after a live checkpoint, so
// recovery mixes checkpointed sealed batches with WAL-replayed leaves),
// reboot, finish the stream — and every signed root must be
// byte-identical to an uninterrupted control run with the same key.
// Determinism is what makes the ledger auditable across failures: a
// verifier holding roots from before the crash needs the rebuilt chain
// to extend, not fork, them.
func TestLedgerCrashRebuildMatchesControl(t *testing.T) {
	sc := hospitalScenario(t)
	cut := sc.Trail.Len() / 2
	head := audit.NewTrail(sc.Trail.Entries()[:cut])
	tail := audit.NewTrail(sc.Trail.Entries()[cut:])

	// Crashed run: half the trail, a live checkpoint (persists sealed
	// batches and may truncate the WAL up to them), crash, reboot,
	// other half.
	cfg := ledgerConfig(t, 3, 4)
	srv1, ts1 := startServer(t, sc, cfg)
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, head)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("head ingest: %s", resp.Status)
	}
	if err := srv1.checkpointRunning(); err != nil {
		t.Fatalf("live checkpoint: %v", err)
	}
	srv1.Crash()
	ts1.Close()

	srv2, ts2 := startServer(t, sc, cfg)
	if resp, _ := post(t, ts2.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, tail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tail ingest: %s", resp.Status)
	}
	srv2.ledger.Cut()
	crashed := srv2.ledger.TreeHead(0).Roots

	// Proofs still verify on the rebuilt ledger.
	pub := cfg.LedgerKey.Public().(ed25519.PublicKey)
	for _, id := range []string{"HT-10", "HT-11"} {
		p, err := srv2.ledger.ProveCase(id)
		if err != nil {
			t.Fatalf("ProveCase(%s) after rebuild: %v", id, err)
		}
		if err := ledger.VerifyCaseProof(pub, p); err != nil {
			t.Errorf("case %s: rebuilt proof does not verify: %v", id, err)
		}
	}

	// Control run: same key, fresh directories, no interruption.
	ctl := ledgerConfig(t, 3, 4)
	srv3, ts3 := startServer(t, sc, ctl)
	ingestHalves(t, ts3.URL, sc.Trail)
	srv3.ledger.Cut()
	control := srv3.ledger.TreeHead(0).Roots

	if len(crashed) == 0 {
		t.Fatal("crashed run sealed no batches")
	}
	if !reflect.DeepEqual(crashed, control) {
		t.Errorf("rebuilt root chain diverges from uninterrupted control\ncrashed: %+v\ncontrol: %+v", crashed, control)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv3.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerCrashProofBytesMatchControl: a client posting timestamps
// with a UTC offset gets the same proof bundle bytes whether the server
// ran through or crashed and rebuilt its ledger (and its verdict state)
// from the WAL, which keeps the instant but not the zone. Every
// acknowledged entry is proven, and explained, in UTC.
func TestLedgerCrashProofBytesMatchControl(t *testing.T) {
	sc := hospitalScenario(t)
	entries := sc.Trail.Entries()
	zone := time.FixedZone("", 2*3600)
	for i := range entries {
		entries[i].Time = entries[i].Time.In(zone)
	}
	trail := audit.NewTrail(entries)
	// Cut past the first violations, so replay rebuilds explanations too.
	cut := 3 * trail.Len() / 4
	proofs := func(url string) map[string]string {
		out := map[string]string{}
		for _, id := range trail.Cases() {
			code, body := getBody(t, url+"/v1/proofs/"+id)
			if code != http.StatusOK {
				t.Fatalf("/v1/proofs/%s: %d %s", id, code, body)
			}
			out[id] = body
		}
		return out
	}

	// Crashed run: the head of the trail, kill without a checkpoint,
	// reboot on the same WAL, the rest.
	cfg := ledgerConfig(t, 2, 4)
	srv1, ts1 := startServer(t, sc, cfg)
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, audit.NewTrail(entries[:cut:cut]))); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("head ingest: %s", resp.Status)
	}
	srv1.Crash()
	ts1.Close()
	srv2, ts2 := startServer(t, sc, cfg)
	if resp, _ := post(t, ts2.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, audit.NewTrail(entries[cut:]))); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tail ingest: %s", resp.Status)
	}
	crashed := proofs(ts2.URL)

	srv3, ts3 := startServer(t, sc, ledgerConfig(t, 2, 4))
	ingestHalves(t, ts3.URL, trail)
	control := proofs(ts3.URL)

	for _, id := range trail.Cases() {
		if crashed[id] != control[id] {
			t.Errorf("case %s: proof bundle differs across the crash\ncrashed: %s\ncontrol: %s", id, crashed[id], control[id])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range []*Server{srv2, srv3} {
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLedgerCheckpointRoundTrip: a clean shutdown seals the open tail
// and persists every batch; the next boot restores them from the
// checkpoint alone (the WAL was truncated past them) and extends the
// same chain.
func TestLedgerCheckpointRoundTrip(t *testing.T) {
	sc := hospitalScenario(t)
	cfg := ledgerConfig(t, 2, 4)

	srv1, ts1 := startServer(t, sc, cfg)
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	want := srv1.ledger.TreeHead(0).Roots
	if len(want) == 0 {
		t.Fatal("shutdown sealed no batches")
	}

	srv2, _ := startServer(t, sc, cfg)
	got := srv2.ledger.TreeHead(0).Roots
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored root chain differs\ngot:  %+v\nwant: %+v", got, want)
	}
	// The next checkpoint appends to the archive prefix restored from.
	if ref := srv2.archiveRef; ref.Batches != len(want) || ref.ChainHash != want[len(want)-1].ChainHash {
		t.Errorf("restored archive reference %+v, want %d batches ending on %s", ref, len(want), want[len(want)-1].ChainHash)
	}
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerTamperedCheckpointRefusesBoot edits a sealed entry inside
// a checkpoint whose ledger half is the JSON state older builds wrote,
// and requires Start to fail: the ledger re-derives every chain and
// signature on restore, so a doctored checkpoint cannot smuggle
// history past the signatures. The edit is made to the version 2
// canonical bytes and, with the state rewritten in the version 1 form
// (one JSON entry per leaf), to a JSON entry; both forms boot when
// left unedited. The archive form's faults are
// TestLedgerArchiveFaultsRefuseBoot's.
func TestLedgerTamperedCheckpointRefusesBoot(t *testing.T) {
	sc := hospitalScenario(t)
	cfg := ledgerConfig(t, 2, 4)

	srv1, ts1 := startServer(t, sc, cfg)
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	// boot writes the checkpoint with the archived batches inlined as
	// an edited JSON ledger state, and reports whether Start accepted
	// it.
	boot := func(edit func(*ledger.State)) bool {
		t.Helper()
		file, st := checkpointArchive(t, cfg, data)
		edit(st)
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		file["ledger"] = raw
		out, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cfg.CheckpointPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		srv := New(sc.Registry, hospitalChecker(sc), cfg)
		if err := srv.Start(); err != nil {
			return false
		}
		srv.Crash()
		return true
	}
	if !boot(func(st *ledger.State) {}) {
		t.Fatal("Start refused the untampered version 2 checkpoint")
	}
	if !boot(func(st *ledger.State) { stateToV1(t, st) }) {
		t.Fatal("Start refused the untampered version 1 checkpoint")
	}
	if boot(func(st *ledger.State) {
		stateToV1(t, st)
		entry := string(st.Batches[0].Entries[0])
		if !strings.Contains(entry, `"user":`) {
			t.Fatalf("unexpected entry shape: %s", entry)
		}
		st.Batches[0].Entries[0] = json.RawMessage(strings.Replace(entry, `"user":"`, `"user":"x`, 1))
	}) {
		t.Fatal("Start accepted a version 1 checkpoint with a tampered ledger entry")
	}
	if boot(func(st *ledger.State) {
		if st.Batches[0].Canon == nil {
			t.Fatal("checkpoint batch carries no canonical bytes")
		}
		st.Batches[0].Canon = bytes.Replace(st.Batches[0].Canon, []byte(":John"), []byte(":Joan"), 1)
	}) {
		t.Fatal("Start accepted a checkpoint with a tampered ledger leaf")
	}
}

// stateToV1 rewrites a ledger state in the version 1 form ledgers
// wrote before checkpoints carried canonical bytes: one JSONL wire
// entry per leaf.
func stateToV1(t *testing.T, st *ledger.State) {
	t.Helper()
	st.Version = 1
	for i := range st.Batches {
		bs := &st.Batches[i]
		for rest := bs.Canon; len(rest) > 0; {
			n, _, err := audit.NextCanonicalEntry(rest)
			if err != nil {
				t.Fatal(err)
			}
			e, err := audit.ParseCanonicalEntry(rest[:n])
			if err != nil {
				t.Fatal(err)
			}
			var line bytes.Buffer
			if err := audit.AppendJSONL(&line, e); err != nil {
				t.Fatal(err)
			}
			bs.Entries = append(bs.Entries, bytes.TrimRight(line.Bytes(), "\n"))
			rest = rest[n:]
		}
		bs.Canon = nil
	}
}

// TestRootsCountsMatchHead reads /v1/roots while another goroutine
// seals one batch per entry: the counts must come from the same
// critical section as the head and roots, so batches, sealed leaves,
// head.size and the newest listed root's seq all agree.
func TestRootsCountsMatchHead(t *testing.T) {
	sc := hospitalScenario(t)
	cfg := ledgerConfig(t, 2, 1)
	cfg.QueueDepth = 1 << 14
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, _ := startServer(t, sc, cfg)
	defer srv.Shutdown(context.Background())
	done := make(chan bool)
	go func() {
		entries, ok := sc.Trail.Entries(), true
		for i := 0; ok && i < 60*len(entries); i++ {
			_, ok = srv.IngestEntries(entries[i%len(entries):][:1])
		}
		done <- ok
	}()
	// Each poll re-lists the newest root seen, so every body has one.
	var since uint64
	for running := true; running; {
		select {
		case ok := <-done:
			if !ok {
				t.Fatal("ingest rejected")
			}
			running = false
		default:
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/roots?since=%d", since), nil))
		var rr rootsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			t.Fatalf("GET /v1/roots: %d %s", rec.Code, rec.Body)
		}
		if rr.Head == nil {
			continue
		}
		if n := len(rr.Roots); uint64(rr.Batches) != rr.Head.Size || rr.Leaves != rr.Head.Size || n == 0 || rr.Roots[n-1].Seq != rr.Head.Size {
			t.Fatalf("since %d: batches %d, leaves %d, %d roots, head size %d", since, rr.Batches, rr.Leaves, n, rr.Head.Size)
		}
		since = rr.Head.Size - 1
	}
}
