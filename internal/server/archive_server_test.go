package server

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/encode"
	"repro/internal/hospital"
	"repro/internal/ledger"
	"repro/internal/workload"
)

// Ledger archive tests (DESIGN.md §13–§15): a checkpoint references a
// prefix of the append-only archive of sealed batches beside it, and
// boot replays the WAL only past the checkpoint's cut. Every check the
// checkpointed ledger state always had still runs on the archive.

// checkpointArchive decodes a checkpoint file into its members and
// the state its ledger reference names in the archive beside it.
func checkpointArchive(t *testing.T, cfg Config, data []byte) (map[string]json.RawMessage, *ledger.State) {
	t.Helper()
	var file map[string]json.RawMessage
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var ref ledger.ArchiveRef
	if err := json.Unmarshal(file["ledger"], &ref); err != nil || ref.Version != ledger.ArchiveVersion {
		t.Fatalf("checkpoint ledger member %s is not an archive reference (%v)", file["ledger"], err)
	}
	archive, err := os.ReadFile(cfg.CheckpointPath + ".ledger")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ledger.ReadArchive(archive, ref)
	if err != nil {
		t.Fatal(err)
	}
	return file, st
}

// frameArchive writes st in the archive format, independently of the
// ledger's writer: per batch, one CRC frame of the signed root's
// fields in binary followed by the leaves' canonical bytes.
func frameArchive(t *testing.T, st *ledger.State) []byte {
	t.Helper()
	var out []byte
	for _, b := range st.Batches {
		p := binary.LittleEndian.AppendUint64(nil, b.Root.Seq)
		p = binary.LittleEndian.AppendUint64(p, b.Root.FirstLSN)
		p = binary.LittleEndian.AppendUint32(p, uint32(b.Root.Leaves))
		for _, h := range []string{b.Root.Root, b.Root.PrevChain, b.Root.ChainHash, b.Root.Sig} {
			raw, err := hex.DecodeString(h)
			if err != nil {
				t.Fatal(err)
			}
			p = append(p, raw...)
		}
		out = encode.AppendRecordFrame(out, append(p, b.Canon...))
	}
	return out
}

// postWait posts entries with ?wait=1 and requires all accepted.
func postWait(t *testing.T, url string, entries []audit.Entry) {
	t.Helper()
	if resp, res := post(t, url+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, audit.NewTrail(entries))); resp.StatusCode != http.StatusAccepted || res.Accepted != len(entries) {
		t.Fatalf("ingest of %d entries: %s %+v", len(entries), resp.Status, res)
	}
}

// TestLedgerArchiveFaultsRefuseBoot boots from a checkpoint whose
// archive was lost, cut short, corrupted, edited, re-signed, reordered
// or swapped for another history, and requires Start to refuse each
// with an error naming the check that caught it.
func TestLedgerArchiveFaultsRefuseBoot(t *testing.T) {
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

	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	file, st := checkpointArchive(t, cfg, data)
	var ref ledger.ArchiveRef
	if err := json.Unmarshal(file["ledger"], &ref); err != nil {
		t.Fatal(err)
	}
	archive, err := os.ReadFile(cfg.CheckpointPath + ".ledger")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Batches) != 7 || !bytes.Equal(frameArchive(t, st), archive) {
		t.Fatalf("archive of %d batches does not match the format's independent writer", len(st.Batches))
	}

	// boot writes archive (nil: none) and the checkpoint referencing it
	// through ref, and returns Start's error.
	boot := func(archive []byte, ref ledger.ArchiveRef) error {
		t.Helper()
		raw, err := json.Marshal(ref)
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
		os.Remove(cfg.CheckpointPath + ".ledger")
		if archive != nil {
			if err := os.WriteFile(cfg.CheckpointPath+".ledger", archive, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		srv := newServer(t, sc.Registry, hospitalChecker(sc), cfg)
		if err := srv.Start(); err != nil {
			return err
		}
		srv.Crash()
		return nil
	}
	if err := boot(archive, ref); err != nil {
		t.Fatalf("untampered archive refused: %v", err)
	}
	// edited re-frames a copy of the archived state after edit.
	edited := func(edit func(st *ledger.State)) []byte {
		_, c := checkpointArchive(t, cfg, data)
		for i := range c.Batches {
			c.Batches[i].Canon = bytes.Clone(c.Batches[i].Canon)
		}
		edit(c)
		return frameArchive(t, c)
	}
	other := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	flipped := bytes.Clone(archive)
	flipped[encode.FrameOverhead+200] ^= 1 // inside the first batch's leaves
	shortRef := ref
	shortRef.Batches--
	otherEnd := ref
	otherEnd.ChainHash = st.Batches[len(st.Batches)-2].Root.ChainHash

	for _, tc := range []struct {
		name    string
		archive []byte
		ref     ledger.ArchiveRef
		want    string
	}{
		{"missing archive", nil, ref, "reading ledger archive"},
		{"shorter than its reference", archive[:len(archive)-1], ref, "shorter than the"},
		{"flipped byte", flipped, ref, "CRC mismatch"},
		{"edited leaf, re-framed", edited(func(st *ledger.State) {
			st.Batches[0].Canon = bytes.Replace(st.Batches[0].Canon, []byte(":John"), []byte(":Joan"), 1)
		}), ref, "root mismatch"},
		{"written under another key", edited(func(st *ledger.State) {
			for i := range st.Batches {
				ch, _ := hex.DecodeString(st.Batches[i].Root.ChainHash)
				st.Batches[i].Root.Sig = hex.EncodeToString(ed25519.Sign(other, ch))
			}
		}), ref, "signature invalid"},
		{"batches swapped", edited(func(st *ledger.State) {
			st.Batches[0], st.Batches[1] = st.Batches[1], st.Batches[0]
		}), ref, "has seq"},
		{"prefix ends on another chain hash", archive, otherEnd, "ends on chain hash"},
		{"batch count", archive, shortRef, "holds 7 batches, its checkpoint references 6"},
	} {
		err := boot(tc.archive, tc.ref)
		if err == nil {
			t.Errorf("%s: Start accepted the archive", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Start refused with %q, want it to name %q", tc.name, err, tc.want)
		}
	}
}

// TestLedgerArchiveTailPastReferenceBoots crashes between the archive
// fsync and the checkpoint rename: the archive holds batches past the
// published reference, one of them sealed early by a proof request, so
// the boot's WAL rebuild seals different batches than the stale tail.
// Boot must discard that tail, the next checkpoint must append from the
// referenced length, and the root chain and every proof bundle must
// match an uninterrupted control byte for byte, before and after
// another reboot.
func TestLedgerArchiveTailPastReferenceBoots(t *testing.T) {
	sc := hospitalScenario(t)
	entries := sc.Trail.Entries()
	parts := [][]audit.Entry{entries[:9], entries[9:19], entries[19:]}
	evidence := func(url string) (string, map[string]string) {
		_, roots := getBody(t, url+"/v1/roots")
		proofs := map[string]string{}
		for _, id := range sc.Trail.Cases() {
			code, body := getBody(t, url+"/v1/proofs/"+id)
			if code != http.StatusOK {
				t.Fatalf("/v1/proofs/%s: %d %s", id, code, body)
			}
			proofs[id] = body
		}
		return roots, proofs
	}

	cfg := ledgerConfig(t, 2, 4)
	srv1, ts1 := startServer(t, sc, cfg)
	postWait(t, ts1.URL, parts[0])
	if err := srv1.checkpointRunning(); err != nil {
		t.Fatal(err)
	}
	published, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	_, pub := checkpointArchive(t, cfg, published)
	postWait(t, ts1.URL, parts[1])
	if code, body := getBody(t, ts1.URL+"/v1/proofs/"+parts[1][len(parts[1])-1].Case); code != http.StatusOK {
		t.Fatalf("forced cut: %d %s", code, body)
	}
	if err := srv1.checkpointRunning(); err != nil {
		t.Fatal(err)
	}
	// The second checkpoint's archive append is durable; its rename
	// never happened.
	if err := os.WriteFile(cfg.CheckpointPath, published, 0o644); err != nil {
		t.Fatal(err)
	}
	srv1.Crash()
	ts1.Close()
	if fi, err := os.Stat(cfg.CheckpointPath + ".ledger"); err != nil || len(frameArchive(t, pub)) >= int(fi.Size()) {
		t.Fatalf("archive holds no tail past the published reference (%v)", err)
	}

	// The rebuilt ledger seals fewer leaves than the stale tail holds
	// (the forced cut is not replayed), so a checkpoint right after boot
	// leaves a shorter archive if the tail was discarded.
	srv2, ts2 := startServer(t, sc, cfg)
	if err := srv2.checkpointRunning(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(cfg.CheckpointPath + ".ledger"); err != nil || fi.Size() != srv2.archiveRef.Bytes {
		t.Fatalf("archive after the first checkpoint past the crash is not its reference's %d bytes (%v, %v)", srv2.archiveRef.Bytes, fi.Size(), err)
	}
	postWait(t, ts2.URL, parts[2])
	if err := srv2.checkpointRunning(); err != nil {
		t.Fatal(err)
	}
	crashedRoots, crashedProofs := evidence(ts2.URL)
	ts2.Close()
	srv2.Crash()

	ctrlCfg := ledgerConfig(t, 2, 4)
	srv3, ts3 := startServer(t, sc, ctrlCfg)
	for _, p := range parts {
		postWait(t, ts3.URL, p)
	}
	if err := srv3.checkpointRunning(); err != nil {
		t.Fatal(err)
	}
	ctrlRoots, ctrlProofs := evidence(ts3.URL)
	ts3.Close()
	srv3.Crash()
	got, err := os.ReadFile(cfg.CheckpointPath + ".ledger")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ctrlCfg.CheckpointPath + ".ledger")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("archive after the crash is %d bytes, the control's %d; the stale tail was not discarded", len(got), len(want))
	}
	check := func(when, roots string, proofs map[string]string) {
		t.Helper()
		if roots != ctrlRoots {
			t.Errorf("%s: /v1/roots differs from the control\ngot:  %s\nwant: %s", when, roots, ctrlRoots)
		}
		for id, body := range ctrlProofs {
			if proofs[id] != body {
				t.Errorf("%s: /v1/proofs/%s differs from the control", when, id)
			}
		}
	}
	check("after the crash", crashedRoots, crashedProofs)

	// The checkpoint written after the crash restores like any other.
	srv4, ts4 := startServer(t, sc, cfg)
	roots, proofs := evidence(ts4.URL)
	check("after another reboot", roots, proofs)
	ts4.Close()
	srv4.Crash()
}

// TestRecoveryBootDecodesOnlyTail: a boot from a checkpoint plus a WAL
// tail in the same unrotated segment decodes exactly the tail's
// records, however long the checkpointed prefix before it — doubling
// the prefix must not move the count. Replay starts past the
// checkpoint's cut instead of decoding the covered records only to
// skip them.
func TestRecoveryBootDecodesOnlyTail(t *testing.T) {
	sc := hospitalScenario(t)
	day, _, err := workload.HospitalDay(sc.Registry, hospital.TreatmentCode, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	entries := day.Entries()
	const tail = 64
	for _, prefix := range []int{128, 256} {
		if len(entries) < prefix+tail {
			t.Fatalf("day of %d entries is too short", len(entries))
		}
		cfg := ledgerConfig(t, 2, 16)
		srv1, ts1 := startServer(t, sc, cfg)
		postWait(t, ts1.URL, entries[:prefix])
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv1.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		ts1.Close()

		srv2, ts2 := startServer(t, sc, cfg)
		if n := srv2.metrics.walDecoded.Load(); n != 0 {
			t.Errorf("prefix %d: boot after a clean shutdown decoded %d WAL records, want 0", prefix, n)
		}
		postWait(t, ts2.URL, entries[prefix:prefix+tail])
		srv2.Crash()
		ts2.Close()
		if segs, _ := filepath.Glob(filepath.Join(cfg.WALDir, "*.wal")); len(segs) != 1 {
			t.Fatalf("prefix %d: %d WAL segments, want the prefix and tail in one", prefix, len(segs))
		}

		srv3, _ := startServer(t, sc, cfg)
		decoded, replayed := srv3.metrics.walDecoded.Load(), srv3.metrics.walReplayed.Load()
		srv3.Crash()
		if decoded != tail || replayed != tail {
			t.Errorf("prefix %d: recovery boot decoded %d and replayed %d WAL records, want the tail's %d",
				prefix, decoded, replayed, tail)
		}
	}
}

// TestGoldenLedgerCheckpointsBoot boots from checkpoints whose ledger
// half is the version 1 or version 2 JSON state reference ledgers
// wrote (internal/ledger/testdata). Each boots through every check and
// serves the same roots and proofs; its next checkpoint is in the
// archive form and restores them byte for byte.
func TestGoldenLedgerCheckpointsBoot(t *testing.T) {
	sc := hospitalScenario(t)
	seed := make([]byte, ed25519.SeedSize)
	copy(seed, "ledger-golden-seed")
	fig4, err := hospital.Trail()
	if err != nil {
		t.Fatal(err)
	}
	evidence := func(url string) string {
		_, roots := getBody(t, url+"/v1/roots")
		var out strings.Builder
		out.WriteString(roots)
		for _, id := range fig4.Cases() {
			code, body := getBody(t, url+"/v1/proofs/"+id)
			if code != http.StatusOK {
				t.Fatalf("/v1/proofs/%s: %d %s", id, code, body)
			}
			out.WriteString(body)
		}
		return out.String()
	}
	var first string
	for _, name := range []string{"golden_state.json", "golden_state_v2.json"} {
		state, err := os.ReadFile(filepath.Join("..", "ledger", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		cfg := ledgerConfig(t, 2, ledger.DefaultBatch)
		cfg.LedgerKey = ed25519.NewKeyFromSeed(seed)
		if err := os.WriteFile(cfg.CheckpointPath, []byte(fmt.Sprintf(`{"version":1,"saved_unix":1,"ledger":%s}`, state)), 0o644); err != nil {
			t.Fatal(err)
		}
		srv1, ts1 := startServer(t, sc, cfg)
		booted := evidence(ts1.URL)
		if first == "" {
			first = booted
		} else if booted != first {
			t.Errorf("%s serves other roots or proofs than golden_state.json", name)
		}
		if n, _, _, _ := srv1.ledger.Stats(); n != 7 {
			t.Fatalf("%s restored %d batches, want 7", name, n)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv1.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		ts1.Close()

		data, err := os.ReadFile(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, st := checkpointArchive(t, cfg, data); len(st.Batches) != 7 {
			t.Fatalf("%s: next checkpoint archives %d batches, want 7", name, len(st.Batches))
		}
		srv2, ts2 := startServer(t, sc, cfg)
		if again := evidence(ts2.URL); again != booted {
			t.Errorf("%s: reboot from the archive serves other roots or proofs", name)
		}
		ts2.Close()
		srv2.Crash()
	}
}

// TestWALCutKeepsUnarchivedLeaves takes a live checkpoint while every
// leaf still sits in the ledger's open batch, over a WAL of many small
// segments. The checkpoint archives no batch, so its cut must stay at
// 0: the open leaves exist only in the log, and the next boot rebuilds
// them from it instead of finding a gap where truncated segments were.
func TestWALCutKeepsUnarchivedLeaves(t *testing.T) {
	sc := hospitalScenario(t)
	cfg := ledgerConfig(t, 2, 64)
	cfg.WALSegmentBytes = 512 // many sealed segments: truncation has teeth
	srv1, ts1 := startServer(t, sc, cfg)
	postWait(t, ts1.URL, sc.Trail.Entries())
	if err := srv1.checkpointRunning(); err != nil {
		t.Fatal(err)
	}
	srv1.Crash()
	ts1.Close()
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.WALCut != 0 {
		t.Errorf("checkpoint with no archived batch records WAL cut %d, want 0", file.WALCut)
	}

	srv2, _ := startServer(t, sc, cfg)
	defer srv2.Crash()
	if n := srv2.ledger.LastLSN(); n != uint64(sc.Trail.Len()) {
		t.Errorf("rebuilt ledger holds %d leaves, want %d", n, sc.Trail.Len())
	}
}
