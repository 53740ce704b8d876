package ledger

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/policy"
)

func testKey(t testing.TB) ed25519.PrivateKey {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	copy(seed, "ledger-test-seed")
	return ed25519.NewKeyFromSeed(seed)
}

// mkEntries builds n deterministic entries round-robined over cases.
func mkEntries(n int, cases ...string) []audit.Entry {
	base := time.Date(2010, 3, 12, 12, 0, 0, 0, time.UTC)
	out := make([]audit.Entry, n)
	for i := range out {
		out[i] = audit.Entry{
			User:   fmt.Sprintf("user%d", i%3),
			Role:   "GP",
			Action: "read",
			Object: policy.Object{Subject: "Jane", Path: []string{"EPR", "Clinical"}},
			Task:   fmt.Sprintf("T%02d", i),
			Case:   cases[i%len(cases)],
			Time:   base.Add(time.Duration(i) * time.Minute),
			Status: audit.Success,
		}
	}
	return out
}

// TestLedgerConformsToSecureLog is the satellite cross-check: the
// ledger's per-leaf chain and seals must be byte-identical to
// audit.SecureLog over the same entries, and audit.Verify must accept
// the ledger's sealed view — one sealing implementation, two shapes.
func TestLedgerConformsToSecureLog(t *testing.T) {
	key := []byte("his-key")
	entries := mkEntries(13, "HT-1", "HT-2")
	l, err := New(Options{Key: testKey(t), Batch: 4, SealKey: key})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entries, 0); err != nil {
		t.Fatal(err)
	}
	sl := audit.NewSecureLog(key)
	for _, e := range entries {
		sl.Append(e)
	}
	want := sl.Entries()
	got := l.SealedEntries()
	if len(got) != len(want) {
		t.Fatalf("ledger sealed %d entries, SecureLog %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Chain != want[i].Chain || got[i].Seal != want[i].Seal {
			t.Fatalf("entry %d diverges from SecureLog: chain %s vs %s, seal %s vs %s",
				i, got[i].Chain, want[i].Chain, got[i].Seal, want[i].Seal)
		}
	}
	if err := audit.Verify(key, got, len(entries)); err != nil {
		t.Fatalf("audit.Verify rejected the ledger's sealed entries: %v", err)
	}
}

// TestLeafHoldsNoPointers: the leaf log keeps every entry the ledger
// has ever seen, so a leaf must stay pointer-free; otherwise the
// garbage collector would re-mark the whole history on every cycle.
func TestLeafHoldsNoPointers(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !walk(ty.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		}
		return false
	}
	if ty := reflect.TypeFor[leaf](); !walk(ty) {
		t.Errorf("ledger leaf %v holds a pointer", ty)
	}
}

// TestLeafLogSpansChunks appends past a leaf chunk and an arena chunk,
// one entry alone larger than an arena chunk, and requires every case
// to prove and the state to round-trip: leaves and their canonical
// bytes are found wherever they landed.
func TestLeafLogSpansChunks(t *testing.T) {
	l, err := New(Options{Key: testKey(t), Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{"HT-1", "HT-2", "HT-3", "HT-4", "HT-5"}
	entries := mkEntries(leafChunk+700, cases...)
	entries[leafChunk/2].User = strings.Repeat("u", arenaChunk+1)
	if err := l.Append(entries, 0); err != nil {
		t.Fatal(err)
	}
	if n := len(l.canon.chunks); n < 3 {
		t.Fatalf("%d arena chunks, want several", n)
	}
	for _, id := range cases {
		p, err := l.ProveCase(id)
		if err != nil {
			t.Fatalf("ProveCase(%s): %v", id, err)
		}
		if err := VerifyCaseProof(l.PublicKey(), p); err != nil {
			t.Fatalf("VerifyCaseProof(%s): %v", id, err)
		}
	}
	for i, se := range l.SealedEntries() {
		if want := entries[i]; !reflect.DeepEqual(se.Entry, want) {
			t.Fatalf("leaf %d rebuilt as %+v, want %+v", i, se.Entry, want)
		}
	}
	st, err := l.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Options{Key: testKey(t), Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(st); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if !reflect.DeepEqual(fresh.TreeHead(0), l.TreeHead(0)) {
		t.Error("restored ledger's tree head differs")
	}
	// Each case's leaf links, appended or loaded, lead through exactly
	// its own LSNs.
	want := map[string][]uint64{}
	for i, e := range entries {
		want[e.Case] = append(want[e.Case], uint64(i)+1)
	}
	for _, id := range cases {
		if got := l.caseLSNsLocked(id); !reflect.DeepEqual(got, want[id]) {
			t.Errorf("appended ledger: case %s LSNs %v, want %v", id, got, want[id])
		}
		if got := fresh.caseLSNsLocked(id); !reflect.DeepEqual(got, want[id]) {
			t.Errorf("loaded ledger: case %s LSNs %v, want %v", id, got, want[id])
		}
	}
}

func TestProofRoundTrip(t *testing.T) {
	l, err := New(Options{Key: testKey(t), Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	entries := mkEntries(11, "HT-1", "HT-2", "HT-3")
	if err := l.Append(entries, 0); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"HT-1", "HT-2", "HT-3"} {
		p, err := l.ProveCase(id)
		if err != nil {
			t.Fatalf("ProveCase(%s): %v", id, err)
		}
		if err := VerifyCaseProof(l.PublicKey(), p); err != nil {
			t.Fatalf("VerifyCaseProof(%s): %v", id, err)
		}
		if err := VerifyCaseProof(nil, p); err != nil {
			t.Fatalf("embedded-key verify (%s): %v", id, err)
		}
	}
	// The forced cut sealed everything: 11 leaves over batch 4 → 3 batches.
	if batches, leaves, open, _ := func() (int, uint64, int, uint64) { return l.Stats() }(); batches != 3 || leaves != 11 || open != 0 {
		t.Fatalf("after proving: batches=%d leaves=%d open=%d", batches, leaves, open)
	}
}

// TestProofTamper mutates each layer of a verified proof — the entry,
// the root chain, the signature, the path — and requires loud failure.
func TestProofTamper(t *testing.T) {
	l, err := New(Options{Key: testKey(t), Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkEntries(10, "HT-1", "HT-2"), 0); err != nil {
		t.Fatal(err)
	}
	pub := l.PublicKey()
	fresh := func() *CaseProof {
		p, err := l.ProveCase("HT-1")
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCaseProof(pub, p); err != nil {
			t.Fatalf("pristine proof must verify: %v", err)
		}
		return p
	}
	mutations := map[string]func(p *CaseProof){
		"entry byte": func(p *CaseProof) {
			p.Entries[0].Entry = json.RawMessage(strings.Replace(string(p.Entries[0].Entry), `"read"`, `"rend"`, 1))
		},
		"root leaves count": func(p *CaseProof) { p.Roots[0].Leaves++ },
		"root hash": func(p *CaseProof) {
			p.Roots[0].Root = strings.Repeat("00", 32)
		},
		"root chain": func(p *CaseProof) { p.Roots[1].PrevChain = strings.Repeat("11", 32) },
		"signature": func(p *CaseProof) {
			s := p.Roots[0].Sig
			p.Roots[0].Sig = s[64:] + s[:64]
		},
		"multiproof sibling": func(p *CaseProof) { p.Batches[0].Siblings[0] = strings.Repeat("22", 32) },
		"multiproof dropped": func(p *CaseProof) { p.Batches[0].Siblings = p.Batches[0].Siblings[1:] },
		"inclusion hash":     func(p *CaseProof) { p.Batches[1].Inclusion[0] = strings.Repeat("44", 32) },
		"inclusion dropped":  func(p *CaseProof) { p.Batches[1].Inclusion = nil },
		"batches swapped":    func(p *CaseProof) { p.Batches[0], p.Batches[1] = p.Batches[1], p.Batches[0] },
		"prev chain":         func(p *CaseProof) { p.Entries[1].PrevChain = strings.Repeat("33", 32) },
		"prev chain dropped": func(p *CaseProof) { p.Entries[1].PrevChain = "" },
		"case swap":          func(p *CaseProof) { p.Case = "HT-2" },
		"missing root":       func(p *CaseProof) { p.Roots, p.Batches = p.Roots[:1], p.Batches[:1] },
		"head size":          func(p *CaseProof) { p.Head.Size++ },
		"head root":          func(p *CaseProof) { p.Head.Root = strings.Repeat("55", 32) },
		"head signature": func(p *CaseProof) {
			s := p.Head.Sig
			p.Head.Sig = s[64:] + s[:64]
		},
		"no head":        func(p *CaseProof) { p.Head = nil },
		"version 1 form": func(p *CaseProof) { p.Version = 0 },
		"version 3":      func(p *CaseProof) { p.Version = 3 },
	}
	for name, mutate := range mutations {
		p := fresh()
		mutate(p)
		if err := VerifyCaseProof(pub, p); err == nil {
			t.Errorf("mutation %q: proof still verifies", name)
		} else if !errors.Is(err, ErrProof) {
			t.Errorf("mutation %q: error not ErrProof: %v", name, err)
		}
	}
	// Wrong key: a proof must not verify under someone else's key.
	other := ed25519.NewKeyFromSeed(make([]byte, 32))
	p := fresh()
	if err := VerifyCaseProof(other.Public().(ed25519.PublicKey), p); err == nil {
		t.Error("proof verified under the wrong public key")
	}
}

func TestRootsConsistency(t *testing.T) {
	l, err := New(Options{Key: testKey(t), Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkEntries(6, "HT-1"), 0); err != nil {
		t.Fatal(err)
	}
	early := l.TreeHead(0).Roots
	if len(early) != 3 {
		t.Fatalf("want 3 roots, got %d", len(early))
	}
	if err := l.Append(mkEntries(4, "HT-2"), 7); err != nil {
		t.Fatal(err)
	}
	late := l.TreeHead(0).Roots
	if len(late) != 5 {
		t.Fatalf("want 5 roots, got %d", len(late))
	}
	// Earlier roots must be a verbatim prefix of the later chain —
	// the append-only consistency property.
	for i, r := range early {
		if late[i] != r {
			t.Fatalf("root %d rewritten after later appends", i)
		}
	}
	if err := VerifyRoots(l.PublicKey(), late); err != nil {
		t.Fatalf("root chain does not verify: %v", err)
	}
	if err := VerifyRoots(l.PublicKey(), late[2:]); err != nil {
		t.Fatalf("root chain suffix must verify standalone: %v", err)
	}
	if got := l.TreeHead(3).Roots; len(got) != 2 {
		t.Fatalf("Roots(3): want 2, got %d", len(got))
	}
}

func TestStateExportLoad(t *testing.T) {
	key := testKey(t)
	l, err := New(Options{Key: key, Batch: 3})
	if err != nil {
		t.Fatal(err)
	}
	entries := mkEntries(11, "HT-1", "HT-2")
	if err := l.Append(entries, 0); err != nil {
		t.Fatal(err)
	}
	st, err := l.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.LastLSN(), uint64(9); got != want {
		t.Fatalf("state LastLSN = %d, want %d (9 sealed, 2 open)", got, want)
	}

	r, err := New(Options{Key: key, Batch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadState(st); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	// The open tail replays on top (the server's WAL replay path).
	if err := r.Append(entries[9:], 10); err != nil {
		t.Fatalf("replaying open tail: %v", err)
	}
	hWant, _ := l.Head()
	hGot, _ := r.Head()
	if hWant != hGot {
		t.Fatalf("restored head diverges: %+v vs %+v", hGot, hWant)
	}
	p, err := r.ProveCase("HT-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCaseProof(r.PublicKey(), p); err != nil {
		t.Fatalf("proof from restored ledger: %v", err)
	}
	// Sealing after restore must continue the chain identically to the
	// uninterrupted ledger.
	l.Cut()
	r2, _ := l.Head()
	r3, _ := r.Head()
	if r2 != r3 {
		t.Fatalf("post-restore seal diverges: %+v vs %+v", r3, r2)
	}
}

// TestStateTamperRefusesLoad edits exported states and requires each
// edit to fail the load, with the check that caught it named in the
// error: the version 1 JSON-entry form (converted on load) and the
// version 2 canonical bytes alike.
func TestStateTamperRefusesLoad(t *testing.T) {
	key := testKey(t)
	l, err := New(Options{Key: key, Batch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkEntries(9, "HT-1"), 0); err != nil {
		t.Fatal(err)
	}
	load := func(st *State) error {
		r, _ := New(Options{Key: key, Batch: 3})
		return r.LoadState(st)
	}
	refuse := func(name string, st *State, want string) {
		t.Helper()
		if err := load(st); err == nil {
			t.Errorf("%s: loaded without error", name)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q, want it to name %q", name, err, want)
		}
	}

	// Version 1: one JSON entry per leaf.
	if err := load(exportV1(t, l)); err != nil {
		t.Fatalf("untampered version 1 state: %v", err)
	}
	st := exportV1(t, l)
	st.Batches[1].Entries[0] = json.RawMessage(strings.Replace(string(st.Batches[1].Entries[0]), `"read"`, `"rend"`, 1))
	refuse("v1 tampered entry", st, "root mismatch")
	st = exportV1(t, l)
	st.Batches[0], st.Batches[1] = st.Batches[1], st.Batches[0]
	refuse("v1 reordered batches", st, "has seq")
	st = exportV1(t, l)
	st.Batches[2].Entries = st.Batches[2].Entries[:2]
	refuse("v1 missing entry", st, "leaf 3 of 3")
	other, _ := New(Options{Key: ed25519.NewKeyFromSeed(make([]byte, 32)), Batch: 3})
	if err := other.LoadState(exportV1(t, l)); err == nil {
		t.Error("version 1 state signed by another key loaded without error")
	}

	// Version 2: each batch's leaves as concatenated canonical bytes.
	// Batch 2 holds entries 3..5; its first leaf begins "5:user0".
	leaf := audit.CanonicalEntry(mkEntries(9, "HT-1")[5])
	replace := func(old, new string) func(*State) {
		return func(st *State) {
			c := st.Batches[1].Canon
			if !bytes.Contains(c, []byte(old)) {
				t.Fatalf("batch 2 has no %q: %q", old, c)
			}
			st.Batches[1].Canon = bytes.Replace(c, []byte(old), []byte(new), 1)
		}
	}
	for _, tc := range []struct {
		name string
		edit func(*State)
		want string
	}{
		{"flipped byte", func(st *State) { st.Batches[1].Canon[3] ^= 1 }, "root mismatch"},
		{"truncated", func(st *State) { c := st.Batches[1].Canon; st.Batches[1].Canon = c[:len(c)-1] }, "leaf 3 of 3: audit: canonical entry: malformed field 8"},
		{"trailing bytes", func(st *State) { st.Batches[1].Canon = append(st.Batches[1].Canon, '0') }, "1 bytes past its 3 leaves"},
		{"extra leaf", func(st *State) { st.Batches[1].Canon = append(st.Batches[1].Canon, leaf...) }, "bytes past its 3 leaves"},
		{"missing leaf", func(st *State) { c := st.Batches[1].Canon; st.Batches[1].Canon = c[:len(c)-len(leaf)] }, "leaf 3 of 3: audit: canonical entry: malformed field 1"},
		{"empty batch", func(st *State) { st.Batches[1].Canon = nil }, "leaf 1 of 3"},
		{"leading-zero length", replace("5:user0", "05:user0"), "malformed field 1"},
		{"bad time", replace("24:20100312", "24:20101312"), "malformed time"},
		{"unknown status", replace("7:success", "7:Success"), "unknown status"},
		{"reordered batches", func(st *State) { st.Batches[0], st.Batches[1] = st.Batches[1], st.Batches[0] }, "has seq"},
		{"bad signature", func(st *State) {
			sig := []byte(st.Batches[2].Root.Sig)
			sig[0] ^= 1
			st.Batches[2].Root.Sig = string(sig)
		}, "signature invalid"},
		{"long signature", func(st *State) { st.Batches[2].Root.Sig += "00" }, "signature invalid"},
		{"another batch's signature", func(st *State) { st.Batches[2].Root.Sig = st.Batches[1].Root.Sig }, "signature invalid"},
		{"leaf count", func(st *State) { st.Batches[2].Root.Leaves = 2 }, "bytes past its 2 leaves"},
		{"version 1 entries", func(st *State) { st.Batches[0].Entries = exportV1(t, l).Batches[0].Entries }, "carries version 1 entries"},
		{"unknown version", func(st *State) { st.Version = 3 }, "unsupported state version 3"},
	} {
		st, err := l.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if err := load(st); err != nil {
			t.Fatalf("untampered version 2 state: %v", err)
		}
		tc.edit(st)
		refuse(tc.name, st, tc.want)
	}
	st, err = l.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	other, _ = New(Options{Key: ed25519.NewKeyFromSeed(make([]byte, 32)), Batch: 3})
	if err := other.LoadState(st); err == nil || !strings.Contains(err.Error(), "signature invalid") {
		t.Errorf("version 2 state signed by another key: %v", err)
	}
}

func TestAppendGapRejected(t *testing.T) {
	l, err := New(Options{Key: testKey(t), Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkEntries(2, "HT-1"), 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkEntries(1, "HT-1"), 5); err == nil {
		t.Fatal("LSN gap accepted")
	}
	if err := l.Append(mkEntries(1, "HT-1"), 2); err == nil {
		t.Fatal("LSN overlap accepted")
	}
}

func TestWaitTimerSeals(t *testing.T) {
	l, err := New(Options{Key: testKey(t), Batch: 1000, Wait: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(mkEntries(3, "HT-1"), 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h, ok := l.Head(); ok {
			if h.Leaves != 3 {
				t.Fatalf("wait cut sealed %d leaves, want 3", h.Leaves)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("wait timer never sealed the open batch")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDirectLedgerBatchOne(t *testing.T) {
	l, err := New(Options{Key: testKey(t), Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkEntries(5, "HT-1"), 0); err != nil {
		t.Fatal(err)
	}
	roots := l.TreeHead(0).Roots
	if len(roots) != 5 {
		t.Fatalf("direct ledger: want 5 roots, got %d", len(roots))
	}
	p, err := l.ProveCase("HT-1")
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range p.Batches {
		if len(b.Siblings) != 0 {
			t.Fatalf("batch proof %d of a single-leaf batch has siblings", i)
		}
	}
	if err := VerifyCaseProof(l.PublicKey(), p); err != nil {
		t.Fatal(err)
	}
}

// TestLSNAccessors: LastLSN tracks every appended leaf, LastSealedLSN
// only those under a signed root — the pair the server uses to clamp
// WAL truncation and resume crash rebuilds.
func TestLSNAccessors(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("ledger without a signing key accepted")
	}
	l, err := New(Options{Key: testKey(t), Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.LastLSN(); got != 0 {
		t.Fatalf("empty ledger LastLSN = %d", got)
	}
	if got := l.LastSealedLSN(); got != 0 {
		t.Fatalf("empty ledger LastSealedLSN = %d", got)
	}
	if err := l.Append(mkEntries(6, "HT-1"), 1); err != nil {
		t.Fatal(err)
	}
	if got := l.LastLSN(); got != 6 {
		t.Fatalf("LastLSN = %d, want 6", got)
	}
	// One full batch of 4 sealed; leaves 5-6 still open.
	if got := l.LastSealedLSN(); got != 4 {
		t.Fatalf("LastSealedLSN = %d, want 4", got)
	}
	l.Cut()
	if got := l.LastSealedLSN(); got != 6 {
		t.Fatalf("after Cut: LastSealedLSN = %d, want 6", got)
	}
}

func TestUnknownCase(t *testing.T) {
	l, err := New(Options{Key: testKey(t), Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ProveCase("nope"); !errors.Is(err, ErrUnknownCase) {
		t.Fatalf("want ErrUnknownCase, got %v", err)
	}
}
