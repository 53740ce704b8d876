package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/audit"
)

// exportV1 renders the ledger's state in the version 1 form, one JSONL
// wire entry per leaf, as ledgers before canonical-byte checkpoints
// wrote it.
func exportV1(t testing.TB, l *Ledger) *State {
	t.Helper()
	st, err := l.ExportState()
	if err != nil {
		t.Fatal(err)
	}
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
			raw, err := encodeEntryJSON(e)
			if err != nil {
				t.Fatal(err)
			}
			bs.Entries = append(bs.Entries, raw)
			rest = rest[n:]
		}
		bs.Canon = nil
	}
	return st
}

// stateLedger appends n entries over cases cases at the given batch
// size and seals the tail.
func stateLedger(t testing.TB, n, cases, batch int) *Ledger {
	t.Helper()
	ids := make([]string, cases)
	for i := range ids {
		ids[i] = fmt.Sprintf("HT-%d", i+1)
	}
	l, err := New(Options{Key: testKey(t), Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	entries := mkEntries(n, ids...)
	for i := 0; i < n; i += appendChunk {
		if err := l.Append(entries[i:min(i+appendChunk, n)], 0); err != nil {
			t.Fatal(err)
		}
	}
	l.Cut()
	return l
}

// TestLoadStateAllocs guards the version 2 load: leaves are checked and
// chained in place, so loading allocates per batch and per case, never
// per entry (the version 1 loader, which decoded every entry, made
// 1.27 allocations per entry on this state; this one makes about
// nine per 64-leaf batch, 0.15 per entry).
func TestLoadStateAllocs(t *testing.T) {
	const entries = 4096
	l := stateLedger(t, entries, 64, DefaultBatch)
	st, err := l.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		r, _ := New(Options{Key: testKey(t)})
		if err := r.LoadState(st); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("LoadState: %.0f allocations, %.3f per entry", allocs, allocs/entries)
	if perEntry := allocs / entries; perEntry >= 0.25 {
		t.Errorf("LoadState allocates %.3f times per entry, want < 0.25", perEntry)
	}
	// A case appended after the load extends its own leaf links, not
	// the next case's.
	r, _ := New(Options{Key: testKey(t)})
	if err := r.LoadState(st); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(mkEntries(1, "HT-1"), 0); err != nil {
		t.Fatal(err)
	}
	if got, want := r.caseLSNsLocked("HT-2"), l.caseLSNsLocked("HT-2"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("HT-2 LSNs %v after an HT-1 append, want %v", got, want)
	}
	if got := r.caseLSNsLocked("HT-1"); got[len(got)-1] != entries+1 {
		t.Errorf("HT-1 LSNs end at %d, want %d", got[len(got)-1], entries+1)
	}
}

// FuzzLedgerStateCanon feeds arbitrary bytes to LoadState as a batch's
// leaves. In place of a signed batch's canonical bytes (alone, or
// spliced into them) they must be refused unless they are those bytes.
// When they split into canonical entries, a ledger that appends those
// entries signs a state carrying exactly these bytes, which must load
// and re-export byte-identically, through JSON as a checkpoint does.
func FuzzLedgerStateCanon(f *testing.F) {
	base := stateLedger(f, 6, 2, 3)
	st0, err := base.ExportState()
	if err != nil {
		f.Fatal(err)
	}
	orig := st0.Batches[0].Canon
	f.Add(orig, uint16(0), uint8(3))
	f.Add(st0.Batches[1].Canon, uint16(5), uint8(2))
	f.Add(append(append([]byte(nil), orig...), st0.Batches[1].Canon...), uint16(9), uint8(4))
	f.Add(orig[:len(orig)-1], uint16(len(orig)), uint8(1))
	f.Add([]byte("0:0:0:0:0:0:24:00000101000000.0000000007:failure"), uint16(1), uint8(1))
	f.Add([]byte("05:"), uint16(3), uint8(0))
	f.Fuzz(func(t *testing.T, blob []byte, at uint16, batch uint8) {
		k := int(at) % (len(orig) + 1)
		spliced := append(append(append([]byte(nil), orig[:k]...), blob...), orig[k:]...)
		for _, c := range [][]byte{blob, spliced} {
			st, err := base.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			st.Batches[0].Canon = c
			r, _ := New(Options{Key: testKey(t), Batch: 3})
			if err := r.LoadState(st); err == nil && !bytes.Equal(c, orig) {
				t.Fatalf("batch 1 with leaves %q loaded under the root of %q", c, orig)
			}
		}

		var entries []audit.Entry
		for rest := blob; len(rest) > 0; {
			n, _, err := audit.NextCanonicalEntry(rest)
			if err != nil {
				return
			}
			e, err := audit.ParseCanonicalEntry(rest[:n])
			if err != nil {
				t.Fatalf("NextCanonicalEntry accepted %q, ParseCanonicalEntry refuses it: %v", rest[:n], err)
			}
			entries = append(entries, e)
			rest = rest[n:]
		}
		if len(entries) == 0 {
			return
		}
		l, _ := New(Options{Key: testKey(t), Batch: 1 + int(batch%8)})
		if err := l.Append(entries, 0); err != nil {
			t.Fatal(err)
		}
		l.Cut()
		st, err := l.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, bs := range st.Batches {
			all = append(all, bs.Canon...)
		}
		if !bytes.Equal(all, blob) {
			t.Fatalf("state of the parsed entries carries %q, want %q", all, blob)
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back State
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		r, _ := New(Options{Key: testKey(t), Batch: 1 + int(batch%8)})
		if err := r.LoadState(&back); err != nil {
			t.Fatalf("signed state of %q refused: %v", blob, err)
		}
		again, err := r.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if out, _ := json.Marshal(again); !bytes.Equal(out, data) {
			t.Fatalf("re-export differs:\n got %s\nwant %s", out, data)
		}
	})
}
