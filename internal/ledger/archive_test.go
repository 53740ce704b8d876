package ledger

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestArchiveAppendsIncrementally archives a ledger at three points of
// its growth: each append covers only the batches sealed since the
// reference it extends, and the three appends together are the same
// bytes as one archive of the finished ledger. Read back under the
// final reference, they load into the same roots and re-export the
// same state; a reference to an earlier prefix loads that prefix.
func TestArchiveAppendsIncrementally(t *testing.T) {
	entries := mkEntries(40, "HT-1", "HT-2", "HT-3")
	l, err := New(Options{Key: testKey(t), Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var archive []byte
	var ref ArchiveRef
	var refs []ArchiveRef
	for _, cut := range []int{10, 27, 40} {
		if err := l.Append(entries[l.LastLSN():cut], 0); err != nil {
			t.Fatal(err)
		}
		frames, next, sealed, err := l.AppendArchive(nil, ref)
		if err != nil {
			t.Fatal(err)
		}
		archive = append(archive, frames...)
		if ref = next; ref.Bytes != int64(len(archive)) || ref.Batches != cut/4 || sealed != uint64(cut/4*4) {
			t.Fatalf("after %d entries: ref %+v, sealed LSN %d, archive %d bytes", cut, ref, sealed, len(archive))
		}
		refs = append(refs, ref)
	}
	whole, wref, _, err := l.AppendArchive(nil, ArchiveRef{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, archive) || wref != ref {
		t.Fatalf("incremental archive differs from the one-shot archive (%d vs %d bytes, %+v vs %+v)", len(archive), len(whole), ref, wref)
	}
	want, err := l.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		st, err := ReadArchive(archive, r)
		if err != nil {
			t.Fatalf("prefix %d: %v", i, err)
		}
		back, _ := New(Options{Key: testKey(t), Batch: 4})
		if err := back.LoadState(st); err != nil {
			t.Fatalf("prefix %d: %v", i, err)
		}
		got, err := back.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Batches, want.Batches[:r.Batches]) {
			t.Errorf("prefix %d (%d batches) re-exports another state", i, r.Batches)
		}
	}
}

// FuzzLedgerArchive feeds arbitrary archive bytes under an arbitrary
// reference to ReadArchive and LoadState. They must refuse with an
// error or load, never panic; what loads must archive again to exactly
// the referenced bytes, under exactly the same reference.
func FuzzLedgerArchive(f *testing.F) {
	l := stateLedger(f, 9, 2, 3)
	archive, ref, _, err := l.AppendArchive(nil, ArchiveRef{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(archive, ref.Version, ref.Batches, ref.Bytes, ref.ChainHash)
	f.Add(archive, ref.Version, ref.Batches-1, ref.Bytes, ref.ChainHash)
	f.Add(append(append([]byte(nil), archive...), archive[:20]...), ref.Version, ref.Batches, ref.Bytes, ref.ChainHash)
	f.Add(archive[:len(archive)-1], ref.Version, ref.Batches, ref.Bytes-1, ref.ChainHash)
	f.Add([]byte{}, ArchiveVersion, 0, int64(0), "")
	f.Add(archive[:8], ArchiveVersion, 1<<30, int64(8), "")
	f.Add(archive, 2, ref.Batches, ref.Bytes, ref.ChainHash)
	f.Fuzz(func(t *testing.T, data []byte, version, batches int, size int64, chain string) {
		in := ArchiveRef{Version: version, Batches: batches, Bytes: size, ChainHash: chain}
		st, err := ReadArchive(data, in)
		if err != nil {
			return
		}
		r, _ := New(Options{Key: testKey(t), Batch: 3})
		if err := r.LoadState(st); err != nil {
			return
		}
		again, out, _, err := r.AppendArchive(nil, ArchiveRef{})
		if err != nil {
			t.Fatalf("loaded archive does not re-archive: %v", err)
		}
		if !bytes.Equal(again, data[:size]) || out != in {
			t.Fatalf("re-archive differs:\n got %x %+v\nwant %x %+v", again, out, data[:size], in)
		}
		// The reference round-trips through the checkpoint's JSON.
		raw, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		var back ArchiveRef
		if err := json.Unmarshal(raw, &back); err != nil || back != out {
			t.Fatalf("reference %s decodes to %+v (%v)", raw, back, err)
		}
	})
}
