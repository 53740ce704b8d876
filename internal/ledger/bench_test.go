package ledger

import (
	"encoding/json"
	"testing"
)

const appendChunk = 256 // one server ingest body

// TestAppendAllocs guards the per-leaf commitment: a 256-entry chunk
// plus its Cut stays under one heap allocation per entry (sealing's
// per-batch strings and signature amortize over the batch).
func TestAppendAllocs(t *testing.T) {
	l, err := New(Options{Key: testKey(t)})
	if err != nil {
		t.Fatal(err)
	}
	entries := mkEntries(appendChunk, "HT-1", "HT-2", "HT-3", "HT-4", "HT-5", "HT-6", "HT-7", "HT-8")
	allocs := testing.AllocsPerRun(20, func() {
		if err := l.Append(entries, 0); err != nil {
			t.Fatal(err)
		}
		l.Cut()
	})
	if perEntry := allocs / appendChunk; perEntry >= 1 {
		t.Errorf("Append+Cut allocates %.2f times per entry, want < 1", perEntry)
	}
}

// BenchmarkLedgerAppend times Append of one 256-entry chunk plus Cut at
// the default batch (allocs/op counts per chunk). The ledger is replaced every 64 chunks so memory
// stays flat however large b.N grows.
func BenchmarkLedgerAppend(b *testing.B) {
	entries := mkEntries(appendChunk, "HT-1", "HT-2", "HT-3", "HT-4", "HT-5", "HT-6", "HT-7", "HT-8")
	var l *Ledger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			var err error
			if l, err = New(Options{Key: testKey(b)}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := l.Append(entries, 0); err != nil {
			b.Fatal(err)
		}
		l.Cut()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*appendChunk), "ns/entry")
}

// BenchmarkLedgerLoadState times a recovery boot's ledger half: the
// JSON decode of a 40,000-entry state (batch 64, 4,000 cases) and
// LoadState into a fresh ledger, every check included.
func BenchmarkLedgerLoadState(b *testing.B) {
	const entries = 40000
	st, err := stateLedger(b, entries, entries/10, DefaultBatch).ExportState()
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var back State
		if err := json.Unmarshal(data, &back); err != nil {
			b.Fatal(err)
		}
		l, err := New(Options{Key: testKey(b)})
		if err != nil {
			b.Fatal(err)
		}
		if err := l.LoadState(&back); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
}
