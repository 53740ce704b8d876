package audit

import (
	"testing"
	"time"

	"repro/internal/policy"
)

func chainBenchEntry() Entry {
	return Entry{
		User: "John", Role: "GP", Action: "read",
		Object: policy.Object{Subject: "Jane", Path: []string{"EPR", "Clinical"}},
		Task:   "T01", Case: "HT-1",
		Time: time.Date(2010, 3, 12, 12, 10, 0, 0, time.UTC), Status: Success,
	}
}

// TestChainStepZeroAlloc guards the ledger's per-leaf commitment: with
// a warm buffer the chain step allocates nothing, and ChainNext's own
// stack buffer fits an ordinary entry.
func TestChainStepZeroAlloc(t *testing.T) {
	e := chainBenchEntry()
	prev := ChainSeed()
	var buf []byte
	if allocs := testing.AllocsPerRun(100, func() { prev, buf = ChainStep(buf, prev, e) }); allocs != 0 {
		t.Errorf("ChainStep allocates %.1f times per entry, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { prev = ChainNext(prev, e) }); allocs != 0 {
		t.Errorf("ChainNext allocates %.1f times per entry, want 0", allocs)
	}
}

func BenchmarkChainNext(b *testing.B) {
	e := chainBenchEntry()
	prev := ChainSeed()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prev = ChainNext(prev, e)
	}
}

// TestNextCanonicalEntryZeroAlloc guards the checkpoint loader's
// per-leaf check: walking concatenated canonical entries in place
// allocates nothing, and chaining their bytes with a warm buffer gives
// ChainStep's hash.
func TestNextCanonicalEntryZeroAlloc(t *testing.T) {
	e := chainBenchEntry()
	blob := AppendCanonicalEntry(CanonicalEntry(e), e)
	var buf []byte
	allocs := testing.AllocsPerRun(100, func() {
		for b := blob; len(b) > 0; {
			n, caseID, err := NextCanonicalEntry(b)
			if err != nil || string(caseID) != e.Case {
				t.Fatalf("NextCanonicalEntry: %d %q %v", n, caseID, err)
			}
			_, buf = ChainCanonical(buf, ChainSeed(), b[:n])
			b = b[n:]
		}
	})
	if allocs != 0 {
		t.Errorf("checking and chaining two entries allocates %.1f times, want 0", allocs)
	}
	if got, _ := ChainCanonical(nil, ChainSeed(), CanonicalEntry(e)); got != ChainNext(ChainSeed(), e) {
		t.Error("ChainCanonical disagrees with ChainNext")
	}
}
