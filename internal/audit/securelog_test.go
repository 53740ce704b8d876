package audit

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
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

// TestParseCanonicalTimeCalendar: the time field check accepts exactly
// the fields appendCanonicalTime writes — calendar edges included — and
// agrees with rendering the parsed time again and comparing, the check
// it runs for years that are not four digits.
func TestParseCanonicalTimeCalendar(t *testing.T) {
	for _, tc := range []struct {
		field string
		want  time.Time // zero: refused
	}{
		{"20240229120000.000000000", time.Date(2024, 2, 29, 12, 0, 0, 0, time.UTC)},
		{"20230229120000.000000000", time.Time{}},
		{"19000229120000.000000000", time.Time{}},
		{"20000229120000.000000000", time.Date(2000, 2, 29, 12, 0, 0, 0, time.UTC)},
		{"20240431000000.000000000", time.Time{}},
		{"20240430000000.000000000", time.Date(2024, 4, 30, 0, 0, 0, 0, time.UTC)},
		{"20241231235960.000000000", time.Time{}},
		{"20241231235959.999999999", time.Date(2024, 12, 31, 23, 59, 59, 999999999, time.UTC)},
		{"20241231240000.000000000", time.Time{}},
		{"20241231236000.000000000", time.Time{}},
		{"20240001000000.000000000", time.Time{}},
		{"20241301000000.000000000", time.Time{}},
		{"20240100000000.000000000", time.Time{}},
		{"09990101000000.000000000", time.Date(999, 1, 1, 0, 0, 0, 0, time.UTC)},
		{"00000229000000.000000000", time.Date(0, 2, 29, 0, 0, 0, 0, time.UTC)},
		{"9990101000000.000000000", time.Time{}},
		{"+9990101000000.000000000", time.Time{}},
		{"-0010101000000.000000000", time.Time{}},
		{"100000101000000.000000000", time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{"100000230000000.000000000", time.Time{}},
		{"2024010100000.000000000", time.Time{}},
		{"20240101000000,000000000", time.Time{}},
		{"2024010100000a.000000000", time.Time{}},
	} {
		got, ok := parseCanonicalTime([]byte(tc.field))
		if ok != !tc.want.IsZero() || !got.Equal(tc.want) {
			t.Errorf("parseCanonicalTime(%q) = %v, %v; want %v", tc.field, got, ok, tc.want)
		}
		if _, ref := renderedTimeField(tc.field); ref != ok {
			t.Errorf("parseCanonicalTime(%q) accepts = %v, re-rendering accepts = %v", tc.field, ok, ref)
		}
	}
	for _, year := range []int{0, 999, 1900, 2000, 2023, 2024, 9999} {
		for month := 0; month <= 13; month++ {
			for day := 0; day <= 32; day++ {
				for _, clock := range []string{"000000", "235959", "235960", "236000", "240000"} {
					field := fmt.Sprintf("%04d%02d%02d%s.000000001", year, month, day, clock)
					got, ok := parseCanonicalTime([]byte(field))
					want, ref := renderedTimeField(field)
					if ok != ref || (ok && !got.Equal(want)) {
						t.Fatalf("parseCanonicalTime(%q) = %v, %v; re-rendering gives %v, %v", field, got, ok, want, ref)
					}
				}
			}
		}
	}
}

// renderedTimeField checks a time field the slow way: build the time
// from the field's numbers and accept it only if appendCanonicalTime
// writes the field back.
func renderedTimeField(field string) (time.Time, bool) {
	const tail = len("0102150405.000000000")
	if len(field) <= tail || field[len(field)-10] != '.' {
		return time.Time{}, false
	}
	year, err := strconv.Atoi(field[:len(field)-tail])
	if err != nil {
		return time.Time{}, false
	}
	var v [6]int
	for i, span := range [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 10}, {11, 20}} {
		if v[i], err = strconv.Atoi(field[len(field)-tail+span[0] : len(field)-tail+span[1]]); err != nil {
			return time.Time{}, false
		}
	}
	tm := time.Date(year, time.Month(v[0]), v[1], v[2], v[3], v[4], v[5], time.UTC)
	rendered := string(appendCanonicalTime(nil, tm))
	return tm, rendered[strings.IndexByte(rendered, ':')+1:] == field
}

// TestCanonicalBatch: a batch holds each entry's canonical bytes and
// case field, whether rendered or parsed back; Parse refuses what
// ParseCanonicalEntry refuses; and rendering into a warm batch
// allocates nothing.
func TestCanonicalBatch(t *testing.T) {
	e1, e2 := chainBenchEntry(), chainBenchEntry()
	e2.Case, e2.Object = "CT-7", policy.Object{Subject: "Bob"}
	var b CanonicalBatch
	entries := []Entry{e1, e2}
	b.Render(entries)
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	for i, e := range entries {
		canon, caseID := b.At(i)
		if !bytes.Equal(canon, CanonicalEntry(e)) || string(caseID) != e.Case {
			t.Errorf("At(%d) = %q, %q; want the bytes of %+v", i, canon, caseID, e)
		}
	}
	if got, err := b.Parse(CanonicalEntry(e2)); err != nil || !reflect.DeepEqual(got, e2) {
		t.Fatalf("Parse = %+v, %v; want %+v", got, err, e2)
	}
	if canon, caseID := b.At(0); b.Len() != 1 || !bytes.Equal(canon, CanonicalEntry(e2)) || string(caseID) != e2.Case {
		t.Errorf("after Parse: %d entries, At(0) = %q, %q", b.Len(), canon, caseID)
	}
	if _, err := b.Parse(append(CanonicalEntry(e2), 'x')); err == nil || b.Len() != 0 {
		t.Fatalf("Parse of a trailing byte: %v, %d entries", err, b.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Render(entries) }); allocs != 0 {
		t.Errorf("rendering into a warm batch allocates %.1f times, want 0", allocs)
	}
}
