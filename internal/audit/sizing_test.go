package audit

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// unsized hides the reader's length (Len, Stat) from the decoders, so
// they take the path for input of unknown length.
type unsized struct{ io.Reader }

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// tempFile writes data to a file in a test directory and opens it.
func tempFile(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trail")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestDecodeAllocatesOnce is the deterministic guard that the offline
// trail path allocates its entry array once and never copies it: a
// JSONL decode of known length allocates at most 1.25 times the final
// array plus a fixed 256 KiB (read window, intern tables), and NewTrail
// on a fresh chronological slice allocates only the Trail header.
// append's 1.25x re-growth allocates about 5x the array and a copying
// NewTrail one more; either fails the bound.
func TestDecodeAllocatesOnce(t *testing.T) {
	const n = 20000
	data := scanTrail(n)
	f := tempFile(t, data)
	// The file is read from the line after its first third, so its
	// length is Stat's size minus the offset.
	off := len(data)/3 + bytes.IndexByte(data[len(data)/3:], '\n') + 1
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	rest := bytes.Count(data[off:], newline)
	bound := func(entries int) uint64 {
		return uint64(1.25*float64(entries)*float64(unsafe.Sizeof(Entry{}))) + 256<<10
	}
	for _, src := range []struct {
		name string
		r    io.Reader
		want int
	}{
		{"bytes.Reader", bytes.NewReader(data), n},
		{"os.File", f, rest},
	} {
		var tr *Trail
		var err error
		got := allocatedBytes(func() {
			tr, _, err = DecodeJSONL(src.r, DecodeOptions{})
		})
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		if tr.Len() != src.want {
			t.Fatalf("%s: decoded %d entries, want %d", src.name, tr.Len(), src.want)
		}
		t.Logf("%s: %d entries, %d bytes allocated, %.2fx the array", src.name, src.want, got,
			float64(got)/float64(uintptr(src.want)*unsafe.Sizeof(Entry{})))
		if got > bound(src.want) {
			t.Errorf("%s: decoding %d entries allocated %d bytes, want <= %d (1.25x the %d-byte array + 256 KiB)",
				src.name, src.want, got, bound(src.want), uintptr(src.want)*unsafe.Sizeof(Entry{}))
		}
	}

	entries, _, err := DecodeJSONLEntries(bytes.NewReader(data), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { NewTrail(entries) }); allocs != 1 {
		t.Errorf("NewTrail on a chronological slice allocates %.0f times, want 1 (the Trail header)", allocs)
	}
}

// TestNewTrailAdopts: NewTrail sorts the caller's slice in place
// rather than a copy, and Append on the trail never writes into the
// caller's array beyond the slice.
func TestNewTrailAdopts(t *testing.T) {
	es := sampleEntries()
	backing := append([]Entry{es[5], es[2], es[0], es[4], es[1], es[3]}, es[0])
	tr := NewTrail(backing[:6])
	if !reflect.DeepEqual(backing[:6], es) {
		t.Fatalf("NewTrail did not sort its argument in place: %v", backing[:6])
	}
	if err := tr.Append(es[5]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(backing[6], es[0]) {
		t.Fatalf("Append overwrote the caller's array past the slice: %v", backing[6])
	}
}

// jsonlLine renders the i-th entry with a user name pad bytes long, so
// tests can shape line lengths.
func jsonlLine(t *testing.T, i, pad int) []byte {
	t.Helper()
	e := lenEntry(i, "T1", fmt.Sprintf("C-%d", i%7))
	e.User = strings.Repeat("u", pad)
	var b bytes.Buffer
	if err := AppendJSONL(&b, e); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDecodeSizingMisestimates decodes inputs whose first window is
// unlike the rest. Long lines first make the first estimate short: the
// array grows again, sized from the lines read after the window, not
// doubled. Short lines first make it long: the array is allocated once,
// larger than needed but within total/minEntryLine. Either way the
// entries, and the CSV decode of the same trail, equal the decode of the
// same bytes at unknown length.
func TestDecodeSizingMisestimates(t *testing.T) {
	for _, tc := range []struct {
		name              string
		firstPad, restPad int
		first, rest       int
		maxCapRatio       float64
	}{
		{"undershoot", 400, 1, 200, 3000, 1.25},
		{"overshoot", 1, 400, 2000, 1000, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var data []byte
			var trail []Entry
			for i := 0; i < tc.first+tc.rest; i++ {
				pad := tc.restPad
				if i < tc.first {
					pad = tc.firstPad
				} else if i == tc.first && len(data) < sizeWindow {
					t.Fatalf("the first %d lines end at byte %d, inside the %d-byte first window", tc.first, len(data), sizeWindow)
				}
				line := jsonlLine(t, i, pad)
				data = append(data, line...)
				e, err := DecodeEntryJSON(bytes.TrimSpace(line))
				if err != nil {
					t.Fatal(err)
				}
				trail = append(trail, e)
			}
			var sized []Entry
			var err error
			allocated := allocatedBytes(func() {
				sized, _, err = DecodeJSONLEntries(bytes.NewReader(data), DecodeOptions{})
			})
			if err != nil {
				t.Fatal(err)
			}
			// One growth allocates a first array shorter than the input
			// plus the final one; doubling or a third array exceeds that.
			size := uint64(unsafe.Sizeof(Entry{}))
			if limit := uint64(len(sized)+cap(sized))*size + 256<<10; allocated > limit {
				t.Errorf("decoding %d entries into an array of %d allocated %d bytes, want <= %d (one growth)",
					len(sized), cap(sized), allocated, limit)
			}
			plain, _, err := DecodeJSONLEntries(unsized{bytes.NewReader(data)}, DecodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sized, plain) || !reflect.DeepEqual(sized, trail) {
				t.Fatalf("sized decode of %d entries differs from the unsized one", len(trail))
			}
			limit := len(data)/minEntryLine + 1
			if c := cap(sized); float64(c) > tc.maxCapRatio*float64(len(sized)) || c > limit {
				t.Errorf("%d entries in an array of %d, want at most %.2fx and %d", len(sized), c, tc.maxCapRatio, limit)
			}

			var csvData bytes.Buffer
			if err := WriteCSV(&csvData, NewTrail(trail)); err != nil {
				t.Fatal(err)
			}
			sizedCSV, _, err := DecodeCSVEntries(bytes.NewReader(csvData.Bytes()), DecodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			plainCSV, _, err := DecodeCSVEntries(unsized{bytes.NewReader(csvData.Bytes())}, DecodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sizedCSV, plainCSV) || len(sizedCSV) != len(trail) {
				t.Fatalf("sized CSV decode differs from the unsized one")
			}
			if c := cap(sizedCSV); float64(c) > tc.maxCapRatio*float64(len(sizedCSV)) {
				t.Errorf("CSV: %d entries in an array of %d, want at most %.2fx", len(sizedCSV), c, tc.maxCapRatio)
			}
		})
	}
}

// TestDecodeSizesEveryKnownLength: each reader whose remaining length
// is known gets an array sized to its input, and one of unknown length
// still decodes everything.
func TestDecodeSizesEveryKnownLength(t *testing.T) {
	const n = 3000
	data := scanTrail(n)
	f := tempFile(t, data)
	for _, src := range []struct {
		name  string
		r     io.Reader
		sized bool
	}{
		{"bytes.Reader", bytes.NewReader(data), true},
		{"strings.Reader", strings.NewReader(string(data)), true},
		{"bytes.Buffer", bytes.NewBuffer(data), true},
		{"os.File", f, true},
		{"unknown", unsized{bytes.NewReader(data)}, false},
	} {
		entries, _, err := DecodeJSONLEntries(src.r, DecodeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		if len(entries) != n {
			t.Fatalf("%s: decoded %d entries, want %d", src.name, len(entries), n)
		}
		if sized := cap(entries) <= n*5/4; sized != src.sized {
			t.Errorf("%s: %d entries in an array of %d; sized from the input: %v, want %v",
				src.name, n, cap(entries), sized, src.sized)
		}
	}
}

// TestInputLen: the remaining length of a file is its size minus the
// offset; pipes and wrapped readers have none.
func TestInputLen(t *testing.T) {
	f := tempFile(t, []byte("0123456789"))
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	for _, tc := range []struct {
		name string
		r    io.Reader
		want int64
	}{
		{"file", f, 6},
		{"pipe", pr, -1},
		{"strings.Reader", strings.NewReader("abc"), 3},
		{"unsized", unsized{strings.NewReader("abc")}, -1},
	} {
		if got := inputLen(tc.r); got != tc.want {
			t.Errorf("%s: inputLen = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// BenchmarkDecodeJSONL times the offline trail path, decode plus
// NewTrail, per entry, from a reader of known and of unknown length.
func BenchmarkDecodeJSONL(b *testing.B) {
	const n = 20000
	data := scanTrail(n)
	for _, src := range []struct {
		name string
		r    func() io.Reader
	}{
		{"sized", func() io.Reader { return bytes.NewReader(data) }},
		{"unsized", func() io.Reader { return unsized{bytes.NewReader(data)} }},
	} {
		b.Run(src.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeJSONL(src.r(), DecodeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		})
	}
}
