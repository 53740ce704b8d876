package audit

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
)

// scanTrail builds a wire-realistic NDJSON body: several users, roles,
// tasks and cases, objects present and absent, successes and failures.
func scanTrail(n int) []byte {
	var buf bytes.Buffer
	base := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		e := Entry{
			User:   fmt.Sprintf("u%d", i%7),
			Role:   []string{"Doctor", "Nurse", "Admin"}[i%3],
			Action: []string{"read", "write", "cancel"}[i%3],
			Task:   fmt.Sprintf("T%d", i%5),
			Case:   fmt.Sprintf("C-%d", i%11),
			Time:   base.Add(time.Duration(i) * time.Second),
			Status: Status(i % 2),
		}
		if i%3 != 2 {
			e.Object = policy.Object{Subject: fmt.Sprintf("P%d", i%4), Path: []string{"EPR", "Clinical"}}
		}
		if err := AppendJSONL(&buf, e); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// referenceDecode is the historical decoder: bufio.Scanner +
// entryFromJSON per line, the behavior DecodeJSONLEntries used before
// the fast scanner and the contract it must keep bit for bit.
func referenceDecode(r io.Reader, opts DecodeOptions) ([]Entry, *Quarantine, error) {
	q := &Quarantine{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxJSONLLine)
	var entries []Entry
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Text()
		if strings.TrimSpace(raw) == "" {
			continue
		}
		e, err := entryFromJSON([]byte(raw))
		if err != nil {
			if !opts.Lenient {
				return nil, q, fmt.Errorf("audit: JSONL line %d: %w", line, err)
			}
			if qerr := q.add(line, raw, err, opts.MaxErrors); qerr != nil {
				return nil, q, qerr
			}
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, q, fmt.Errorf("audit: reading JSONL line %d: %w", line+1, err)
	}
	return entries, q, nil
}

// scannerInputs are adversarial bodies exercising both the fast path
// and every fallback reason.
var scannerInputs = []struct {
	name string
	body string
}{
	{"clean", string(scanTrail(50))},
	{"blank lines and CRLF", "\r\n{\"user\":\"u\",\"role\":\"R\",\"action\":\"a\",\"task\":\"T\",\"case\":\"C\",\"time\":\"2026-07-05T09:00:00Z\",\"status\":\"success\"}\r\n   \n"},
	{"no trailing newline", `{"user":"u","role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z","status":"failure"}`},
	{"mixed-case status", `{"user":"u","role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z","status":"Success"}` + "\n"},
	{"escaped strings", `{"user":"u\u0041","role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z","status":"success"}` + "\n"},
	{"non-ascii", `{"user":"üser","role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z","status":"success"}` + "\n"},
	{"unknown string key", `{"user":"u","extra":"x","role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z","status":"success"}` + "\n"},
	{"unknown number key", `{"user":"u","extra":7,"role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z","status":"success"}` + "\n"},
	{"known key in another case", `{"user":"u","User":"v","CASE":"C","role":"R","action":"a","task":"T","time":"2026-07-05T09:00:00Z","status":"success"}` + "\n"},
	{"duplicate key", `{"user":"first","user":"second","role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z","status":"success"}` + "\n"},
	{"null object", `{"user":"u","object":null,"role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z","status":"success"}` + "\n"},
	{"empty object literal", `{"user":"u","object":"","role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z","status":"success"}` + "\n"},
	{"bad object literal", `{"user":"u","object":"[unterminated","role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z","status":"success"}` + "\n"},
	{"bad time", `{"user":"u","role":"R","action":"a","task":"T","case":"C","time":"yesterday","status":"success"}` + "\n"},
	{"offset time", `{"user":"u","role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T11:00:00+02:00","status":"success"}` + "\n"},
	{"missing status", `{"user":"u","role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z"}` + "\n"},
	{"empty braces", "{}\n"},
	{"not json", "this is not json\n"},
	{"truncated object", `{"user":"u","role":` + "\n"},
	{"trailing garbage", `{"user":"u","role":"R","action":"a","task":"T","case":"C","time":"2026-07-05T09:00:00Z","status":"success"} tail` + "\n"},
	{"whitespace inside", ` { "user" : "u" , "role" : "R" , "action" : "a" , "task" : "T" , "case" : "C" , "time" : "2026-07-05T09:00:00Z" , "status" : "success" } ` + "\n"},
	{"mixture", string(scanTrail(10)) + "garbage\n" + string(scanTrail(5)) + "{\"status\":\"maybe\"}\n"},
}

// TestEntryScannerMatchesReferenceDecoder runs every input through the
// fast scanner (via DecodeJSONLEntries) and the historical decoder, in
// both strict and lenient mode, and demands identical entries, errors
// and quarantine records.
func TestEntryScannerMatchesReferenceDecoder(t *testing.T) {
	for _, tc := range scannerInputs {
		for _, opts := range []DecodeOptions{{}, {Lenient: true}, {Lenient: true, MaxErrors: 1}} {
			name := fmt.Sprintf("%s/lenient=%v/max=%d", tc.name, opts.Lenient, opts.MaxErrors)
			t.Run(name, func(t *testing.T) {
				want, wantQ, wantErr := referenceDecode(strings.NewReader(tc.body), opts)
				got, gotQ, gotErr := DecodeJSONLEntries(strings.NewReader(tc.body), opts)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("error mismatch: reference %v, scanner %v", wantErr, gotErr)
				}
				if wantErr != nil && wantErr.Error() != gotErr.Error() {
					t.Fatalf("error text mismatch:\nreference: %v\nscanner:   %v", wantErr, gotErr)
				}
				if len(want) != len(got) {
					t.Fatalf("decoded %d entries, reference %d", len(got), len(want))
				}
				for i := range want {
					if !entryEqual(want[i], got[i]) {
						t.Fatalf("entry %d differs:\nreference: %+v\nscanner:   %+v", i, want[i], got[i])
					}
				}
				if wantQ.Len() != gotQ.Len() {
					t.Fatalf("quarantined %d, reference %d", gotQ.Len(), wantQ.Len())
				}
				for i := range wantQ.Records {
					wr, gr := wantQ.Records[i], gotQ.Records[i]
					if wr.Line != gr.Line || wr.Raw != gr.Raw || wr.Err.Error() != gr.Err.Error() {
						t.Fatalf("quarantine record %d differs:\nreference: %v\nscanner:   %v", i, wr, gr)
					}
				}
			})
		}
	}
}

// TestEntryScannerZeroAlloc is the tentpole's hard budget: scanning
// clean wire-shaped NDJSON allocates nothing per entry once the intern
// tables are warm.
func TestEntryScannerZeroAlloc(t *testing.T) {
	data := scanTrail(2000)
	br := bytes.NewReader(data)
	sc := NewEntryScanner(br, DecodeOptions{})
	// Warm the interners and the line buffer.
	for sc.Scan() {
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if sc.Fallbacks() != 0 {
		t.Fatalf("clean input took %d slow-path fallbacks", sc.Fallbacks())
	}

	entries := 0
	allocs := testing.AllocsPerRun(10, func() {
		br.Reset(data)
		sc.Reset(br)
		for sc.Scan() {
			entries++
		}
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
	})
	if entries == 0 {
		t.Fatal("scanner produced no entries")
	}
	if allocs != 0 {
		t.Errorf("strict-mode scan of %d entries allocates %.1f times per run, want 0", 2000, allocs)
	}
}

// TestEntryScannerTooLongLine mirrors bufio.Scanner's token-size limit.
func TestEntryScannerTooLongLine(t *testing.T) {
	body := "{\"status\":\"" + strings.Repeat("a", maxJSONLLine) + "\"}\n"
	_, _, err := DecodeJSONLEntries(strings.NewReader(body), DecodeOptions{Lenient: true})
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
}

// errAfterReader yields its payload, then a non-EOF error.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestEntryScannerReadError checks a mid-stream read failure surfaces
// with the historical message, after draining buffered complete lines.
func TestEntryScannerReadError(t *testing.T) {
	boom := errors.New("connection reset")
	r := &errAfterReader{data: scanTrail(3), err: boom}
	_, _, err := DecodeJSONLEntries(r, DecodeOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped read error", err)
	}
	if want := "audit: reading JSONL line 4: connection reset"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

// TestEntryScannerBuffered checks the batch-flush hint: true while
// bytes remain in the window, false once drained.
func TestEntryScannerBuffered(t *testing.T) {
	sc := NewEntryScanner(bytes.NewReader(scanTrail(5)), DecodeOptions{})
	if !sc.Scan() {
		t.Fatal("no first entry")
	}
	if !sc.Buffered() {
		t.Error("Buffered() = false with four entries unread")
	}
	for sc.Scan() {
	}
	if sc.Buffered() {
		t.Error("Buffered() = true after the stream drained")
	}
}

// TestEntryScannerInternBound checks the intern tables stop growing at
// their cap without affecting correctness.
func TestEntryScannerInternBound(t *testing.T) {
	var buf bytes.Buffer
	n := maxInterned + 100
	for i := 0; i < n; i++ {
		e := Entry{
			User: fmt.Sprintf("user-%05d", i), Role: "R", Action: "a",
			Task: "T", Case: fmt.Sprintf("case-%05d", i),
			Time:   time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC),
			Status: Success,
		}
		if err := AppendJSONL(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	sc := NewEntryScanner(bytes.NewReader(buf.Bytes()), DecodeOptions{})
	count := 0
	for sc.Scan() {
		if want := fmt.Sprintf("user-%05d", count); sc.Entry().User != want {
			t.Fatalf("entry %d user = %q, want %q", count, sc.Entry().User, want)
		}
		count++
	}
	if sc.Err() != nil || count != n {
		t.Fatalf("scanned %d entries (err %v), want %d", count, sc.Err(), n)
	}
	if len(sc.strs) > maxInterned {
		t.Errorf("intern table grew to %d, cap is %d", len(sc.strs), maxInterned)
	}
	// A full table is cleared on Reset, so a long-lived scanner goes on
	// interning the strings of later streams.
	sc.Reset(bytes.NewReader(buf.Bytes()))
	if len(sc.strs) != 0 {
		t.Errorf("Reset kept a full intern table of %d strings", len(sc.strs))
	}
	if !sc.Scan() || len(sc.strs) == 0 {
		t.Errorf("scanner does not intern after Reset (table holds %d)", len(sc.strs))
	}
}
