package audit

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
)

// Fuzz targets for the ingestion surface: the decoders must never
// panic, and on input the strict decoder accepts, the lenient decoder
// must agree byte for byte and quarantine nothing (leniency is free on
// clean data).

func fuzzSeedTrail() *Trail {
	return NewTrail([]Entry{
		lenEntry(0, "T1", "C-1"),
		lenEntry(1, "T2", "C-1"),
		{User: "u2", Role: "R2", Action: "cancel", Task: "T3", Case: "C-2",
			Time:   time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC),
			Status: Failure},
	})
}

func assertStrictLenientAgreement(t *testing.T, strict *Trail, strictErr error, lenient *Trail, q *Quarantine, lenientErr error) {
	t.Helper()
	if strictErr != nil {
		return // corrupt input: lenient may succeed, fail, or quarantine
	}
	if lenientErr != nil {
		t.Fatalf("strict accepted but lenient failed: %v", lenientErr)
	}
	if q.Len() != 0 {
		t.Fatalf("strict accepted but lenient quarantined %d: %v", q.Len(), q.Records)
	}
	if strict.Len() != lenient.Len() {
		t.Fatalf("strict decoded %d entries, lenient %d", strict.Len(), lenient.Len())
	}
	for i := 0; i < strict.Len(); i++ {
		if !entryEqual(strict.At(i), lenient.At(i)) {
			t.Fatalf("entry %d differs: %v vs %v", i, strict.At(i), lenient.At(i))
		}
	}
}

// assertSizedUnsizedAgree decodes data twice under each option set,
// once from a bytes.Reader, whose length sizes the entry array, and once
// behind a reader that hides it, and requires identical entries, errors
// and quarantine records. A trail built from the sized decode must adopt
// its array, not copy it.
func assertSizedUnsizedAgree(t *testing.T, data []byte, decode func(io.Reader, DecodeOptions) ([]Entry, *Quarantine, error)) {
	t.Helper()
	for _, opts := range []DecodeOptions{{}, {Lenient: true, MaxErrors: 256}} {
		sized, sq, serr := decode(bytes.NewReader(data), opts)
		plain, pq, perr := decode(unsized{bytes.NewReader(data)}, opts)
		if fmt.Sprint(serr) != fmt.Sprint(perr) {
			t.Fatalf("lenient=%v: sized decode error %v, unsized %v", opts.Lenient, serr, perr)
		}
		if !reflect.DeepEqual(sized, plain) {
			t.Fatalf("lenient=%v: sized decode %v, unsized %v", opts.Lenient, sized, plain)
		}
		if fmt.Sprint(sq.Records) != fmt.Sprint(pq.Records) {
			t.Fatalf("lenient=%v: sized quarantine %v, unsized %v", opts.Lenient, sq.Records, pq.Records)
		}
		if len(sized) > 0 && &NewTrail(sized).View()[0] != &sized[0] {
			t.Fatalf("NewTrail copied the decoded entries")
		}
	}
}

func FuzzReadCSV(f *testing.F) {
	var b bytes.Buffer
	if err := WriteCSV(&b, fuzzSeedTrail()); err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())
	f.Add([]byte("user,role,action,object,task,case,time,status\n"))
	f.Add([]byte("user,role,action,object,task,case,time,status\na,b,c,N/A,q,c-1,202603121210,success\n"))
	f.Add([]byte("user,role,action,object,task,case,time,status\ntoo,short\n"))
	f.Add([]byte("user,role,action,object,task,case,time,status\na,b,c,\"unterminated,q,c,202603121210,success\n"))
	f.Add([]byte(""))
	// Longer than the decoder's first window, so the entry array is
	// sized from a sample, with a bad row past the sample.
	long, err := ReadJSONL(bytes.NewReader(scanTrail(1500)))
	if err != nil {
		f.Fatal(err)
	}
	b.Reset()
	if err := WriteCSV(&b, long); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(b.Bytes()))
	f.Add(append(bytes.Clone(b.Bytes()), "too,short\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		strict, strictErr := ReadCSV(bytes.NewReader(data))
		lenient, q, lenientErr := DecodeCSV(bytes.NewReader(data), DecodeOptions{Lenient: true, MaxErrors: 256})
		assertStrictLenientAgreement(t, strict, strictErr, lenient, q, lenientErr)
		assertSizedUnsizedAgree(t, data, DecodeCSVEntries)
	})
}

func FuzzReadJSONL(f *testing.F) {
	var b bytes.Buffer
	if err := WriteJSONL(&b, fuzzSeedTrail()); err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())
	f.Add([]byte("{\"status\":\"success\"}\n"))
	f.Add([]byte("{\"broken\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte("{\"object\":\"[bad\",\"status\":\"success\"}\n"))
	// Longer than the decoder's first window, so the entry array is
	// sized from a sample, with a bad line past the sample.
	f.Add(scanTrail(600))
	f.Add(append(scanTrail(600), "{\"broken\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		strict, strictErr := ReadJSONL(bytes.NewReader(data))
		lenient, q, lenientErr := DecodeJSONL(bytes.NewReader(data), DecodeOptions{Lenient: true, MaxErrors: 256})
		assertStrictLenientAgreement(t, strict, strictErr, lenient, q, lenientErr)
		assertSizedUnsizedAgree(t, data, DecodeJSONLEntries)
	})
}

func FuzzParsePaperTime(f *testing.F) {
	f.Add("202603121210")
	f.Add("000001010000")
	f.Add("not a time")
	f.Add("")
	f.Add("20260312121")
	f.Fuzz(func(t *testing.T, s string) {
		tm, err := ParsePaperTime(s)
		if err != nil {
			return
		}
		// Round trip: a successfully parsed paper time re-renders to a
		// string that parses to the same instant.
		again, err := ParsePaperTime(tm.Format(PaperTimeLayout))
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", tm.Format(PaperTimeLayout), s, err)
		}
		if !again.Equal(tm) {
			t.Fatalf("round trip moved %q: %v vs %v", s, tm, again)
		}
		if strings.ContainsAny(s, "\n\r") {
			t.Fatalf("timestamp with newline parsed: %q", s)
		}
	})
}

// canonicalEntryRef is the original fmt.Sprintf rendering of
// CanonicalEntry, kept as the oracle for the in-place appender.
func canonicalEntryRef(e Entry) []byte {
	fields := []string{
		e.User, e.Role, e.Action, e.Object.String(), e.Task, e.Case,
		e.Time.UTC().Format("20060102150405.000000000"), e.Status.String(),
	}
	var out []byte
	for _, f := range fields {
		out = append(out, []byte(fmt.Sprintf("%d:", len(f)))...)
		out = append(out, f...)
	}
	return out
}

// FuzzCanonicalEntry requires AppendCanonicalEntry (and the chain step
// built on it) to produce the reference bytes for any entry. path
// splits on NUL into object path components ("" is no path at all).
//
// It also holds ParseCanonicalEntry to being the encoding's inverse:
// the entry's bytes parse back to an entry that re-encodes to them and
// renders the JSONL line of the entry in UTC (for an object in the wire
// form; see wireObject), and on any other bytes (user taken as raw
// bytes, and the canonical bytes with subject spliced in at an offset
// drawn from nsec) a parse either errors or re-encodes to exactly its
// input, without panicking. NextCanonicalEntry, the in-place check,
// accepts the same entries and reads the same case field.
func FuzzCanonicalEntry(f *testing.F) {
	at := func(t time.Time) (int64, int64) { return t.Unix(), int64(t.Nanosecond()) }
	add := func(user, role, action, subject, path, task, caseID string, t time.Time, zone int, status int8) {
		sec, nsec := at(t)
		f.Add(user, role, action, subject, path, task, caseID, sec, nsec, zone, status)
	}
	utc := time.Date(2010, 3, 12, 12, 10, 0, 0, time.UTC)
	add("John", "GP", "read", "Jane", "EPR\x00Clinical", "T01", "HT-1", utc, 0, 0)
	add("", "", "", "", "", "", "", time.Time{}, 0, 1)
	add("Zoë", "Médecin", "lire", "Émilie", "Dossier\x00Résumé", "T✓", "案件-1", utc, 0, 0)
	add("u", "r", "a", "Jane", "", "T", "C", utc, 0, 0)
	add("u", "r", "a", "", "EPR", "T", "C", utc, 0, 1)
	add("u", "r", "a", "s", "\x00", "T", "C", utc, 0, 0)
	add("u", "r", "a", "s", "p", "T", "C", time.Date(2026, 4, 1, 23, 59, 59, 123456789, time.UTC), 5*3600+1800, 0)
	add("u", "r", "a", "s", "p", "T", "C", time.Date(2026, 1, 1, 0, 30, 0, 1, time.UTC), -8*3600, 0)
	add("u", "r", "a", "s", "p", "T", "C", time.Date(12345, 6, 7, 8, 9, 10, 11, time.UTC), 0, 0)
	add("u", "r", "a", "s", "p", "T", "C", time.Date(-42, 1, 1, 0, 0, 0, 0, time.UTC), 3600, 0)
	add("u", "r", "a", "s", "p", "T", "C", time.Date(0, 1, 1, 0, 0, 0, 999999999, time.UTC), 0, 0)
	add("u", "r", "a", "s", "p", "T", "C", time.Unix(1<<63-1, 999999999), 0, 0)
	add("u", "r", "a", "s", "p", "T", "C", time.Unix(-1<<63, 0), -3600, 0)
	add("u", "r", "a", "", "[s]p", "T", "C", utc, 0, 0)
	add("u", "r", "a", "s]", "p/q", "T", "C", utc, 0, 0)
	// user and subject as canonical bytes: a well-formed parse input the
	// fuzzer mutates, and time fields with a 30 February, a 29 February
	// in 1900 and a leap second.
	add(string(CanonicalEntry(lenEntry(0, "T1", "C-1"))), "r", "a", "s", "p", "T", "C", utc, 0, 0)
	add("u", "r", "a", "24:20260230000000.000000000", "p", "T", "C", utc, 0, 0)
	add("u", "r", "a", "24:19000229000000.000000000", "p", "T", "C", utc, 0, 0)
	add("u", "r", "a", "24:20241231235960.000000000", "p", "T", "C", utc, 0, 0)
	f.Fuzz(func(t *testing.T, user, role, action, subject, path, task, caseID string, sec, nsec int64, zone int, status int8) {
		e := Entry{
			User: user, Role: role, Action: action,
			Object: policy.Object{Subject: subject},
			Task:   task, Case: caseID,
			Time:   time.Unix(sec, nsec).In(time.FixedZone("fuzz", zone)),
			Status: Status(status),
		}
		if path != "" {
			e.Object.Path = strings.Split(path, "\x00")
		}
		want := canonicalEntryRef(e)
		if got := CanonicalEntry(e); !bytes.Equal(got, want) {
			t.Fatalf("CanonicalEntry(%+v)\n got %q\nwant %q", e, got, want)
		}
		prefix := []byte("prefix")
		if got := AppendCanonicalEntry(prefix, e); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendCanonicalEntry dropped or mangled the prefix: %q", got)
		}
		seed := ChainSeed()
		wantChain := sha256.Sum256(append(seed[:], want...))
		if got, _ := ChainStep([]byte("stale scratch"), seed, e); got != wantChain {
			t.Fatalf("ChainStep = %x, want %x", got, wantChain)
		}
		if got := ChainNext(seed, e); got != wantChain {
			t.Fatalf("ChainNext = %x, want %x", got, wantChain)
		}

		back, err := ParseCanonicalEntry(want)
		if err != nil {
			t.Fatalf("ParseCanonicalEntry(%q): %v", want, err)
		}
		if got := AppendCanonicalEntry(nil, back); !bytes.Equal(got, want) {
			t.Fatalf("parsed entry re-encodes to %q, want %q", got, want)
		}
		if wireObject(e.Object) {
			utc := e
			utc.Time = e.Time.UTC()
			// Years outside 0–9999 have no JSON rendering: both fail.
			var got, wantLine bytes.Buffer
			gotErr, wantErr := AppendJSONL(&got, back), AppendJSONL(&wantLine, utc)
			if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got.Bytes(), wantLine.Bytes()) {
				t.Fatalf("parsed entry renders %s (%v), want %s (%v)", got.Bytes(), gotErr, wantLine.Bytes(), wantErr)
			}
		}
		at := int(uint64(nsec) % uint64(len(want)+1))
		spliced := append(append(append([]byte(nil), want[:at]...), subject...), want[at:]...)
		for _, b := range [][]byte{want, []byte(user), spliced} {
			pe, err := ParseCanonicalEntry(b)
			if err == nil {
				if got := AppendCanonicalEntry(nil, pe); !bytes.Equal(got, b) {
					t.Fatalf("ParseCanonicalEntry(%q) accepted bytes that re-encode to %q", b, got)
				}
			}
			// The in-place check accepts the same entries, and finds
			// the same case field.
			n, caseField, nerr := NextCanonicalEntry(b)
			if whole := nerr == nil && n == len(b); whole != (err == nil) {
				t.Fatalf("NextCanonicalEntry(%q) = %d, %v; ParseCanonicalEntry error %v", b, n, nerr, err)
			}
			if err == nil && string(caseField) != pe.Case {
				t.Fatalf("NextCanonicalEntry(%q) case %q, want %q", b, caseField, pe.Case)
			}
			if nerr == nil {
				if _, err := ParseCanonicalEntry(b[:n]); err != nil {
					t.Fatalf("NextCanonicalEntry(%q) accepted a %d-byte entry ParseCanonicalEntry refuses: %v", b, n, err)
				}
			}
		}
	})
}

// wireObject reports whether o is an object the JSONL wire form
// carries unchanged: none at all, or one policy.ParseObject reads back
// from its rendering. Canonical bytes flatten the object to that
// rendering, so only these come back from ParseCanonicalEntry as they
// went in ("[s]" is both a subject with no path and a one-component
// path). The wire form drops an object without a path, subject and
// all; its canonical bytes come back pathless too unless the subject
// holds a ']', which ends the subject early and leaves a path behind.
func wireObject(o policy.Object) bool {
	if len(o.Path) == 0 {
		return !strings.Contains(o.Subject, "]")
	}
	back, err := policy.ParseObject(o.String())
	return err == nil && reflect.DeepEqual(back, o)
}

// FuzzDecodeEntry requires the scanner's single-entry Decode to equal
// DecodeEntryJSON on every input: the same Entry (deeply) or an error
// from both. The scanner first decodes a clean entry, so its intern
// tables and timestamp memo are warm when the input arrives.
func FuzzDecodeEntry(f *testing.F) {
	var b bytes.Buffer
	if err := WriteJSONL(&b, fuzzSeedTrail()); err != nil {
		f.Fatal(err)
	}
	warm := bytes.SplitN(b.Bytes(), []byte("\n"), 2)[0]
	for _, line := range bytes.Split(b.Bytes(), []byte("\n")) {
		f.Add(line)
	}
	for _, s := range []string{
		`{"status":"success"}`,
		`{"status":"Success"}`,
		`{"user":"a","User":"b","status":"success"}`,
		`{"CASE":"c-1","status":"failure"}`,
		`{"user":"é","status":"success"}`,
		`{"object":"[bad","status":"success"}`,
		`{"time":"2026-04-01T10:00:00+02:00","status":"success"}`,
		`{"time":"2026-04-01T10:00:00Z","time":"nope","status":"success"}`,
		`{"extra":1,"status":"success"}`,
		` {"status":"success"} `,
		`{"status":"success"} x`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	for _, tc := range kernelCases() {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, wantErr := DecodeEntryJSON(raw)
		sc := NewEntryScanner(nil, DecodeOptions{})
		if _, err := sc.Decode(warm); err != nil {
			t.Fatal(err)
		}
		got, gotErr := sc.Decode(raw)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%q: Decode error %v, DecodeEntryJSON error %v", raw, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: Decode = %+v, DecodeEntryJSON = %+v", raw, got, want)
		}
	})
}

// FuzzDecodeJSONLStream requires a whole-stream decode to equal
// DecodeEntryJSON applied line by line, in strict and lenient mode:
// the same entries (deeply), errors and quarantine records. Unlike
// FuzzDecodeEntry it carries the scanner's field, object and day memos
// across lines, so a line that repeats part of its predecessor, or
// shares its date, must still decode as it would alone.
func FuzzDecodeJSONLStream(f *testing.F) {
	line := func(user, role, object, task, caseID, ts, status string) string {
		obj := ""
		if object != "" {
			obj = `"object":"` + object + `",`
		}
		return `{"user":"` + user + `","role":"` + role + `","action":"read",` + obj +
			`"task":"` + task + `","case":"` + caseID + `","time":"` + ts + `","status":"` + status + `"}` + "\n"
	}
	f.Add(scanTrail(40))
	for _, s := range []string{
		// A day rollover, then back to a memoized-looking date.
		line("u", "R", "[P]EPR", "T1", "C-1", "2026-07-05T23:59:59Z", "success") +
			line("u", "R", "[P]EPR", "T2", "C-1", "2026-07-06T00:00:00Z", "success") +
			line("u", "R", "[P]EPR", "T3", "C-1", "2026-07-06T00:00:01Z", "success") +
			line("u", "R", "[P]EPR", "T3", "C-1", "2026-07-05T12:00:00Z", "failure"),
		// Leap second, out-of-range clocks and fractions on a memoized day.
		line("u", "R", "", "T1", "C-1", "2026-07-05T10:00:00Z", "success") +
			line("u", "R", "", "T1", "C-1", "2026-07-05T10:00:60Z", "success") +
			line("u", "R", "", "T1", "C-1", "2026-07-05T24:00:00Z", "success") +
			line("u", "R", "", "T1", "C-1", "2026-07-05T10:60:00Z", "success") +
			line("u", "R", "", "T1", "C-1", "2026-07-05T10:00:00.5Z", "success") +
			line("u", "R", "", "T1", "C-1", "2026-07-05T1a:00:00Z", "success"),
		// Offsets and a lowercase zone designator on a memoized day.
		line("u", "R", "", "T1", "C-1", "2026-07-05T10:00:00Z", "success") +
			line("u", "R", "", "T1", "C-1", "2026-07-05T10:00:00+02:00", "success") +
			line("u", "R", "", "T1", "C-1", "2026-07-05T10:00:00z", "success") +
			line("u", "R", "", "T1", "C-1", "2026-07-05t10:00:00Z", "success"),
		// Reordered keys, a missing object, a tab between tokens.
		line("u", "R", "[P]EPR", "T1", "C-1", "2026-07-05T10:00:00Z", "success") +
			`{"status":"success","case":"C-1","time":"2026-07-05T10:00:01Z","task":"T2","user":"u","role":"R"}` + "\n" +
			line("u", "R", "", "T2", "C-1", "2026-07-05T10:00:02Z", "success") +
			`{"user":"u",` + "\t" + `"role":"R","task":"T2","case":"C-1","status":"success"}` + "\n" +
			`{ "user" : "u" , "task" : "T2" , "status" : "failure" }` + "\n",
		// A repeated field followed by a different one, and a
		// duplicated key whose second value wins.
		line("alice", "Doctor", "[P1]EPR/Clinical", "T1", "C-1", "2026-07-05T10:00:00Z", "success") +
			line("alice", "Doctor", "[P1]EPR/Clinical", "T1", "C-1", "2026-07-05T10:00:00Z", "success") +
			line("bob", "Nurse", "[P2]EPR", "T2", "C-2", "2026-07-05T10:00:00Z", "success") +
			`{"user":"bob","user":"carol","object":"[P2]EPR","object":"","status":"success"}` + "\n" +
			line("bob", "Nurse", "[bad", "T2", "C-2", "2026-07-05T10:00:00Z", "success"),
		// Unicode space around a line, which encoding/json rejects.
		"{\"status\":\"success\"}\u00a0\n\u2028{\"status\":\"success\"}\n\u00a0\n",
	} {
		f.Add([]byte(s))
	}
	for _, tc := range kernelCases() {
		f.Add([]byte(tc.line + "\n" + tc.line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range []DecodeOptions{{}, {Lenient: true}} {
			want, wantQ, wantErr := referenceDecode(bytes.NewReader(data), opts)
			got, gotQ, gotErr := DecodeJSONLEntries(bytes.NewReader(data), opts)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("lenient=%v: error %v, per-line decode %v", opts.Lenient, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("lenient=%v: %d entries, per-line decode %d", opts.Lenient, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("lenient=%v: entry %d = %+v, per-line decode %+v", opts.Lenient, i, got[i], want[i])
				}
			}
			if fmt.Sprint(gotQ.Records) != fmt.Sprint(wantQ.Records) {
				t.Fatalf("lenient=%v: quarantine %v, per-line decode %v", opts.Lenient, gotQ.Records, wantQ.Records)
			}
		}
	})
}
