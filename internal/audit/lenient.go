package audit

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/policy"
)

// Lenient (degraded-mode) trail ingestion. The paper assumes a clean
// audit database (Definition 4), but a real deployment collecting "logs
// from all applications in a single database" sees truncated files,
// malformed rows and clock skew across sources. The strict codecs abort
// an entire investigation on the first bad byte; the lenient decoders
// below quarantine malformed records into a structured report and keep
// going, so one corrupt line never loses the whole audit.

// DecodeOptions configures trail decoding.
type DecodeOptions struct {
	// Lenient quarantines malformed records instead of aborting on the
	// first one. Structural failures that make the rest of the input
	// uninterpretable (a bad CSV header, an I/O error) still abort.
	Lenient bool
	// MaxErrors caps the quarantine in lenient mode: once more than
	// MaxErrors records have been quarantined the decode aborts, on the
	// theory that pervasive corruption is a different problem than a few
	// bad rows. 0 means unlimited.
	MaxErrors int
}

// QuarantinedRecord is one malformed input record set aside by a
// lenient decode.
type QuarantinedRecord struct {
	// Line is the 1-based input line of the record (the CSV header is
	// line 1, so data starts at line 2; JSONL data starts at line 1).
	Line int
	// Raw is the offending record text as far as it could be read.
	Raw string
	// Err is the decode error.
	Err error
}

func (r QuarantinedRecord) String() string {
	return fmt.Sprintf("line %d: %v (%q)", r.Line, r.Err, r.Raw)
}

// Quarantine collects the records a lenient decode set aside. A nil or
// empty quarantine means the input was clean.
type Quarantine struct {
	Records []QuarantinedRecord
}

// Len returns the number of quarantined records.
func (q *Quarantine) Len() int {
	if q == nil {
		return 0
	}
	return len(q.Records)
}

// Lines returns the input lines of the quarantined records, in input
// order.
func (q *Quarantine) Lines() []int {
	if q == nil {
		return nil
	}
	out := make([]int, len(q.Records))
	for i, r := range q.Records {
		out[i] = r.Line
	}
	return out
}

// Summary renders a one-line account ("3 record(s) quarantined, first
// at line 7: ...").
func (q *Quarantine) Summary() string {
	if q.Len() == 0 {
		return "no records quarantined"
	}
	return fmt.Sprintf("%d record(s) quarantined, first at line %d: %v",
		len(q.Records), q.Records[0].Line, q.Records[0].Err)
}

func (q *Quarantine) add(line int, raw string, err error, max int) error {
	q.Records = append(q.Records, QuarantinedRecord{Line: line, Raw: raw, Err: err})
	if max > 0 && len(q.Records) > max {
		return fmt.Errorf("audit: lenient decode aborted: more than %d malformed records (last at line %d: %v)",
			max, line, err)
	}
	return nil
}

// DecodeCSV reads a trail in the Figure 4 CSV layout under the given
// options. In strict mode it behaves exactly like ReadCSV; in lenient
// mode malformed rows are quarantined and decoding continues. The
// returned quarantine is never nil.
func DecodeCSV(r io.Reader, opts DecodeOptions) (*Trail, *Quarantine, error) {
	entries, q, err := DecodeCSVEntries(r, opts)
	if err != nil {
		return nil, q, err
	}
	return NewTrail(entries), q, nil
}

// DecodeCSVEntries is DecodeCSV without the chronological sort: entries
// are returned in input order, which a Store in per-case ordering mode
// needs to detect reordering and duplication at the source. When r
// knows its remaining length (inputLen), the entry array is sized from
// the input (entrySizer) rather than re-grown by append.
func DecodeCSVEntries(r io.Reader, opts DecodeOptions) ([]Entry, *Quarantine, error) {
	q := &Quarantine{}
	z := entrySizer{total: inputLen(r)}
	var window *bufio.Reader
	if z.total >= 0 {
		// csv.NewReader keeps a *bufio.Reader this large as its own
		// buffer, so the window's unread lines are the sample.
		window = bufio.NewReaderSize(r, sizeWindow)
		r = window
	}
	cr := csv.NewReader(r)
	if opts.Lenient {
		// Field counts are validated per record so a short or long row
		// is quarantined, not fatal.
		cr.FieldsPerRecord = -1
	}
	header, err := cr.Read()
	if err != nil {
		return nil, q, fmt.Errorf("audit: reading CSV header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, q, fmt.Errorf("audit: CSV header has %d columns, want %d", len(header), len(csvHeader))
	}
	var entries []Entry
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !opts.Lenient {
				return nil, q, fmt.Errorf("audit: reading CSV line %d: %w", line, err)
			}
			var pe *csv.ParseError
			if !errors.As(err, &pe) {
				// Not a per-record syntax problem (e.g. the underlying
				// reader failed); retrying would loop forever.
				return nil, q, fmt.Errorf("audit: reading CSV line %d: %w", line, err)
			}
			if qerr := q.add(line, strings.Join(rec, ","), err, opts.MaxErrors); qerr != nil {
				return nil, q, qerr
			}
			continue
		}
		e, err := entryFromRecord(rec)
		if err != nil {
			if !opts.Lenient {
				return nil, q, fmt.Errorf("audit: CSV line %d: %w", line, err)
			}
			if qerr := q.add(line, strings.Join(rec, ","), err, opts.MaxErrors); qerr != nil {
				return nil, q, qerr
			}
			continue
		}
		if len(entries) == cap(entries) {
			var seen int64
			lines := line
			if window != nil {
				buffered, _ := window.Peek(window.Buffered())
				seen = cr.InputOffset() + int64(len(buffered))
				lines += bytes.Count(buffered, newline)
			}
			entries = z.grow(entries, seen, lines)
		}
		entries = append(entries, e)
	}
	return entries, q, nil
}

// maxJSONLLine bounds a single JSONL record; longer lines fail decoding.
const maxJSONLLine = 8 << 20

// DecodeJSONL reads a trail with one JSON object per line under the
// given options. Blank lines are skipped. In lenient mode malformed
// lines are quarantined and decoding continues. The returned quarantine
// is never nil.
func DecodeJSONL(r io.Reader, opts DecodeOptions) (*Trail, *Quarantine, error) {
	entries, q, err := DecodeJSONLEntries(r, opts)
	if err != nil {
		return nil, q, err
	}
	return NewTrail(entries), q, nil
}

// DecodeJSONLEntries is DecodeJSONL without the chronological sort and
// with the same sizing of its entry array (see DecodeCSVEntries). It
// runs on the zero-allocation EntryScanner; the scanner's slow-path
// escape hatch keeps strict errors and quarantine records identical to
// the historical bufio+encoding/json decoder. While the array has room,
// each line decodes straight into its slot; only an entry that finds
// the array full goes through the scanner's own entry.
func DecodeJSONLEntries(r io.Reader, opts DecodeOptions) ([]Entry, *Quarantine, error) {
	z := entrySizer{total: inputLen(r)}
	sc := NewEntryScanner(r, opts)
	var entries []Entry
	for {
		if n := len(entries); n < cap(entries) {
			if !sc.scanInto(&entries[:n+1][n]) {
				break
			}
			entries = entries[:n+1]
			continue
		}
		if !sc.Scan() {
			break
		}
		seen, lines := sc.seen()
		entries = append(z.grow(entries, seen, lines), *sc.Entry())
	}
	if err := sc.Err(); err != nil {
		return nil, sc.Quarantine(), err
	}
	return entries, sc.Quarantine(), nil
}

// sizeWindow is the input sample a whole-input decoder sizes its entry
// array from: the EntryScanner's first read fills this much, and the
// CSV decoder reads through a window of the same size.
const sizeWindow = 64 << 10

// minEntryLine is the shortest line, newline included, that decodes to
// an entry in either format: {"status":"success"} in JSONL (a CSV row
// needs seven commas and a 12-digit timestamp besides its status). It
// bounds the estimate when the sample is mostly blank lines.
const minEntryLine = len(`{"status":"success"}`) + 1

// inputLen returns how many bytes r has left to read, or -1 when r
// cannot tell: readers with a Len method (bytes.Reader, strings.Reader,
// bytes.Buffer) and regular files know it.
func inputLen(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return max(fi.Size()-off, 0)
	}
	return -1
}

// entrySizer grows a whole-input decoder's entry array so that the
// decode allocates it once instead of re-growing and copying it as
// append does. When the input's length is known the array is sized to
// the estimated entry count of the whole input, plus 1/8 headroom: the
// lines read so far plus the unread bytes over the mean line length of
// the sample read since the previous growth. The first growth samples
// the decoder's first window; one that finds the estimate short samples
// what was read after it, so input whose first window is unlike the
// rest grows once more, not by halves. Without a known length the array
// doubles.
type entrySizer struct {
	total int64 // input length in bytes, -1 when unknown
	seen  int64 // bytes read at the previous growth
	lines int   // lines among them
}

// grow returns entries, which is full, with room for more; seen bytes
// holding lines lines have been read from the input so far.
func (z *entrySizer) grow(entries []Entry, seen int64, lines int) []Entry {
	n := len(entries)
	c := max(2*n, 16)
	if z.total >= 0 {
		c = n + n/4 + 1
		if db, dl := seen-z.seen, lines-z.lines; db > 0 && dl > 0 {
			unread := max(z.total-seen, 0)
			est := (float64(lines) + float64(unread)*float64(dl)/float64(db)) * 9 / 8
			est = min(est, float64(z.total/int64(minEntryLine)+1))
			c = max(c, int(est))
		}
		z.seen, z.lines = seen, lines
	}
	grown := make([]Entry, n, c)
	copy(grown, entries)
	return grown
}

// entryFromJSON decodes one JSONL record.
func entryFromJSON(b []byte) (Entry, error) {
	var je jsonEntry
	if err := json.Unmarshal(b, &je); err != nil {
		return Entry{}, err
	}
	e := Entry{
		User: je.User, Role: je.Role, Action: je.Action,
		Task: je.Task, Case: je.Case, Time: je.Time,
	}
	if je.Object != "" {
		o, err := policy.ParseObject(je.Object)
		if err != nil {
			return Entry{}, err
		}
		e.Object = o
	}
	st, err := ParseStatus(je.Status)
	if err != nil {
		return Entry{}, err
	}
	e.Status = st
	return e, nil
}
