package audit

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/policy"
)

// EntryScanner is the raw-speed NDJSON ingestion path: it streams one
// Entry per line without allocating on clean input. The hot loop never
// touches encoding/json — field lookup is a byte-level parse of the
// known wire shape (see jsonEntry), strings are interned so repeated
// users/roles/tasks share storage, and timestamp parsing is amortized
// by memoizing the last raw token (audit trails are near-sorted, so
// consecutive entries usually repeat or nearly repeat timestamps).
//
// Any structural surprise — escape sequences, non-ASCII bytes, unknown
// value shapes, duplicate-but-odd forms — makes the line fall back to
// entryFromJSON, the exact decoder the slow path uses. A line the fast
// parser accepts decodes to the same Entry the slow path would produce,
// and a line it cannot handle is judged (accepted, rejected, or
// quarantined) by the slow decoder itself, so strict errors and
// lenient quarantine records are byte-identical to DecodeJSONLEntries'
// historical behavior.
type EntryScanner struct {
	r   io.Reader
	buf []byte
	// buf[start:end] is the unconsumed window.
	start, end int
	// readErr is the sticky error from r.Read (io.EOF included);
	// buffered data is still drained after it is set.
	readErr error
	// read counts the bytes read from r since the last Reset.
	read int64

	opts DecodeOptions
	quar Quarantine

	entry Entry
	line  int
	err   error

	// interners; bounded so a pathological stream cannot grow them
	// without limit (unseen strings past the cap are simply allocated).
	strs map[string]string
	objs map[string]policy.Object
	// timeRaw/timeVal memoize the last timestamp token (quotes
	// included), keyed on raw bytes so no parse runs for repeats.
	timeRaw []byte
	timeVal time.Time

	// fallbacks counts lines routed through entryFromJSON.
	fallbacks int
}

// maxInterned bounds each intern table of one scanner.
const maxInterned = 4096

// NewEntryScanner returns a scanner reading NDJSON entries from r.
func NewEntryScanner(r io.Reader, opts DecodeOptions) *EntryScanner {
	s := &EntryScanner{
		strs: make(map[string]string),
		objs: make(map[string]policy.Object),
	}
	s.Reset(r)
	s.opts = opts
	return s
}

// Reset rewires the scanner to a new reader, keeping its buffers and
// intern tables warm. Decode options are kept; position, error state
// and the quarantine are cleared.
func (s *EntryScanner) Reset(r io.Reader) {
	s.r = r
	s.start, s.end = 0, 0
	s.readErr = nil
	s.read = 0
	s.line = 0
	s.err = nil
	s.fallbacks = 0
	s.quar.Records = s.quar.Records[:0]
}

// Entry returns the current entry. It is overwritten by the next Scan,
// so callers that keep it must copy the struct (the strings are
// immutable and safe to share).
func (s *EntryScanner) Entry() *Entry { return &s.entry }

// Line returns the 1-based input line of the current entry.
func (s *EntryScanner) Line() int { return s.line }

// Err returns the terminal error: a read failure, a strict-mode decode
// error, or a lenient-mode MaxErrors overflow. nil after a clean EOF.
func (s *EntryScanner) Err() error { return s.err }

// Quarantine returns the records set aside so far (lenient mode).
func (s *EntryScanner) Quarantine() *Quarantine { return &s.quar }

// Buffered reports whether the scanner holds unconsumed bytes in
// memory — i.e. the next Scan will not block on a read. Batch
// consumers use it to flush pending work before a potentially
// blocking read, so live trickle streams keep per-entry latency.
func (s *EntryScanner) Buffered() bool { return s.end > s.start }

// Fallbacks reports how many lines were routed through the compatible
// slow decoder (diagnostics and tests).
func (s *EntryScanner) Fallbacks() int { return s.fallbacks }

// Scan advances to the next entry. It returns false at end of input or
// on a terminal error (see Err).
func (s *EntryScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for {
		raw, ok := s.nextLine()
		if !ok {
			if s.err == nil && s.readErr != nil && s.readErr != io.EOF {
				s.err = fmt.Errorf("audit: reading JSONL line %d: %w", s.line+1, s.readErr)
			}
			return false
		}
		s.line++
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) == 0 {
			continue
		}
		if s.parseFast(trimmed) {
			return true
		}
		// Escape hatch: defer the verdict on this line to the exact
		// decoder the slow path uses, so accepted entries, strict
		// errors and quarantine records never diverge from it.
		s.fallbacks++
		e, err := entryFromJSON(raw)
		if err == nil {
			s.entry = e
			return true
		}
		if !s.opts.Lenient {
			s.err = fmt.Errorf("audit: JSONL line %d: %w", s.line, err)
			return false
		}
		if qerr := s.quar.add(s.line, string(raw), err, s.opts.MaxErrors); qerr != nil {
			s.err = qerr
			return false
		}
	}
}

// Decode decodes one JSON entry — DecodeEntryJSON on the fast path:
// the fast parser claims what it can prove identical, and anything else
// goes to the exact slow decoder, so the result (entry or error) is
// always DecodeEntryJSON's. It shares the scanner's intern tables and
// timestamp memo, so one scanner decoding many entries of a trail pays
// for each distinct string and timestamp once. Decode leaves the
// scanner's reader and position alone but overwrites the entry that
// Entry returns.
func (s *EntryScanner) Decode(raw []byte) (Entry, error) {
	if s.parseFast(bytes.TrimSpace(raw)) {
		return s.entry, nil
	}
	s.fallbacks++
	return entryFromJSON(raw)
}

// seen reports the bytes read from the input so far and the lines they
// hold: the lines consumed plus those complete in the window. On the
// first entry that is the first window's sample of the input.
func (s *EntryScanner) seen() (n int64, lines int) {
	return s.read, s.line + bytes.Count(s.buf[s.start:s.end], newline)
}

var newline = []byte{'\n'}

// nextLine returns the next input line (newline stripped, one trailing
// \r dropped — bufio.ScanLines semantics) as a view into the buffer,
// valid until the next call.
func (s *EntryScanner) nextLine() ([]byte, bool) {
	for {
		if i := bytes.IndexByte(s.buf[s.start:s.end], '\n'); i >= 0 {
			line := s.buf[s.start : s.start+i]
			s.start += i + 1
			return dropCR(line), true
		}
		if s.readErr != nil {
			if s.end > s.start {
				line := s.buf[s.start:s.end]
				s.start = s.end
				return dropCR(line), true
			}
			return nil, false
		}
		if s.start > 0 {
			copy(s.buf, s.buf[s.start:s.end])
			s.end -= s.start
			s.start = 0
		}
		if s.end == len(s.buf) {
			if len(s.buf) >= maxJSONLLine {
				s.err = fmt.Errorf("audit: reading JSONL line %d: %w", s.line+1, bufio.ErrTooLong)
				return nil, false
			}
			// The read buffer is allocated on first read, so a scanner
			// used only for Decode never allocates one.
			size := max(2*len(s.buf), sizeWindow)
			if size > maxJSONLLine {
				size = maxJSONLLine
			}
			grown := make([]byte, size)
			copy(grown, s.buf[:s.end])
			s.buf = grown
		}
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		s.read += int64(n)
		if err != nil {
			s.readErr = err
		}
	}
}

func dropCR(line []byte) []byte {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		return line[:len(line)-1]
	}
	return line
}

// parseFast decodes one trimmed line of the exact wire shape, without
// allocating. false means "not claimed": the caller falls back to the
// slow decoder, whose verdict (entry or error) then stands. The fast
// parser only claims a line when its result is provably identical to
// entryFromJSON's: all values are plain ASCII strings without escapes,
// keys are the known fields (unknown string-valued keys are skipped,
// as encoding/json would), the timestamp parses via the same
// time.Time.UnmarshalJSON, and the status is the canonical lowercase
// form.
func (s *EntryScanner) parseFast(b []byte) bool {
	p := lineParser{b: b}
	if !p.eat('{') {
		return false
	}
	var e Entry
	seenStatus := false
	p.ws()
	if !p.eat('}') {
		for {
			p.ws()
			key, _, ok := p.str()
			if !ok {
				return false
			}
			p.ws()
			if !p.eat(':') {
				return false
			}
			p.ws()
			val, token, ok := p.str()
			if !ok {
				// Known fields are always strings on the wire; a
				// non-string value for an unknown key would need a full
				// JSON skip. Either way, the slow path decides.
				return false
			}
			switch string(key) {
			case "user":
				e.User = s.intern(val)
			case "role":
				e.Role = s.intern(val)
			case "action":
				e.Action = s.intern(val)
			case "task":
				e.Task = s.intern(val)
			case "case":
				e.Case = s.intern(val)
			case "object":
				if len(val) > 0 {
					obj, ok := s.objectFor(val)
					if !ok {
						return false
					}
					e.Object = obj
				} else {
					e.Object = policy.Object{}
				}
			case "time":
				if !bytes.Equal(token, s.timeRaw) {
					var t time.Time
					// The same UnmarshalJSON encoding/json would call,
					// so accepted forms and parse failures line up
					// exactly; failures fall back for the exact error.
					if err := t.UnmarshalJSON(token); err != nil {
						return false
					}
					s.timeRaw = append(s.timeRaw[:0], token...)
					s.timeVal = t
				}
				e.Time = s.timeVal
			case "status":
				switch {
				case bytes.Equal(val, statusSuccess):
					e.Status = Success
				case bytes.Equal(val, statusFailure):
					e.Status = Failure
				default:
					// Mixed-case forms ("Success") are legal via
					// ParseStatus; let the slow path produce them.
					return false
				}
				seenStatus = true
			default:
				// encoding/json matches keys case-insensitively, so a
				// known field under another case is the slow path's to
				// decode; any other key is ignored, as encoding/json
				// ignores unmapped fields.
				if knownKeyFold(key) {
					return false
				}
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			if p.eat('}') {
				break
			}
			return false
		}
	}
	p.ws()
	if p.i != len(p.b) {
		return false // trailing garbage: stdlib errors, slow path decides
	}
	if !seenStatus {
		return false // ParseStatus("") must produce the canonical error
	}
	s.entry = e
	return true
}

// knownKeyFold reports whether key names a wire field in another case.
func knownKeyFold(key []byte) bool {
	for _, k := range [...]string{"user", "role", "action", "object", "task", "case", "time", "status"} {
		if len(key) == len(k) && bytes.EqualFold(key, []byte(k)) {
			return true
		}
	}
	return false
}

var (
	statusSuccess = []byte("success")
	statusFailure = []byte("failure")
)

// intern returns a shared string for b. Lookups on known strings do
// not allocate (map access with a string([]byte) key compiles to an
// allocation-free probe).
func (s *EntryScanner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if v, ok := s.strs[string(b)]; ok {
		return v
	}
	v := string(b)
	if len(s.strs) < maxInterned {
		s.strs[v] = v
	}
	return v
}

// objectFor resolves an object literal through the intern table,
// parsing (and caching) unseen ones. ok=false means the literal does
// not parse — the slow path reproduces the exact error.
func (s *EntryScanner) objectFor(b []byte) (policy.Object, bool) {
	if o, ok := s.objs[string(b)]; ok {
		return o, true
	}
	o, err := policy.ParseObject(string(b))
	if err != nil {
		return policy.Object{}, false
	}
	if len(s.objs) < maxInterned {
		s.objs[string(b)] = o
	}
	return o, true
}

// lineParser is a zero-copy cursor over one line.
type lineParser struct {
	b []byte
	i int
}

func (p *lineParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *lineParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str scans a JSON string containing only printable ASCII without
// escapes — the wire alphabet of every field auditgen and AppendJSONL
// emit. val is the content, token includes the quotes (for
// time.Time.UnmarshalJSON). Anything else (escapes, control bytes,
// non-ASCII — where stdlib's UTF-8 sanitization could diverge) is not
// claimed.
func (p *lineParser) str() (val, token []byte, ok bool) {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, nil, false
	}
	start := p.i
	p.i++
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			p.i++
			return p.b[start+1 : p.i-1], p.b[start:p.i], true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, nil, false
		}
		p.i++
	}
	return nil, nil, false
}
