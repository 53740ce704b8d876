package audit

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"time"

	"repro/internal/policy"
)

// EntryScanner is the raw-speed NDJSON ingestion path: it streams one
// Entry per line without allocating on clean input. The hot loop never
// touches encoding/json: it is a byte-level parse of the known wire
// shape (see jsonEntry) that reads each byte of a line once, built on
// four claim rules, each of which yields exactly the Entry entryFromJSON
// would:
//
//   - Checked bytes. Every byte the parser consumes is either matched
//     as a literal (braces, commas, colons, quotes, keys, and spaces,
//     the only whitespace it skips) or read by a string scan that
//     stops at the first backslash, byte below 0x20 or byte at or
//     above 0x80, eight bytes at a time. Such a byte unclaims the
//     line, so every string it claims is literal ASCII (no escape,
//     control byte or UTF-8 sequence for encoding/json to rewrite) and
//     ends at its next quote.
//   - Predicted keys. Lines follow AppendJSONL's key order, so after
//     each field the parser compares the bytes at the cursor with the
//     next key's `"key":"` (`"role":"` after "user", and so on) as one
//     8-byte word, plus a 2-byte tail for the 10-byte ones. A hit is
//     the exact key and the value's opening quote; on a miss the key is
//     scanned and looked up, so lines in another order or with spaces
//     still take this parser.
//   - Field memos. Consecutive lines mostly repeat user, role, case and
//     object, so each string field is first compared with the same
//     field's previous value and reuses it; then an intern table shares
//     repeated strings. Either way the value is the same string.
//   - Same-day timestamps. A token of the form "YYYY-MM-DDTHH:MM:SSZ"
//     whose date matches the previous such token's is that day's start
//     plus the clock, once the clock digits are in range (hour ≤ 23,
//     minute and second ≤ 59): time.Time.UnmarshalJSON returns that
//     same UTC instant for it. Every other token is parsed by
//     UnmarshalJSON itself.
//
// Any structural surprise (escape sequences, non-ASCII bytes, unknown
// value shapes, tabs, a missing status) makes the line fall back to
// entryFromJSON, the exact decoder the slow path uses. A line the fast
// parser accepts decodes to the same Entry the slow path would produce,
// and a line it cannot handle is judged (accepted, rejected, or
// quarantined) by the slow decoder itself, so strict errors and lenient
// quarantine records are byte-identical to DecodeJSONLEntries'
// historical behavior. The same parser serves DecodeJSONLEntries, the
// offline path, and auditd's pooled request scanners.
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
	// last holds each string field's previous value; objRaw/obj the
	// previous non-empty object literal and its parse.
	last   [numFields]string
	objRaw []byte
	obj    policy.Object
	// day is the date part ("YYYY-MM-DDT") of the last canonical UTC
	// timestamp parsed, dayUnix the Unix second of its midnight.
	day     [11]byte
	dayUnix int64
	dayOK   bool

	// fallbacks counts lines routed through entryFromJSON.
	fallbacks int
}

// maxInterned bounds each intern table of one scanner.
const maxInterned = 4096

// The wire fields, in the order AppendJSONL writes them.
const (
	fieldUser = iota
	fieldRole
	fieldAction
	fieldObject
	fieldTask
	fieldCase
	fieldTime
	fieldStatus
	numFields
)

// fieldNames are the wire keys, in field order.
var fieldNames = [numFields]string{"user", "role", "action", "object", "task", "case", "time", "status"}

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

// Reset rewires the scanner to a new reader, keeping its buffers,
// intern tables and memos warm. Decode options are kept; position,
// error state and the quarantine are cleared. Two things are let go so
// that a long-lived (pooled) scanner stays bounded and useful: a read
// buffer that one overlong line grew past the default window, and an
// intern table that is full, which would otherwise stop interning the
// strings of every later stream.
func (s *EntryScanner) Reset(r io.Reader) {
	if len(s.buf) > sizeWindow {
		s.buf = nil
	}
	if len(s.strs) >= maxInterned {
		clear(s.strs)
	}
	if len(s.objs) >= maxInterned {
		clear(s.objs)
	}
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
func (s *EntryScanner) Scan() bool { return s.scanInto(&s.entry) }

// scanInto is Scan decoding into dst, which it may overwrite even when
// it returns false.
func (s *EntryScanner) scanInto(dst *Entry) bool {
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
		if s.parseFast(raw, dst) {
			return true
		}
		if len(bytes.TrimSpace(raw)) == 0 {
			continue // a blank line is never claimed
		}
		// Escape hatch: defer the verdict on this line to the exact
		// decoder the slow path uses, so accepted entries, strict
		// errors and quarantine records never diverge from it.
		s.fallbacks++
		e, err := entryFromJSON(raw)
		if err == nil {
			*dst = e
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
// memos, so one scanner decoding many entries of a trail pays for each
// distinct string and day once. Decode leaves the scanner's reader and
// position alone but overwrites the entry that Entry returns.
func (s *EntryScanner) Decode(raw []byte) (Entry, error) {
	if s.parseFast(raw, &s.entry) {
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

// parseFast decodes one line into dst without allocating, under the
// claim rules of EntryScanner. false means "not claimed": the caller
// falls back to the slow decoder, whose verdict (entry or error) then
// stands, and dst may hold a partial decode. The line is not trimmed,
// since bytes.TrimSpace would drop Unicode spaces that encoding/json
// rejects: every byte is either matched as a literal or checked by a
// string scan.
func (s *EntryScanner) parseFast(b []byte, dst *Entry) bool {
	p := lineParser{b: b}
	p.ws()
	if !p.eat('{') {
		return false
	}
	// A line without a status is not claimed (see below), so "{}"
	// needs no case of its own.
	var seen uint32
	for next := fieldUser; ; {
		f, ok := p.key(next)
		if !ok {
			return false
		}
		val, ok := p.body()
		if !ok {
			return false
		}
		switch f {
		case fieldUser:
			dst.User = s.memo(fieldUser, val)
		case fieldRole:
			dst.Role = s.memo(fieldRole, val)
		case fieldAction:
			dst.Action = s.memo(fieldAction, val)
		case fieldTask:
			dst.Task = s.memo(fieldTask, val)
		case fieldCase:
			dst.Case = s.memo(fieldCase, val)
		case fieldObject:
			if len(val) == 0 {
				dst.Object = policy.Object{}
			} else if dst.Object, ok = s.objectFor(val); !ok {
				return false
			}
		case fieldTime:
			// The token, quotes included, is what UnmarshalJSON reads.
			if dst.Time, ok = s.timeFor(p.b[p.i-len(val)-2 : p.i]); !ok {
				return false
			}
		case fieldStatus:
			switch string(val) {
			case "success":
				dst.Status = Success
			case "failure":
				dst.Status = Failure
			default:
				// Mixed-case forms ("Success") are legal via
				// ParseStatus; let the slow path produce them.
				return false
			}
		}
		if f >= 0 {
			seen |= 1 << f
			next = f + 1
		}
		p.ws()
		if p.eat(',') {
			continue
		}
		if !p.eat('}') {
			return false
		}
		break
	}
	p.ws()
	if p.i != len(p.b) {
		return false // trailing garbage: stdlib errors, slow path decides
	}
	if seen&(1<<fieldStatus) == 0 {
		return false // ParseStatus("") must produce the canonical error
	}
	if seen != 1<<numFields-1 {
		zeroMissing(dst, seen)
	}
	return true
}

// zeroMissing clears the fields of dst that the line did not set, as
// encoding/json leaves absent fields at their zero value.
func zeroMissing(dst *Entry, seen uint32) {
	for f := range numFields {
		if seen&(1<<f) != 0 {
			continue
		}
		switch f {
		case fieldUser:
			dst.User = ""
		case fieldRole:
			dst.Role = ""
		case fieldAction:
			dst.Action = ""
		case fieldObject:
			dst.Object = policy.Object{}
		case fieldTask:
			dst.Task = ""
		case fieldCase:
			dst.Case = ""
		case fieldTime:
			dst.Time = time.Time{}
		}
	}
}

// knownKeyFold reports whether key names a wire field in another case.
func knownKeyFold(key []byte) bool {
	for _, k := range fieldNames {
		if len(key) == len(k) && bytes.EqualFold(key, []byte(k)) {
			return true
		}
	}
	return false
}

// memo returns the string for field f's value b: the field's previous
// value when b repeats it, else the interned string.
func (s *EntryScanner) memo(f int, b []byte) string {
	if string(b) == s.last[f] {
		return s.last[f]
	}
	v := s.intern(b)
	s.last[f] = v
	return v
}

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

// objectFor resolves an object literal through the previous line's
// object and the intern table, parsing (and caching) unseen ones.
// ok=false means the literal does not parse — the slow path reproduces
// the exact error.
func (s *EntryScanner) objectFor(b []byte) (policy.Object, bool) {
	if s.objRaw != nil && bytes.Equal(b, s.objRaw) {
		return s.obj, true
	}
	o, ok := s.objs[string(b)]
	if !ok {
		var err error
		if o, err = policy.ParseObject(string(b)); err != nil {
			return policy.Object{}, false
		}
		if len(s.objs) < maxInterned {
			s.objs[string(b)] = o
		}
	}
	s.objRaw = append(s.objRaw[:0], b...)
	s.obj = o
	return o, true
}

// canonicalTime is the length of a `"YYYY-MM-DDTHH:MM:SSZ"` token.
const canonicalTime = len(`"2006-01-02T15:04:05Z"`)

// timeFor returns the instant of a timestamp token (quotes included),
// by the same-day rule when it applies and by time.Time.UnmarshalJSON,
// the method encoding/json calls, otherwise; ok=false means
// UnmarshalJSON fails, and the slow path reproduces the error.
func (s *EntryScanner) timeFor(tok []byte) (t time.Time, ok bool) {
	clock, canonical := canonicalClock(tok)
	if canonical && s.dayOK && string(tok[1:12]) == string(s.day[:]) {
		return time.Unix(s.dayUnix+clock, 0).UTC(), true
	}
	if err := t.UnmarshalJSON(tok); err != nil {
		return time.Time{}, false
	}
	if canonical {
		copy(s.day[:], tok[1:12])
		s.dayUnix = t.Unix() - clock
		s.dayOK = true
	}
	return t, true
}

// canonicalClock reports whether tok has the canonical UTC shape
// `"YYYY-MM-DDTHH:MM:SSZ"` with a clock in range, and returns the
// clock's seconds since midnight. The date part is not checked: the
// same-day rule only uses it after UnmarshalJSON accepted it.
func canonicalClock(tok []byte) (int64, bool) {
	if len(tok) != canonicalTime || tok[11] != 'T' || tok[14] != ':' || tok[17] != ':' || tok[20] != 'Z' {
		return 0, false
	}
	h, okH := twoDigits(tok[12], tok[13])
	m, okM := twoDigits(tok[15], tok[16])
	sec, okS := twoDigits(tok[18], tok[19])
	if !okH || !okM || !okS || h > 23 || m > 59 || sec > 59 {
		return 0, false
	}
	return h*3600 + m*60 + sec, true
}

func twoDigits(a, b byte) (int64, bool) {
	if a < '0' || a > '9' || b < '0' || b > '9' {
		return 0, false
	}
	return int64(a-'0')*10 + int64(b-'0'), true
}

// lineParser is a zero-copy cursor over one line.
type lineParser struct {
	b []byte
	i int
}

// ws skips spaces. encoding/json also skips tabs, CR and LF; a line
// holding one where the parser looks for a token is not claimed.
func (p *lineParser) ws() {
	for p.i < len(p.b) && p.b[p.i] == ' ' {
		p.i++
	}
}

func (p *lineParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key consumes an object key, the colon after it and the opening quote
// of its value, and returns its field, or -1 for a key encoding/json
// would ignore. It first matches the predicted field's `"key":"` (or,
// after "action", task's, since AppendJSONL omits an empty object) as
// one word; only on a miss is the key scanned and looked up. ok=false:
// malformed, a value that is not a string (known fields are always
// strings on the wire; any other value would need a full JSON skip), or
// a known key in another case, which encoding/json matches
// case-insensitively and the slow path decodes.
func (p *lineParser) key(next int) (f int, ok bool) {
	if next < numFields && p.word(next) {
		return next, true
	}
	if next == fieldObject && p.word(fieldTask) {
		return fieldTask, true
	}
	p.ws()
	if !p.eat('"') {
		return 0, false
	}
	k, ok := p.body()
	if !ok {
		return 0, false
	}
	p.ws()
	if !p.eat(':') {
		return 0, false
	}
	p.ws()
	if !p.eat('"') {
		return 0, false
	}
	for f, name := range fieldNames {
		if string(k) == name {
			return f, true
		}
	}
	if knownKeyFold(k) {
		return 0, false
	}
	return -1, true
}

// keyWord is a field's `"key":"` literal as little-endian words: its
// first eight bytes, and for a ten-byte literal the last two.
type keyWord struct {
	head uint64
	tail uint16
	n    int
}

// keyWords holds each field's literal, in field order.
var keyWords = func() (w [numFields]keyWord) {
	for f, name := range fieldNames {
		var lit [16]byte
		n := copy(lit[:], `"`+name+`":"`)
		w[f] = keyWord{binary.LittleEndian.Uint64(lit[:]), binary.LittleEndian.Uint16(lit[8:]), n}
	}
	return w
}()

// word consumes field f's `"key":"` if the input continues with it.
func (p *lineParser) word(f int) bool {
	k := &keyWords[f]
	if len(p.b)-p.i < k.n || binary.LittleEndian.Uint64(p.b[p.i:]) != k.head ||
		k.n > 8 && binary.LittleEndian.Uint16(p.b[p.i+8:]) != k.tail {
		return false
	}
	p.i += k.n
	return true
}

// body scans a string body from the cursor, which is just past its
// opening quote, and returns it with the cursor past the closing quote.
// It claims only literal ASCII: ok=false when a backslash, a byte below
// 0x20 or a byte at or above 0x80 comes before the closing quote (or
// no quote does), since encoding/json would rewrite or reject it. It
// tests eight bytes per step. In each word the high bit of a byte lane
// is set by x-0x20 for bytes below 0x20 and at or above 0xA0, and by
// (x^c)-1 for the byte c (the quote, the backslash) and for every byte
// at or above 0x80 but the one that x^c maps to 0x80, which the other
// terms flag. A lane only borrows from the one above it when it is
// flagged itself, so the lowest flagged lane is exact even where lanes
// above it are flagged falsely.
func (p *lineParser) body() ([]byte, bool) {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	start, i := p.i, p.i
	for ; i+8 <= len(p.b); i += 8 {
		x := binary.LittleEndian.Uint64(p.b[i:])
		if m := ((x - 0x20*ones) | ((x ^ '"'*ones) - ones) | ((x ^ '\\'*ones) - ones)) & highs; m != 0 {
			i += bits.TrailingZeros64(m) / 8
			return p.close(start, i)
		}
	}
	for ; i < len(p.b); i++ {
		if c := p.b[i]; c == '"' || c < 0x20 || c >= 0x80 || c == '\\' {
			break
		}
	}
	return p.close(start, i)
}

// close ends the string body b[start:i] if b[i] is its closing quote.
func (p *lineParser) close(start, i int) ([]byte, bool) {
	if i >= len(p.b) || p.b[i] != '"' {
		return nil, false
	}
	p.i = i + 1
	return p.b[start:i], true
}
