package audit

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/policy"
)

// The paper assumes audit trails are integrity-protected and cites
// forward-secure logging schemes ([18] Ma & Tsudik, [19] Schneier &
// Kelsey) as orthogonal machinery. This file holds the shared sealing
// primitives — the canonical entry serialization, the SHA-256 hash
// chain over it, and the evolving-key HMAC seal — plus SecureLog, a
// thin per-entry log over them. internal/ledger builds its Merkle
// leaves from the same chain, so there is exactly one definition of
// "what bytes an entry commits to" in the tree.

// ErrIntegrity reports a failed verification of a secure log.
var ErrIntegrity = errors.New("audit: secure log integrity violation")

// SealedEntry is an entry together with its chain hash and seal.
type SealedEntry struct {
	Entry Entry
	// Chain is SHA-256(prevChain || canonical(entry)), hex.
	Chain string
	// Seal is HMAC(key_i, Chain), hex, with key_i the i-th evolution
	// of the log key.
	Seal string
}

// SecureLog is an append-only, hash-chained, HMAC-sealed log.
type SecureLog struct {
	entries []SealedEntry
	chain   [32]byte // last chain hash
	key     []byte   // current (evolved) key
	scratch []byte   // ChainStep buffer
}

// NewSecureLog initializes a log with the given secret key. The caller
// keeps (a copy of) the initial key offline for verification; the log's
// own copy evolves with every append.
func NewSecureLog(key []byte) *SecureLog {
	return &SecureLog{
		chain: ChainSeed(),
		key:   append([]byte(nil), key...),
	}
}

// ChainSeed returns the fixed chain starting point shared by every
// sealed trail (and by the ledger's leaf chain).
func ChainSeed() [32]byte {
	return sha256.Sum256([]byte("purpose-control-secure-log-v1"))
}

// canonicalTimeLayout renders the time field of CanonicalEntry.
const canonicalTimeLayout = "20060102150405.000000000"

// CanonicalEntry serializes the entry for hashing; every field is
// length prefixed ("<byte length>:<bytes>") so field boundaries cannot
// be confused. This is the byte string an entry commits to — in
// SecureLog seals and in ledger Merkle leaves alike — so its bytes are
// a frozen wire contract: changing them invalidates every signed root.
func CanonicalEntry(e Entry) []byte {
	return AppendCanonicalEntry(nil, e)
}

// AppendCanonicalEntry appends CanonicalEntry(e) to dst without
// intermediate strings: fields, the time included, are written in
// place.
func AppendCanonicalEntry(dst []byte, e Entry) []byte {
	dst, _ = appendCanonical(dst, &e)
	return dst
}

// appendCanonical is AppendCanonicalEntry that also returns where the
// case field's value ends in dst.
func appendCanonical(dst []byte, e *Entry) ([]byte, int) {
	dst = appendField(dst, e.User)
	dst = appendField(dst, e.Role)
	dst = appendField(dst, e.Action)
	dst = appendObjectField(dst, e.Object)
	dst = appendField(dst, e.Task)
	dst = appendField(dst, e.Case)
	caseEnd := len(dst)
	dst = appendCanonicalTime(dst, e.Time.UTC())
	return appendField(dst, e.Status.String()), caseEnd
}

// appendCanonicalTime writes the time field: t, which is in UTC, in
// canonicalTimeLayout. Years 0–9999 are written digit by digit, which
// is what AppendFormat writes for them; other years take AppendFormat.
func appendCanonicalTime(dst []byte, t time.Time) []byte {
	year, month, day := t.Date()
	if year < 0 || year > 9999 {
		var tb [64]byte
		return appendField(dst, t.AppendFormat(tb[:0], canonicalTimeLayout))
	}
	hour, minute, sec := t.Clock()
	dst = strconv.AppendInt(dst, int64(len(canonicalTimeLayout)), 10)
	dst = append(dst, ':')
	dst = appendDigits(dst, year, 4)
	dst = appendDigits(dst, int(month), 2)
	dst = appendDigits(dst, day, 2)
	dst = appendDigits(dst, hour, 2)
	dst = appendDigits(dst, minute, 2)
	dst = appendDigits(dst, sec, 2)
	dst = append(dst, '.')
	return appendDigits(dst, t.Nanosecond(), 9)
}

// appendDigits writes v, which is non-negative and below 10^width, as
// exactly width decimal digits.
func appendDigits(dst []byte, v, width int) []byte {
	n := len(dst) + width
	dst = append(dst, "000000000"[:width]...)
	for i := n - 1; v > 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
	return dst
}

func appendField[T string | []byte](dst []byte, f T) []byte {
	dst = strconv.AppendInt(dst, int64(len(f)), 10)
	dst = append(dst, ':')
	return append(dst, f...)
}

// appendObjectField writes the field for Object.String(): an optional
// "[subject]" followed by the "/"-joined path.
func appendObjectField(dst []byte, o policy.Object) []byte {
	n := 0
	if o.Subject != "" {
		n = len(o.Subject) + 2
	}
	for i, p := range o.Path {
		if i > 0 {
			n++
		}
		n += len(p)
	}
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, ':')
	if o.Subject != "" {
		dst = append(dst, '[')
		dst = append(dst, o.Subject...)
		dst = append(dst, ']')
	}
	for i, p := range o.Path {
		if i > 0 {
			dst = append(dst, '/')
		}
		dst = append(dst, p...)
	}
	return dst
}

// ParseCanonicalEntry is the inverse of AppendCanonicalEntry: it
// rebuilds the entry that b commits to, its time in UTC (the canonical
// bytes keep the instant, not the zone). It accepts exactly the byte
// strings AppendCanonicalEntry writes, so AppendCanonicalEntry(nil, e)
// reproduces b for the entry e it returns.
// The entry's strings share one copy of b.
//
// The object field is "[subject]path" flattened, so it is split back
// the way policy.ParseObject reads the wire form: a leading "[...]"
// with a non-empty subject, then the path on "/". Every object the
// wire accepts comes back unchanged; any other comes back as an object
// with the same rendering, hence the same bytes.
func ParseCanonicalEntry(b []byte) (Entry, error) {
	e, _, err := parseCanonical(b)
	return e, err
}

// parseCanonical is ParseCanonicalEntry that also returns the scan,
// which locates the entry's fields in b.
func parseCanonical(b []byte) (Entry, canonicalScan, error) {
	c, err := scanCanonicalEntry(b)
	if err != nil {
		return Entry{}, c, err
	}
	if c.n != len(b) {
		return Entry{}, c, fmt.Errorf("audit: canonical entry: %d trailing bytes", len(b)-c.n)
	}
	s := string(b)
	f := func(i int) string { return s[c.fields[i][0]:c.fields[i][1]] }
	return Entry{
		User: f(0), Role: f(1), Action: f(2), Object: canonicalObject(f(3)),
		Task: f(4), Case: f(5), Time: c.time, Status: c.status,
	}, c, nil
}

// NextCanonicalEntry checks the canonical entry at the start of b
// without building it, and returns its length and its case field (a
// subslice of b). It accepts an entry exactly when ParseCanonicalEntry
// accepts those n bytes, and allocates nothing: a reader of
// concatenated canonical entries (a checkpointed ledger batch) walks
// them with it in place.
func NextCanonicalEntry(b []byte) (n int, caseID []byte, err error) {
	c, err := scanCanonicalEntry(b)
	if err != nil {
		return 0, nil, err
	}
	return c.n, b[c.fields[5][0]:c.fields[5][1]], nil
}

// CanonicalBatch is a run of entries in canonical form, back to back,
// each with the span of its case field. An acknowledged entry is
// rendered into one once: the WAL frames its bytes and the ledger
// chains and keeps them as they are. The bytes are canonical by
// construction, since Render renders them and Parse admits only what
// ParseCanonicalEntry accepts, so a reader of a batch checks nothing.
// The zero value is an empty batch.
type CanonicalBatch struct {
	buf   []byte
	spans []canonicalSpan
}

// canonicalSpan locates one entry of a CanonicalBatch: its bytes end
// at end in buf (and start where the previous entry's end), and its
// case field's value is buf[caseLo:caseHi].
type canonicalSpan struct{ end, caseLo, caseHi int }

// Len returns the number of entries in the batch.
func (b *CanonicalBatch) Len() int { return len(b.spans) }

// At returns entry i's canonical bytes and its case field, both
// aliasing the batch until it is next filled.
func (b *CanonicalBatch) At(i int) (canon, caseID []byte) {
	start := 0
	if i > 0 {
		start = b.spans[i-1].end
	}
	s := b.spans[i]
	return b.buf[start:s.end], b.buf[s.caseLo:s.caseHi]
}

// Render fills the batch with the entries' canonical bytes, reusing
// its capacity.
func (b *CanonicalBatch) Render(entries []Entry) {
	b.buf, b.spans = b.buf[:0], b.spans[:0]
	for i := range entries {
		var caseEnd int
		b.buf, caseEnd = appendCanonical(b.buf, &entries[i])
		b.spans = append(b.spans, canonicalSpan{len(b.buf), caseEnd - len(entries[i].Case), caseEnd})
	}
}

// Parse fills the batch with a copy of canon, which must be exactly
// one canonical entry, and returns that entry as ParseCanonicalEntry
// does. Bytes it refuses leave the batch empty.
func (b *CanonicalBatch) Parse(canon []byte) (Entry, error) {
	b.buf, b.spans = b.buf[:0], b.spans[:0]
	e, c, err := parseCanonical(canon)
	if err != nil {
		return e, err
	}
	b.buf = append(b.buf, canon...)
	b.spans = append(b.spans, canonicalSpan{len(canon), c.fields[5][0], c.fields[5][1]})
	return e, nil
}

// canonicalScan is one checked canonical entry: the value span of each
// of its eight fields, its length, and its decoded time and status.
type canonicalScan struct {
	fields [8][2]int
	n      int
	time   time.Time
	status Status
}

// scanCanonicalEntry checks the canonical entry at the start of b:
// eight well-formed fields, a time field appendCanonicalTime writes and
// a known status. Bytes past the entry are left to the caller.
func scanCanonicalEntry(b []byte) (canonicalScan, error) {
	var c canonicalScan
	for i := range c.fields {
		lo, hi, ok := cutCanonicalField(b, c.n)
		if !ok {
			return c, fmt.Errorf("audit: canonical entry: malformed field %d", i+1)
		}
		c.fields[i], c.n = [2]int{lo, hi}, hi
	}
	tf := b[c.fields[6][0]:c.fields[6][1]]
	t, ok := parseCanonicalTime(tf)
	if !ok {
		return c, fmt.Errorf("audit: canonical entry: malformed time %q", tf)
	}
	c.time = t
	switch st := b[c.fields[7][0]:c.fields[7][1]]; string(st) {
	case "success":
	case "failure":
		c.status = Failure
	default:
		return c, fmt.Errorf("audit: canonical entry: unknown status %q", st)
	}
	return c, nil
}

// cutCanonicalField reads the "<byte length>:<bytes>" field that starts
// at b[at:] and returns its value span. The length must be written as
// appendField writes it: decimal digits without a leading zero.
func cutCanonicalField(b []byte, at int) (lo, hi int, ok bool) {
	s := b[at:]
	colon := bytes.IndexByte(s, ':')
	if colon < 1 || colon > 10 || (s[0] == '0' && colon > 1) {
		return 0, 0, false
	}
	n := 0
	for i := 0; i < colon; i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		n = n*10 + int(c-'0')
	}
	if n > len(s)-colon-1 {
		return 0, 0, false
	}
	lo = at + colon + 1
	return lo, lo + n, true
}

// canonicalObject reads an object field back (see ParseCanonicalEntry).
func canonicalObject(s string) policy.Object {
	var o policy.Object
	if len(s) > 2 && s[0] == '[' {
		if end := strings.IndexByte(s, ']'); end > 1 {
			o.Subject, s = s[1:end], s[end+1:]
		}
	}
	if s != "" {
		o.Path = strings.Split(s, "/")
	}
	return o
}

// parseCanonicalTime reads a time field: the year, then MMDDhhmmss,
// a dot and nine fractional digits. It accepts only what
// appendCanonicalTime writes for the instant it reads, which also rules
// out dates that time.Date would normalize (a 30 February). A
// four-digit year, the form appendCanonicalTime writes for years 0
// through 9999, is checked by range; any other year by rendering the
// time again and comparing.
func parseCanonicalTime(s []byte) (time.Time, bool) {
	const tail = len("0102150405.000000000")
	if len(s) <= tail || s[len(s)-10] != '.' {
		return time.Time{}, false
	}
	d := s[len(s)-tail:]
	// month, day, hour, minute, second, nanosecond
	var v [6]int
	for i := range v {
		digits := d[2*i : 2*i+2]
		if i == 5 {
			digits = d[11:]
		}
		for j := 0; j < len(digits); j++ {
			if digits[j] < '0' || digits[j] > '9' {
				return time.Time{}, false
			}
			v[i] = v[i]*10 + int(digits[j]-'0')
		}
	}
	if ys := s[:len(s)-tail]; len(ys) == 4 {
		year := 0
		for _, c := range ys {
			if c < '0' || c > '9' {
				return time.Time{}, false
			}
			year = year*10 + int(c-'0')
		}
		month := time.Month(v[0])
		if month < time.January || month > time.December || v[1] < 1 || v[1] > daysIn(month, year) ||
			v[2] > 23 || v[3] > 59 || v[4] > 59 {
			return time.Time{}, false
		}
		return time.Date(year, month, v[1], v[2], v[3], v[4], v[5], time.UTC), true
	}
	year, err := strconv.Atoi(string(s[:len(s)-tail]))
	if err != nil {
		return time.Time{}, false
	}
	t := time.Date(year, time.Month(v[0]), v[1], v[2], v[3], v[4], v[5], time.UTC)
	var buf [64]byte
	field := appendCanonicalTime(buf[:0], t)
	if !bytes.Equal(field[bytes.IndexByte(field, ':')+1:], s) {
		return time.Time{}, false
	}
	return t, true
}

// daysIn returns the number of days in month m of the proleptic
// Gregorian year y.
func daysIn(m time.Month, y int) int {
	switch m {
	case time.February:
		if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
			return 29
		}
		return 28
	case time.April, time.June, time.September, time.November:
		return 30
	}
	return 31
}

// ChainStep advances the hash chain over one entry,
// SHA-256(prev || CanonicalEntry(e)), building the hashed bytes in
// buf. It returns the new chain hash and buf (possibly grown) for the
// caller to pass back next time; with a buffer that has grown to fit
// the entry it allocates nothing.
func ChainStep(buf []byte, prev [32]byte, e Entry) ([32]byte, []byte) {
	buf = append(buf[:0], prev[:]...)
	buf = AppendCanonicalEntry(buf, e)
	return sha256.Sum256(buf), buf
}

// ChainCanonical is ChainStep over an entry already in canonical
// form: SHA-256(prev || canon), built in buf as ChainStep does.
func ChainCanonical(buf []byte, prev [32]byte, canon []byte) ([32]byte, []byte) {
	buf = append(append(buf[:0], prev[:]...), canon...)
	return sha256.Sum256(buf), buf
}

// ChainNext is ChainStep with a buffer of its own.
func ChainNext(prev [32]byte, e Entry) [32]byte {
	var b [256]byte
	h, _ := ChainStep(b[:0], prev, e)
	return h
}

// SealChain computes the HMAC seal of a chain hash under the current
// key.
func SealChain(key, chain []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(chain)
	return mac.Sum(nil)
}

// EvolveKey derives the next sealing key from the current one; the
// one-way step is what gives the scheme forward security.
func EvolveKey(key []byte) []byte {
	h := sha256.New()
	h.Write([]byte("evolve"))
	h.Write(key)
	return h.Sum(nil)
}

// Append seals and stores an entry.
func (l *SecureLog) Append(e Entry) SealedEntry {
	var chain [32]byte
	chain, l.scratch = ChainStep(l.scratch, l.chain, e)
	seal := SealChain(l.key, chain[:])
	se := SealedEntry{Entry: e, Chain: hex.EncodeToString(chain[:]), Seal: hex.EncodeToString(seal)}
	l.entries = append(l.entries, se)
	l.chain = chain
	l.key = EvolveKey(l.key)
	return se
}

// Len returns the number of sealed entries.
func (l *SecureLog) Len() int { return len(l.entries) }

// Entries returns a copy of the sealed entries.
func (l *SecureLog) Entries() []SealedEntry {
	return append([]SealedEntry(nil), l.entries...)
}

// Trail extracts the plain trail for analysis.
func (l *SecureLog) Trail() *Trail {
	es := make([]Entry, len(l.entries))
	for i, se := range l.entries {
		es[i] = se.Entry
	}
	return NewTrail(es)
}

// Verify checks a sealed sequence against the initial key: the chain
// must recompute and every seal must match under the corresponding key
// evolution. expectLen, when ≥ 0, additionally detects truncation by
// requiring exactly that many entries.
func Verify(initialKey []byte, entries []SealedEntry, expectLen int) error {
	if expectLen >= 0 && len(entries) != expectLen {
		return fmt.Errorf("%w: have %d entries, expect %d (truncation?)", ErrIntegrity, len(entries), expectLen)
	}
	chain := ChainSeed()
	key := append([]byte(nil), initialKey...)
	var buf []byte
	for i, se := range entries {
		chain, buf = ChainStep(buf, chain, se.Entry)
		if hex.EncodeToString(chain[:]) != se.Chain {
			return fmt.Errorf("%w: chain mismatch at entry %d", ErrIntegrity, i)
		}
		if !hmac.Equal(SealChain(key, chain[:]), mustHex(se.Seal)) {
			return fmt.Errorf("%w: seal mismatch at entry %d", ErrIntegrity, i)
		}
		key = EvolveKey(key)
	}
	return nil
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil
	}
	return b
}
