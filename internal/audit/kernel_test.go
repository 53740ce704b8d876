package audit

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// kernelLine is a wire line in AppendJSONL's shape holding the keys and
// string values that alternate in kv, in that order.
func kernelLine(kv ...string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"` + kv[i] + `":"` + kv[i+1] + `"`)
	}
	b.WriteByte('}')
	return b.String()
}

// kernelFields is a wide-audit line's fields, in wire order.
var kernelFields = []string{
	"user", "u-R0", "role", "R0", "action", "read", "object", "[P02]EPR/Clinical",
	"task", "T01", "case", "WA-1", "time", "2026-03-02T08:00:00Z", "status", "success",
}

// kernelBytes are the byte classes the string scan tells apart: the
// ones the claim rule rejects (a backslash, bytes below 0x20, bytes at
// or above 0x80) and DEL, the highest byte it accepts.
var kernelBytes = []byte{'\\', 0x00, '\t', '\n', '\r', 0x1F, 0x80, 0xC3, 0xFF, 0x7F}

// kernelCase is one line the fast parser must decode as DecodeEntryJSON
// does. claim is +1 when the parser must claim the line, -1 when it
// must not, 0 when either is allowed.
type kernelCase struct {
	name  string
	line  string
	claim int
}

// kernelCases returns the differential table: every byte class at every
// offset 0–17 of every key and value (each padded to 18 bytes with
// letters, so the byte lands at each lane of the scan's words), in wire
// order and with the field moved to the end of the line, where the
// scan's last bytes are tested one at a time; CR in and after a line;
// words that match a key in part; and the line's closing `"}` followed
// by spaces, CR or nothing.
func kernelCases() []kernelCase {
	var cases []kernelCase
	for slot := 0; slot < len(kernelFields); slot++ {
		field := kernelFields[slot&^1]
		for _, last := range []bool{false, true} {
			for off := 0; off < 18; off++ {
				for _, c := range kernelBytes {
					kv := append([]string(nil), kernelFields...)
					s := kv[slot]
					if len(s) < 18 {
						s += strings.Repeat("x", 18-len(s))
					}
					kv[slot] = s[:off] + string(c) + s[off:]
					if last {
						f := slot &^ 1
						kv = append(append(kv[:f:f], kv[f+2:]...), kv[f:f+2]...)
					}
					claim := 0
					switch {
					case c != 0x7F:
						claim = -1 // a rejected byte in a key or a value
					case slot&1 == 1 && field != "time" && field != "status":
						claim = 1 // DEL in a free-text value
					}
					cases = append(cases, kernelCase{
						name:  fmt.Sprintf("%s/%s@%d/%#x/last=%v", field, [2]string{"key", "value"}[slot&1], off, c, last),
						line:  kernelLine(kv...),
						claim: claim,
					})
				}
			}
		}
	}
	full := kernelLine(kernelFields...)
	body := full[1 : len(full)-1]
	for _, tc := range []kernelCase{
		{"clean", full, 1},
		{"CR mid-line", strings.Replace(full, `,"role"`, ",\r\"role\"", 1), -1},
		{"CR before the colon", strings.Replace(full, `"case":`, "\"case\"\r:", 1), -1},
		{"CR at the end", full + "\r", -1},
		{"closing quote then spaces", full + "   ", 1},
		{"closing quote then space and CR", full + " \r", -1},
		{"closing quote then EOF", full, 1},
		{"spaces before the closing brace", "{" + body + "  }", 1},
		{"key with a longer name", strings.Replace(full, `"action":`, `"actions":`, 1), 1},
		{"key with a shorter name", strings.Replace(full, `"action":`, `"actio":`, 1), 1},
		{"space after the colon", strings.Replace(full, `"user":"`, `"user": "`, 1), 1},
		{"space before the colon", strings.Replace(full, `"status":"`, `"status" :"`, 1), 1},
		{"task in the object slot", kernelLine(append(kernelFields[:6:6], kernelFields[8:]...)...), 1},
		{"task key in the object slot with object's value", strings.Replace(full, `"object":`, `"task":`, 1), 1},
		{"object key cut short", `{"user":"u","object"`, -1},
		{"object word without its tail", strings.Replace(full, `"object":"`, `"object"::"`, 1), -1},
		{"status as a number", strings.Replace(full, `"status":"success"`, `"status":1`, 1), -1},
		{"status cut before its tail", `{"status"`, -1},
		{"status value without a closing quote", `{"status":"success}`, -1},
		{"known key in another case", strings.Replace(full, `"task":`, `"Task":`, 1), -1},
		{"unknown key", strings.Replace(full, `"case":"WA-1",`, `"case":"WA-1","note":"x",`, 1), 1},
		{"empty braces", "{}", -1},
		{"braces with a space", "{ }", -1},
	} {
		cases = append(cases, tc)
	}
	return cases
}

// TestKernelMatchesDecodeEntryJSON checks every table line through the
// scanner's Decode (on a warm scanner) and through DecodeJSONLEntries
// against DecodeEntryJSON and the historical stream decoder: the same
// entry or the same error, and the claim the table expects.
func TestKernelMatchesDecodeEntryJSON(t *testing.T) {
	warm := []byte(kernelLine(kernelFields...))
	for _, tc := range kernelCases() {
		raw := []byte(tc.line)
		want, wantErr := DecodeEntryJSON(raw)
		sc := NewEntryScanner(nil, DecodeOptions{})
		if _, err := sc.Decode(warm); err != nil || sc.Fallbacks() != 0 {
			t.Fatalf("warm-up line: err %v, %d fallbacks", err, sc.Fallbacks())
		}
		got, gotErr := sc.Decode(raw)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %q: Decode error %v, DecodeEntryJSON error %v", tc.name, raw, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %q: Decode = %+v, DecodeEntryJSON = %+v", tc.name, raw, got, want)
		}
		if claimed := sc.Fallbacks() == 0; tc.claim == 1 && !claimed || tc.claim == -1 && claimed {
			t.Fatalf("%s %q: claimed = %v, want %v", tc.name, raw, claimed, tc.claim == 1)
		}
		for _, opts := range []DecodeOptions{{}, {Lenient: true}} {
			wantS, wantQ, wantSErr := referenceDecode(bytes.NewReader(raw), opts)
			gotS, gotQ, gotSErr := DecodeJSONLEntries(bytes.NewReader(raw), opts)
			if fmt.Sprint(gotSErr) != fmt.Sprint(wantSErr) || !reflect.DeepEqual(gotS, wantS) ||
				fmt.Sprint(gotQ.Records) != fmt.Sprint(wantQ.Records) {
				t.Fatalf("%s %q lenient=%v: stream decode (%v, %v, %v), reference (%v, %v, %v)",
					tc.name, raw, opts.Lenient, gotS, gotQ.Records, gotSErr, wantS, wantQ.Records, wantSErr)
			}
		}
	}
}

// TestBodyScanEveryByte checks the string scan against its byte rule on
// every byte value at every offset 0–17, and on every pair of byte
// values in adjacent lanes of a word, where a borrow could carry from
// one lane into the next: the scan stops at the first quote, backslash,
// byte below 0x20 or byte at or above 0x80, and claims the body only if
// that byte is a quote.
func TestBodyScanEveryByte(t *testing.T) {
	stop := func(c byte) bool { return c == '"' || c == '\\' || c < 0x20 || c >= 0x80 }
	check := func(s []byte) {
		t.Helper()
		want := len(s)
		for i, c := range s {
			if stop(c) {
				want = i
				break
			}
		}
		p := lineParser{b: s}
		got, ok := p.body()
		if wantOK := want < len(s) && s[want] == '"'; ok != wantOK || ok && (len(got) != want || p.i != want+1) {
			t.Fatalf("body(%q) = %q, %v (cursor %d); want %d bytes, %v", s, got, ok, p.i, want, wantOK)
		}
	}
	for c := 0; c < 256; c++ {
		for off := 0; off < 18; off++ {
			s := []byte(strings.Repeat("a", off) + string([]byte{byte(c)}) + strings.Repeat("b", 17-off) + `"`)
			check(s)
		}
	}
	s := []byte(`aaaaaaaaaaaaaaaa"`)
	for lane := 0; lane < 7; lane++ {
		for a := 0; a < 256; a++ {
			for b := 0; b < 256; b++ {
				s[lane], s[lane+1] = byte(a), byte(b)
				check(s)
			}
			s[lane], s[lane+1] = 'a', 'a'
		}
	}
}
