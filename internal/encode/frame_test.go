package encode_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/encode"
)

// TestRecordFrameRoundTrip covers the framing shared with the WAL:
// appended frames read back exactly, a short buffer is truncation (the
// torn-tail signal), and a flipped bit in a complete frame is
// corruption, never silently accepted.
func TestRecordFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("x"),
		[]byte("hello record frame"),
		bytes.Repeat([]byte{0xab}, 4096),
	}
	var buf []byte
	for _, p := range payloads {
		buf = encode.AppendRecordFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		got, n, err := encode.ReadRecordFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload differs", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the last frame", len(rest))
	}

	// Every strict prefix of a frame is truncation, not corruption.
	one := encode.AppendRecordFrame(nil, []byte("acknowledged"))
	for cut := 0; cut < len(one); cut++ {
		_, _, err := encode.ReadRecordFrame(one[:cut])
		if !errors.Is(err, encode.ErrFrameTruncated) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrFrameTruncated", cut, err)
		}
	}
	// A zero length (zero-filled torn tail) is truncation too.
	if _, _, err := encode.ReadRecordFrame(make([]byte, 64)); !errors.Is(err, encode.ErrFrameTruncated) {
		t.Fatalf("zeroed tail: err = %v, want ErrFrameTruncated", err)
	}
	// A complete frame with any byte flipped is loud corruption.
	for _, bit := range []int{0, 5, len(one) - 1} {
		bad := append([]byte(nil), one...)
		bad[bit] ^= 0x40
		_, _, err := encode.ReadRecordFrame(bad)
		if err == nil && bit != 0 {
			t.Fatalf("flipped byte %d accepted", bit)
		}
	}
}
