package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/audit"
	"repro/internal/encode"
)

// FuzzWALSegment feeds arbitrary bytes to the log as its last segment,
// or as a sealed segment followed by a valid one. Open either accepts
// them, repairing a torn tail, or refuses with ErrCorrupt; replay from
// any LSN never panics, fails only with ErrCorrupt or the version 1
// refusal, and every record it yields re-renders to exactly its stored
// payload.
func FuzzWALSegment(f *testing.F) {
	seedDir := f.TempDir()
	l, err := Open(seedDir, Options{Fsync: FsyncAlways})
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := l.Append([]audit.Entry{mkEntry(0), mkEntry(1), {}}); err != nil {
		f.Fatal(err)
	}
	l.Close()
	valid, err := os.ReadFile(filepath.Join(seedDir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, false, uint16(1))
	f.Add(valid, true, uint16(2))
	f.Add(valid[:len(valid)-5], false, uint16(1))
	f.Add(v1Segment(1, 2), false, uint16(3))
	f.Add(v1Segment(1, 2), true, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, sealed bool, from uint16) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if sealed {
			// A valid segment whose base continues data's frames, so
			// data is checked as a sealed segment and not as a gap.
			base := uint64(1)
			if len(data) >= segHeaderSize {
				base = binary.LittleEndian.Uint64(data[16:])
				for off := segHeaderSize; off < len(data); base++ {
					_, n, err := encode.ReadRecordFrame(data[off:])
					if err != nil {
						break
					}
					off += n
				}
			}
			next := segmentBytes(segVersion, base, audit.CanonicalEntry(mkEntry(2)))
			if err := os.WriteFile(filepath.Join(dir, segName(1<<62)), next, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(dir, Options{Fsync: FsyncAlways})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open refused with an unclassified error: %v", err)
			}
			return
		}
		defer l.Close()
		err = l.ReplayCanonical(uint64(from), func(lsn uint64, e audit.Entry, rec *audit.CanonicalBatch) error {
			canon, _ := rec.At(0)
			if got := audit.CanonicalEntry(e); !bytes.Equal(got, canon) {
				t.Fatalf("LSN %d: record %q re-renders as %q", lsn, canon, got)
			}
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) && !bytes.Contains([]byte(err.Error()), []byte("retired format version 1")) {
			t.Fatalf("replay failed with an unclassified error: %v", err)
		}
	})
}
