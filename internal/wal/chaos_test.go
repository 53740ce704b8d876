package wal

import (
	"errors"
	"os"
	"testing"

	"repro/internal/audit"
	"repro/internal/faultinject"
)

// TestChaosCorruptTails drives seeded bit rot into WAL segment tails
// and asserts the invariant the durability model stands on: damage is
// either (a) repaired as a torn tail — in which case every surviving
// record is bit-exact and the log stays appendable — or (b) reported
// loudly as ErrCorrupt. Silent loss or silently
// altered records are never acceptable outcomes.
func TestChaosCorruptTails(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Fsync: FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			const n = 40
			want := make([]audit.Entry, 0, n)
			for i := 0; i < n; i++ {
				want = append(want, mkEntry(i))
			}
			if _, _, err := l.Append(want); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Corrupt 1-3 bytes in the tail half of the segment,
			// sparing the header (header damage is a separate, always-
			// fatal case).
			path := lastSegment(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mut := faultinject.New(seed)
			offsets := mut.CorruptBytes(data, len(data)/2, 1+int(seed)%3)
			if len(offsets) == 0 {
				t.Fatal("no bytes corrupted")
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				// Outcome (b): loud failure, properly classified.
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("corruption at %v surfaced as unclassified error: %v", offsets, err)
				}
				return
			}
			defer l2.Close()
			// Outcome (a): Open interpreted the damage as a torn tail
			// (e.g. a length field now points past EOF). Every record
			// it kept must be bit-exact against the original.
			kept := 0
			err = l2.Replay(1, func(lsn uint64, e audit.Entry) error {
				i := int(lsn - 1)
				if i >= len(want) {
					return errors.New("replay produced a record that was never appended")
				}
				if !entriesEqual(e, want[i]) {
					t.Fatalf("seed %d: surviving record LSN %d altered: got %+v want %+v", seed, lsn, e, want[i])
				}
				kept++
				return nil
			})
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("replay after corruption surfaced as unclassified error: %v", err)
				}
				return
			}
			if kept > n {
				t.Fatalf("replay produced %d records from %d appended", kept, n)
			}
		})
	}
}

func entriesEqual(a, b audit.Entry) bool {
	if a.User != b.User || a.Role != b.Role || a.Action != b.Action ||
		a.Task != b.Task || a.Case != b.Case || a.Status != b.Status ||
		!a.Time.Equal(b.Time) || a.Object.Subject != b.Object.Subject ||
		len(a.Object.Path) != len(b.Object.Path) {
		return false
	}
	for i := range a.Object.Path {
		if a.Object.Path[i] != b.Object.Path[i] {
			return false
		}
	}
	return true
}
