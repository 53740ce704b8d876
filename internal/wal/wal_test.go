package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/encode"
	"repro/internal/policy"
)

var testBase = time.Date(2010, 3, 1, 9, 0, 0, 0, time.UTC)

// mkEntry builds a deterministic entry; i makes it unique.
func mkEntry(i int) audit.Entry {
	return audit.Entry{
		User:   fmt.Sprintf("user-%d", i%7),
		Role:   "Clerk",
		Action: "read",
		Object: policy.Object{Subject: "Alice", Path: []string{"EPR", "Clinical"}},
		Task:   fmt.Sprintf("T%d", i%5),
		Case:   fmt.Sprintf("case-%d", i%3),
		Time:   testBase.Add(time.Duration(i) * time.Minute),
		Status: audit.Status(i % 2),
	}
}

// collect replays the log from LSN from into a slice.
func collect(t *testing.T, l *Log, from uint64) ([]uint64, []audit.Entry) {
	t.Helper()
	var lsns []uint64
	var entries []audit.Entry
	if err := l.Replay(from, func(lsn uint64, e audit.Entry) error {
		lsns = append(lsns, lsn)
		entries = append(entries, e)
		return nil
	}); err != nil {
		t.Fatalf("Replay(%d): %v", from, err)
	}
	return lsns, entries
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var want []audit.Entry
	for b := 0; b < 5; b++ {
		batch := make([]audit.Entry, 0, 8)
		for i := 0; i < 8; i++ {
			batch = append(batch, mkEntry(b*8+i))
		}
		first, last, err := l.Append(batch)
		if err != nil {
			t.Fatalf("Append batch %d: %v", b, err)
		}
		if wantFirst := uint64(b*8 + 1); first != wantFirst || last != wantFirst+7 {
			t.Fatalf("batch %d: LSN range [%d,%d], want [%d,%d]", b, first, last, wantFirst, wantFirst+7)
		}
		want = append(want, batch...)
	}
	if got := l.LastLSN(); got != 40 {
		t.Fatalf("LastLSN = %d, want 40", got)
	}
	lsns, got := collect(t, l, 1)
	if len(lsns) != 40 || lsns[0] != 1 || lsns[39] != 40 {
		t.Fatalf("replayed %d records, LSNs %v", len(lsns), lsns)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replayed entries differ from appended entries")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: state and contents survive.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != 40 {
		t.Fatalf("LastLSN after reopen = %d, want 40", got)
	}
	// Replay from the middle skips but still verifies the prefix.
	lsns, got = collect(t, l2, 30)
	if len(lsns) != 11 || lsns[0] != 30 {
		t.Fatalf("Replay(30) gave %d records starting at %v", len(lsns), lsns[:1])
	}
	if !reflect.DeepEqual(got, want[29:]) {
		t.Fatal("Replay(30) entries differ")
	}
	// Appends continue in the same active segment with the next LSN.
	first, _, err := l2.Append([]audit.Entry{mkEntry(40)})
	if err != nil {
		t.Fatal(err)
	}
	if first != 41 {
		t.Fatalf("append after reopen got LSN %d, want 41", first)
	}
	if names, _ := listSegments(dir); len(names) != 1 {
		t.Fatalf("expected 1 segment, found %v", names)
	}
}

func TestCodecEdgeCases(t *testing.T) {
	entries := []audit.Entry{
		{}, // all zero values
		{User: "u", Object: policy.Object{Subject: "", Path: []string{"Order"}}, Time: testBase},
		{User: "ûser", Role: "rôle", Action: "wr\nite", Case: "c,1", Time: testBase.Add(time.Nanosecond), Status: audit.Failure},
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, err := l.Append(entries); err != nil {
		t.Fatal(err)
	}
	_, got := collect(t, l, 1)
	for i := range entries {
		want := entries[i]
		want.Time = want.Time.UTC() // codec canonicalizes to UTC
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("entry %d: got %+v, want %+v", i, got[i], want)
		}
	}

	// An entry the codec cannot represent is rejected atomically.
	big := audit.Entry{Object: policy.Object{Path: make([]string, objectPathLimit+1)}}
	before := l.LastLSN()
	if _, _, err := l.Append([]audit.Entry{mkEntry(0), big}); err == nil {
		t.Fatal("oversized object path accepted")
	}
	if l.LastLSN() != before {
		t.Fatal("rejected batch advanced the LSN")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if _, _, err := l.Append([]audit.Entry{mkEntry(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, syncs, segments, _ := l.Stats()
	if segments < 4 {
		t.Fatalf("expected several segments at 512-byte rotation, got %d", segments)
	}
	if syncs < n {
		t.Fatalf("always policy issued %d fsyncs for %d appends", syncs, n)
	}
	lsns, _ := collect(t, l, 1)
	if len(lsns) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(lsns), n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen across many segments: the chain must validate and continue.
	l2, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != n {
		t.Fatalf("LastLSN after rotation reopen = %d, want %d", got, n)
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 100; i++ {
		if _, _, err := l.Append([]audit.Entry{mkEntry(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, before, _ := l.Stats()

	// Truncating at LSN 0 removes nothing.
	if n, err := l.TruncateBefore(0); err != nil || n != 0 {
		t.Fatalf("TruncateBefore(0) = %d, %v", n, err)
	}
	// Truncating at the checkpoint high-water mark drops only segments
	// entirely at or below it.
	removed, err := l.TruncateBefore(50)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("TruncateBefore(50) removed no segments")
	}
	_, _, after, _ := l.Stats()
	if after != before-removed {
		t.Fatalf("segments %d -> %d after removing %d", before, after, removed)
	}
	// Everything past the mark must still replay; the first surviving
	// record must be <= 51 (nothing above the mark may be lost).
	lsns, _ := collect(t, l, 51)
	if len(lsns) != 50 || lsns[0] != 51 || lsns[len(lsns)-1] != 100 {
		t.Fatalf("post-truncation replay lost records: %d records, range [%d,%d]",
			len(lsns), lsns[0], lsns[len(lsns)-1])
	}
	// The active segment survives even a mark past the end.
	if _, err := l.TruncateBefore(1 << 60); err != nil {
		t.Fatal(err)
	}
	if _, _, segs, _ := l.Stats(); segs == 0 {
		t.Fatal("TruncateBefore removed the active segment")
	}
}

// TestStatsBytesTracked pins Stats' byte total — maintained
// incrementally at seal/truncate/open time so a metrics scrape never
// stats files under the log mutex — to the real on-disk sizes across
// rotation, truncation and reopen.
func TestStatsBytesTracked(t *testing.T) {
	dir := t.TempDir()
	check := func(l *Log, when string) {
		t.Helper()
		names, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		var disk int64
		for _, name := range names {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			disk += fi.Size()
		}
		_, _, segs, bytes := l.Stats()
		if bytes != disk {
			t.Errorf("%s: Stats bytes = %d, on disk %d", when, bytes, disk)
		}
		if segs != len(names) {
			t.Errorf("%s: Stats segments = %d, on disk %d", when, segs, len(names))
		}
	}

	l, err := Open(dir, Options{SegmentBytes: 512, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, _, err := l.Append([]audit.Entry{mkEntry(i)}); err != nil {
			t.Fatal(err)
		}
	}
	check(l, "after rotation")
	if n, err := l.TruncateBefore(30); err != nil || n == 0 {
		t.Fatalf("TruncateBefore(30) = %d, %v", n, err)
	}
	check(l, "after truncation")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 512, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2, "after reopen")
	for i := 60; i < 90; i++ {
		if _, _, err := l2.Append([]audit.Entry{mkEntry(i)}); err != nil {
			t.Fatal(err)
		}
	}
	check(l2, "after reopen appends")
}

// lastSegment returns the path of the highest-LSN segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := listSegments(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, names[len(names)-1])
}

func TestCrashMidBatchTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var batch []audit.Entry
	for i := 0; i < 10; i++ {
		batch = append(batch, mkEntry(i))
	}
	if _, _, err := l.Append(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: the last record is half-written.
	path := lastSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	if got := l2.LastLSN(); got != 9 {
		t.Fatalf("LastLSN after repair = %d, want 9 (torn record dropped)", got)
	}
	lsns, entries := collect(t, l2, 1)
	if len(lsns) != 9 {
		t.Fatalf("replayed %d records after repair, want 9", len(lsns))
	}
	if !reflect.DeepEqual(entries, batch[:9]) {
		t.Fatal("acknowledged prefix not fully recovered after torn-tail repair")
	}
	// The repaired log must accept appends at the repaired LSN.
	first, _, err := l2.Append([]audit.Entry{mkEntry(100)})
	if err != nil {
		t.Fatal(err)
	}
	if first != 10 {
		t.Fatalf("append after repair got LSN %d, want 10", first)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroFilledTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]audit.Entry{mkEntry(0), mkEntry(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Some filesystems recover a crash as a zero-filled extent: record
	// bytes never made it, but the size did.
	path := lastSegment(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after zero-filled tail: %v", err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != 2 {
		t.Fatalf("LastLSN = %d, want 2", got)
	}
}

func TestTornHeaderSegmentDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]audit.Entry{mkEntry(0)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash between sealing and header write leaves a runt file.
	runt := filepath.Join(dir, segName(2))
	if err := os.WriteFile(runt, segMagic[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with runt segment: %v", err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != 1 {
		t.Fatalf("LastLSN = %d, want 1", got)
	}
	if _, err := os.Stat(runt); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("runt segment not removed")
	}
}

func TestCorruptRecordFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := l.Append([]audit.Entry{mkEntry(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside a complete interior record: this is
	// corruption of acknowledged data, not a torn tail, and must never
	// be silently repaired.
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+encode.FrameOverhead+3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt record")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption error %v does not match ErrCorrupt", err)
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{Fsync: "sometimes"}); err == nil {
		t.Fatal("unknown fsync policy accepted")
	}
	if _, err := Open(t.TempDir(), Options{SegmentBytes: 8}); err == nil {
		t.Fatal("segment size smaller than a record accepted")
	}
}

func TestIntervalFsyncDurableAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncInterval, FsyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]audit.Entry{mkEntry(0), mkEntry(1), mkEntry(2)}); err != nil {
		t.Fatal(err)
	}
	// Records may still be buffered; Replay must see them anyway.
	lsns, _ := collect(t, l, 1)
	if len(lsns) != 3 {
		t.Fatalf("Replay before flush saw %d records, want 3", len(lsns))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != 3 {
		t.Fatalf("LastLSN after interval-policy close = %d, want 3", got)
	}
}

func TestStickyWriteFailure(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]audit.Entry{mkEntry(0)}); err != nil {
		t.Fatal(err)
	}
	// Sabotage the active segment's descriptor: the next synced append
	// must fail, and the failure must stick.
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
	if _, _, err := l.Append([]audit.Entry{mkEntry(1)}); err == nil {
		t.Fatal("append to closed file succeeded")
	}
	if l.Err() == nil {
		t.Fatal("write failure not sticky")
	}
	if _, _, err := l.Append([]audit.Entry{mkEntry(2)}); err == nil {
		t.Fatal("append after sticky failure succeeded")
	}
}
