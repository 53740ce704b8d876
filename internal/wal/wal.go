// Package wal implements auditd's write-ahead ingest log: the
// durability layer under the streaming server (DESIGN.md §14). Every
// acknowledged entry is appended here *before* it is dispatched to a
// shard, so the set of entries the server has 202'd is exactly the set
// a restart can reconstruct: boot restores the last checkpoint and
// replays the WAL tail through the monitors. The paper's verdicts are
// only as trustworthy as the trail's completeness (§3.4); without this
// layer, every entry accepted between periodic checkpoints lived only
// in shard memory and a crash silently un-processed it.
//
// Layout. The log is a directory of segment files named by the LSN of
// their first record (%016x.wal). Each segment opens with a fixed
// header (magic, version, base LSN — the internal/encode container
// idiom) and then holds CRC-32C-framed records (encode.AppendRecordFrame),
// one per entry, LSNs implicit and sequential from the base. Rotation
// seals the active segment (flush + fsync) before the next one is
// created, so only the last segment can ever have a torn tail.
//
// Recovery semantics. Open scans the last segment: a record that runs
// past EOF (or a zero-filled tail) is the expected shape of a crash
// mid-append — it was never acknowledged — and is truncated away. A
// complete record whose CRC does not match is a different animal:
// corruption of acknowledged data. That fails loudly as ErrCorrupt,
// never a silent loss.
//
// Fsync policy trades durability for ingest latency:
//
//	always    fsync once per appended batch — a kill -9 loses nothing
//	          acknowledged
//	interval  background flush+fsync every FsyncInterval — bounded loss
//	          window (the default)
//	off       no explicit fsync; the OS decides — benchmarking and
//	          don't-care workloads
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/encode"
)

// ErrCorrupt reports acknowledged WAL data that fails its integrity
// check.
var ErrCorrupt = errors.New("wal: corrupt segment")

// Fsync policies.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncOff      = "off"
)

// Options tunes a log; zero values take the documented defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 64 MiB).
	SegmentBytes int64
	// Fsync is the durability policy: FsyncAlways, FsyncInterval
	// (default) or FsyncOff.
	Fsync string
	// FsyncInterval is the background flush+fsync period under the
	// interval policy (default 100ms). The off policy flushes (without
	// syncing) on the same cadence so records reach the OS promptly.
	FsyncInterval time.Duration
}

func (o Options) withDefaults() (Options, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SegmentBytes < segHeaderSize+encode.FrameOverhead {
		return o, fmt.Errorf("wal: segment size %d cannot hold one record", o.SegmentBytes)
	}
	switch o.Fsync {
	case "":
		o.Fsync = FsyncInterval
	case FsyncAlways, FsyncInterval, FsyncOff:
	default:
		return o, fmt.Errorf("wal: unknown fsync policy %q (want %s|%s|%s)", o.Fsync, FsyncAlways, FsyncInterval, FsyncOff)
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	return o, nil
}

// Segment header: the encode binary-container idiom shrunk to an
// append-only file — magic that detects text-mode mangling, a version,
// and the base LSN records count up from.
//
//	[0:8)   magic 0x89 "PCW" \r \n 0x1a \n
//	[8:12)  uint32 segment format version
//	[12:16) uint32 reserved (zero)
//	[16:24) uint64 base LSN (LSN of the first record in this file)
const (
	segHeaderSize = 24
	segVersion    = 1
)

var segMagic = [8]byte{0x89, 'P', 'C', 'W', '\r', '\n', 0x1a, '\n'}

func segName(base uint64) string { return fmt.Sprintf("%016x.wal", base) }

// segment is one sealed (or active) file of the log.
type segment struct {
	base  uint64 // LSN of the first record
	count uint64 // records in the file (live for the active segment)
	size  int64  // on-disk bytes once sealed (stale for the active segment)
	path  string
}

func (s segment) last() uint64 { return s.base + s.count - 1 } // only valid when count > 0

// Log is a segmented write-ahead log of audit entries. All methods are
// safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	sealed  []segment // read-only files, ascending base LSN
	active  segment
	f       *os.File
	buf     []byte // pending bytes not yet written to f (our own buffer: one write syscall per flush)
	written int64  // bytes in f (excluding buf)
	// sealedBytes is the on-disk total of the sealed segments,
	// maintained at seal/truncate time so Stats never stats files under
	// l.mu (a metrics scrape must not stall the append hot path).
	sealedBytes int64
	nextLSN     uint64 // LSN the next appended record receives
	scratch     []byte // payload encoding scratch, reused across appends
	err         error  // sticky write failure; every later Append returns it

	stopFlush chan struct{}
	flushDone chan struct{}

	appended uint64 // records appended since Open (stats)
	synced   uint64 // explicit fsyncs issued (stats)

	// syncWait is the wall-clock time the most recent Append spent in
	// its inline fsync (zero unless the policy is always). The server
	// reads it right after Append — appends there are globally
	// serialized — to split the fsync wait out of the stage timing.
	syncWait time.Duration
}

// Open opens (or creates) the log in dir, repairing a torn tail: the
// last segment is scanned record by record, and an incomplete final
// record — the footprint of a crash mid-append — is truncated away. A
// complete record failing its CRC, a bad header, or segment files
// whose LSN ranges do not chain are ErrCorrupt.
func Open(dir string, opts Options) (*Log, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, nextLSN: 1}

	// A crash between sealing segment N and writing segment N+1's
	// header can leave a final file too short to even hold the header;
	// nothing acknowledged lives in it (records are acknowledged only
	// after the header is down), so it is discarded, not an error.
	if n := len(names); n > 0 {
		last := filepath.Join(dir, names[n-1])
		if fi, err := os.Stat(last); err != nil {
			return nil, fmt.Errorf("wal: %s: %w", last, err)
		} else if fi.Size() < segHeaderSize {
			if err := os.Remove(last); err != nil {
				return nil, fmt.Errorf("wal: removing torn segment %s: %w", last, err)
			}
			names = names[:n-1]
		}
	}

	for i, name := range names {
		path := filepath.Join(dir, name)
		isLast := i == len(names)-1
		seg, err := scanSegment(path, isLast)
		if err != nil {
			return nil, err
		}
		if seg.base != l.nextLSN && !(i == 0) {
			return nil, fmt.Errorf("%w: segment %s starts at LSN %d, want %d", ErrCorrupt, name, seg.base, l.nextLSN)
		}
		if i == 0 {
			l.nextLSN = seg.base
		}
		l.nextLSN = seg.base + seg.count
		l.sealed = append(l.sealed, seg)
	}

	// The most recent segment stays active if it has room; otherwise
	// (or when the log is empty) a fresh one is started lazily on the
	// first append.
	if n := len(l.sealed); n > 0 {
		seg := l.sealed[n-1]
		fi, err := os.Stat(seg.path)
		if err != nil {
			return nil, fmt.Errorf("wal: %s: %w", seg.path, err)
		}
		if fi.Size() < opts.SegmentBytes {
			f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: reopening active segment: %w", err)
			}
			l.sealed = l.sealed[:n-1]
			l.active = seg
			l.f = f
			l.written = fi.Size()
		}
	}
	for _, seg := range l.sealed {
		l.sealedBytes += seg.size
	}

	if opts.Fsync != FsyncAlways {
		l.stopFlush = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// listSegments returns the segment file names in dir, ascending.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".wal" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// scanSegment validates one segment file. Sealed segments (repair
// false) must parse end to end. For the last segment (repair true) a
// truncated final record is repaired by truncating the file at the
// last complete record; corruption is still fatal.
func scanSegment(path string, repair bool) (segment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segment{}, fmt.Errorf("wal: %s: %w", path, err)
	}
	if len(data) < segHeaderSize || [8]byte(data[:8]) != segMagic {
		return segment{}, fmt.Errorf("%w: %s has no segment header", ErrCorrupt, filepath.Base(path))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != segVersion {
		return segment{}, fmt.Errorf("%w: %s is format version %d, want %d", ErrCorrupt, filepath.Base(path), v, segVersion)
	}
	seg := segment{base: binary.LittleEndian.Uint64(data[16:]), path: path}
	off := segHeaderSize
	for off < len(data) {
		_, n, err := encode.ReadRecordFrame(data[off:])
		if errors.Is(err, encode.ErrFrameTruncated) {
			if !repair {
				return segment{}, fmt.Errorf("%w: sealed segment %s ends mid-record at byte %d", ErrCorrupt, filepath.Base(path), off)
			}
			if err := os.Truncate(path, int64(off)); err != nil {
				return segment{}, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
			seg.size = int64(off)
			return seg, nil
		}
		if err != nil {
			return segment{}, fmt.Errorf("%w: %s record %d (LSN %d): %v", ErrCorrupt, filepath.Base(path), seg.count, seg.base+seg.count, err)
		}
		off += n
		seg.count++
	}
	seg.size = int64(len(data))
	return seg, nil
}

// Append encodes, frames and buffers the entries as consecutive
// records and returns their LSN range [first, last]. Under the always
// policy the batch is flushed and fsynced before Append returns —
// acknowledged means durable. A write failure is sticky: the append
// that hit it and every one after fail, so the server can degrade
// loudly instead of acknowledging into a black hole.
func (l *Log) Append(entries []audit.Entry) (first, last uint64, err error) {
	if len(entries) == 0 {
		return 0, 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, 0, l.err
	}
	first = l.nextLSN
	// Validate the whole batch before buffering any of it, so a
	// rejected batch leaves no partial records behind.
	for i := range entries {
		if err := checkEncodable(&entries[i]); err != nil {
			return 0, 0, err
		}
	}
	for i := range entries {
		if l.f == nil {
			if err := l.openSegmentLocked(); err != nil {
				return 0, 0, l.fail(err)
			}
		}
		l.scratch = appendEntry(l.scratch[:0], &entries[i])
		l.buf = encode.AppendRecordFrame(l.buf, l.scratch)
		l.nextLSN++
		l.appended++
		if l.written+int64(len(l.buf)) >= l.opts.SegmentBytes {
			if err := l.sealLocked(); err != nil {
				return 0, 0, l.fail(err)
			}
		} else if len(l.buf) >= flushChunk {
			// Push full chunks into the page cache as we go: without
			// this the buffer balloons toward a whole segment between
			// interval flushes and append-growth memmove dominates the
			// producer (fsync policy is untouched — a write is not a
			// sync, and flushChunk capacity is reused forever after).
			if err := l.flushLocked(); err != nil {
				return 0, 0, l.fail(err)
			}
		}
	}
	l.syncWait = 0
	if l.opts.Fsync == FsyncAlways {
		t0 := time.Now()
		if err := l.syncLocked(); err != nil {
			return 0, 0, l.fail(err)
		}
		l.syncWait = time.Since(t0)
	}
	return first, l.nextLSN - 1, nil
}

// AppendSyncWait reports the wall-clock time the most recent Append
// spent in its inline fsync — zero under the interval and off
// policies, where durability is deferred and Append never waits.
func (l *Log) AppendSyncWait() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncWait
}

// flushChunk bounds the in-memory append buffer: once this many bytes
// are pending they are written (not synced) to the active segment, so
// the buffer's capacity is reused instead of regrowing toward a whole
// segment.
const flushChunk = 256 << 10

// fail records a sticky failure and returns it.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return err
}

// openSegmentLocked starts a fresh active segment at nextLSN.
func (l *Log) openSegmentLocked() error {
	path := filepath.Join(l.dir, segName(l.nextLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], segVersion)
	binary.LittleEndian.PutUint64(hdr[16:], l.nextLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	l.f = f
	l.active = segment{base: l.nextLSN, path: path}
	l.written = segHeaderSize
	return nil
}

// flushLocked pushes the pending buffer into the file with one write.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 || l.f == nil {
		return nil
	}
	n, err := l.f.Write(l.buf)
	l.written += int64(n)
	if err != nil {
		return fmt.Errorf("wal: writing segment: %w", err)
	}
	l.buf = l.buf[:0]
	return nil
}

// syncLocked flushes and fsyncs the active segment.
func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.synced++
	return nil
}

// sealLocked durably closes the active segment. Rotation always syncs
// — whatever the policy — so a segment's existence implies its
// predecessor is complete on disk, which is what lets Open repair only
// the last one.
func (l *Log) sealLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	l.active.count = l.nextLSN - l.active.base
	l.active.size = l.written // buf is empty after syncLocked
	l.sealed = append(l.sealed, l.active)
	l.sealedBytes += l.written
	l.f = nil
	l.written = 0
	return nil
}

// flushLoop services the interval and off policies in the background.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopFlush:
			return
		case <-t.C:
			l.mu.Lock()
			if l.err == nil {
				var err error
				if l.opts.Fsync == FsyncInterval {
					err = l.syncLocked()
				} else {
					err = l.flushLocked()
				}
				if err != nil {
					l.fail(err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// Sync flushes buffered records and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := l.syncLocked(); err != nil {
		return l.fail(err)
	}
	return nil
}

// Close flushes, fsyncs and closes the log. The log is unusable
// afterwards.
func (l *Log) Close() error {
	if l.stopFlush != nil {
		close(l.stopFlush)
		<-l.flushDone
		l.stopFlush = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	if l.err == nil {
		l.err = errClosed
	}
	return err
}

var errClosed = errors.New("wal: log closed")

// LastLSN returns the LSN of the most recently appended record (0 when
// the log is empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Err returns the sticky write failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if errors.Is(l.err, errClosed) {
		return nil
	}
	return l.err
}

// Stats reports log totals: records appended since Open, explicit
// fsyncs, sealed segment count and total bytes (including records
// still in the append buffer). Sealed sizes are tracked incrementally
// at seal/truncate time, so no filesystem call happens under the lock
// — a metrics scrape never stalls the append hot path.
func (l *Log) Stats() (appended, syncs uint64, segments int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segments = len(l.sealed)
	bytes = l.sealedBytes
	if l.f != nil {
		segments++
		bytes += l.written + int64(len(l.buf))
	}
	return l.appended, l.synced, segments, bytes
}

// TruncateBefore removes sealed segments every record of which has
// LSN <= lsn — the checkpoint high-water mark. The active segment is
// never removed. Returns how many segments were deleted.
func (l *Log) TruncateBefore(lsn uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.sealed) > 0 {
		seg := l.sealed[0]
		if seg.count == 0 || seg.last() > lsn {
			break
		}
		if err := os.Remove(seg.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return removed, fmt.Errorf("wal: removing sealed segment: %w", err)
		}
		l.sealed = l.sealed[1:]
		l.sealedBytes -= seg.size
		removed++
	}
	return removed, nil
}

// Replay streams every record still in the log, in LSN order, into fn.
// Records with LSN < from are skipped (but still integrity-checked).
// The log must be quiescent — Replay reads the files directly and
// flushes pending buffers first. Any integrity failure is ErrCorrupt:
// Open already repaired the only legitimately torn region.
func (l *Log) Replay(from uint64, fn func(lsn uint64, e audit.Entry) error) error {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return l.fail(err)
	}
	segs := append([]segment(nil), l.sealed...)
	if l.f != nil {
		active := l.active
		active.count = l.nextLSN - active.base
		segs = append(segs, active)
	}
	l.mu.Unlock()

	for _, seg := range segs {
		if seg.count > 0 && seg.last() < from {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("wal: replaying %s: %w", seg.path, err)
		}
		if len(data) < segHeaderSize {
			return fmt.Errorf("%w: segment %s lost its header", ErrCorrupt, filepath.Base(seg.path))
		}
		off := segHeaderSize
		lsn := seg.base
		for off < len(data) {
			payload, n, err := encode.ReadRecordFrame(data[off:])
			if err != nil {
				return fmt.Errorf("%w: %s LSN %d: %v", ErrCorrupt, filepath.Base(seg.path), lsn, err)
			}
			if lsn >= from {
				e, err := decodeEntry(payload)
				if err != nil {
					return fmt.Errorf("%w: %s LSN %d: %v", ErrCorrupt, filepath.Base(seg.path), lsn, err)
				}
				if err := fn(lsn, e); err != nil {
					return err
				}
			}
			off += n
			lsn++
		}
	}
	return nil
}
