package server

import (
	"sync"
	"time"
)

// QuarantineRecord is one malformed input line the server set aside,
// queryable at GET /v1/quarantine. It is the server-held counterpart of
// audit.QuarantinedRecord, extended with where and when the line
// arrived so an operator can trace it back to the producer.
type QuarantineRecord struct {
	// Seq is the global 1-based quarantine sequence number; it keeps
	// counting even after old records are evicted from the bounded
	// buffer.
	Seq int64 `json:"seq"`
	// Source identifies the producer (remote address of the POST).
	Source string `json:"source"`
	// Line is the 1-based line within that request body.
	Line int `json:"line"`
	// Raw is the offending line as far as it could be read.
	Raw string `json:"raw"`
	// Err is the decode error.
	Err string `json:"error"`
	// Time is the server receive time.
	Time time.Time `json:"time"`
}

// quarantineKeep bounds the held quarantine records.
const quarantineKeep = 1024

// quarantine holds the most recent quarantineKeep records plus an
// all-time total. Bounding the buffer keeps a hostile or broken
// producer from growing server memory without limit; the total (and
// the auditd_events_quarantined_total counter) still account every
// line. The zero value is empty.
type quarantine struct {
	mu    sync.Mutex
	total int64
	recs  []QuarantineRecord
}

func (q *quarantine) add(source string, line int, raw string, err error, now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.total++
	q.recs = append(q.recs, QuarantineRecord{
		Seq: q.total, Source: source, Line: line, Raw: raw, Err: err.Error(), Time: now,
	})
	if len(q.recs) > quarantineKeep {
		q.recs = append(q.recs[:0:0], q.recs[len(q.recs)-quarantineKeep:]...)
	}
}

// stats returns the held record count and the all-time total.
func (q *quarantine) stats() (held int, total int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.recs), q.total
}

// snapshot copies the held records, newest last.
func (q *quarantine) snapshot() []QuarantineRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]QuarantineRecord(nil), q.recs...)
}

// load replaces the quarantine contents from a checkpoint.
func (q *quarantine) load(total int64, recs []QuarantineRecord) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.total = total
	q.recs = append([]QuarantineRecord(nil), recs...)
	if len(q.recs) > quarantineKeep {
		q.recs = q.recs[len(q.recs)-quarantineKeep:]
	}
}
