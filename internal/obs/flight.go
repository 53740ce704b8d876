package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one pipeline event. auditd emits every event through one
// sink, which fans it out to the flight recorder and, by kind, to GET
// /v1/watch, the deviation log, the stage histograms and the trace
// ring. Seq is a recorder-global monotonic ordering (assigned by
// Record); Shard is the originating shard, or -1 for server-level
// events (WAL failure, readiness transitions).
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Shard   int       `json:"shard"`
	Kind    string    `json:"kind"`
	Case    string    `json:"case,omitempty"`
	Purpose string    `json:"purpose,omitempty"`
	Outcome string    `json:"outcome,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	N       int       `json:"n,omitempty"`
	LSN     uint64    `json:"lsn,omitempty"`
	Engine  string    `json:"engine,omitempty"`
	// Stages is a batch_fed event's timing record (nil when unsampled);
	// Span is the batch's open feed span (nil when untraced), on its
	// batch_fed and verdict events. Neither is serialized.
	Stages *StageRecord `json:"-"`
	Span   *ActiveSpan  `json:"-"`
}

// Event kinds. Kept as plain strings in the JSON dump so the format is
// greppable without this package.
const (
	FlightBatchFed  = "batch_fed"        // a batch finished replaying (N = entries, LSN = first)
	FlightVerdict   = "verdict"          // a case left compliant (LSN and Engine of the deciding entry)
	FlightHighWater = "queue_high_water" // queue occupancy reached a new high-water mark (N = entries)
	FlightPanic     = "panic"            // shard worker panicked; Case/Detail name the poisoned entry
	FlightRestart   = "restart"          // supervisor restarted the shard worker (N = restart count)
	FlightShardFail = "shard_failed"     // restart budget exhausted, shard is draining
	FlightWALError  = "wal_error"        // a durable append (WAL or ledger seal) failed
	FlightLedgerErr = "ledger_error"     // Merkle seal failed
	FlightReadiness = "readiness"        // server readiness transitioned (Detail = ready|not_ready)
)

// FlightRecorder is an always-on bounded ring of recent pipeline
// events, one ring per shard plus one for server-level events, dumped
// to a timestamped JSON file when something goes wrong (shard panic,
// degraded readiness, SIGQUIT). Recording is a mutex-protected ring
// write per *batch* — not per entry — so it stays far off the hot
// path's critical nanoseconds.
type FlightRecorder struct {
	rings []ring[Event]
	dir   string
	seq   atomic.Uint64
	dumps atomic.Int64

	mu       sync.Mutex // serializes dumps
	lastDump string
}

// DefaultFlightEvents is the per-ring event capacity auditd runs with.
const DefaultFlightEvents = 256

// NewFlightRecorder builds a recorder with one ring per shard plus a
// server ring, each holding up to perRing events. Dumps are written
// under dir (os.TempDir() when empty).
func NewFlightRecorder(shards, perRing int, dir string) *FlightRecorder {
	if dir == "" {
		dir = os.TempDir()
	}
	f := &FlightRecorder{rings: make([]ring[Event], shards+1), dir: dir}
	for i := range f.rings {
		f.rings[i].buf = make([]Event, perRing)
	}
	return f
}

// Record stores the event in the ring of ev.Shard (-1 or out of range →
// the server ring), stamping Seq and, if unset, Time. Nil-safe.
func (f *FlightRecorder) Record(ev Event) {
	if f == nil {
		return
	}
	r := &f.rings[len(f.rings)-1]
	if ev.Shard >= 0 && ev.Shard < len(f.rings)-1 {
		r = &f.rings[ev.Shard]
	}
	ev.Seq = f.seq.Add(1)
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	r.Record(ev)
}

// Snapshot merges every ring's held events, ordered by Seq (oldest
// first). Nil-safe (returns nil).
func (f *FlightRecorder) Snapshot() []Event {
	if f == nil {
		return nil
	}
	var out []Event
	for i := range f.rings {
		out = append(out, f.rings[i].Snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Stats reports events currently held across all rings, events
// recorded over the recorder's lifetime, and dumps written.
func (f *FlightRecorder) Stats() (held int, total uint64, dumps int64) {
	if f == nil {
		return 0, 0, 0
	}
	for i := range f.rings {
		n, _ := f.rings[i].Stats()
		held += n
	}
	return held, f.seq.Load(), f.dumps.Load()
}

// LastDump returns the path of the most recent dump file ("" if none).
func (f *FlightRecorder) LastDump() string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastDump
}

// FlightDump is the on-disk dump format: why it was taken, when, and
// the merged event snapshot (oldest first).
type FlightDump struct {
	Reason   string    `json:"reason"`
	DumpedAt time.Time `json:"dumped_at"`
	Events   []Event   `json:"events"`
}

// Dump writes the merged snapshot to a timestamped JSON file named
// flightrec-<reason>-<unixnano>.json under the recorder's directory
// and returns its path. Nil-safe (returns "", nil).
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d := FlightDump{Reason: reason, DumpedAt: time.Now(), Events: f.Snapshot()}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	// A dump is usually written at the worst possible moment (panic,
	// SIGQUIT); a missing -flight-dir must not lose it.
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	path := filepath.Join(f.dir, fmt.Sprintf("flightrec-%s-%d.json", reason, d.DumpedAt.UnixNano()))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	f.dumps.Add(1)
	f.lastDump = path
	return path, nil
}
