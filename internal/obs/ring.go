package obs

import "sync"

// ring is a fixed-capacity buffer of the newest values, safe for
// concurrent use: the store behind both the span Ring and each of the
// flight recorder's per-shard rings.
type ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	next    int // write cursor
	n       int // values currently held (≤ cap)
	total   uint64
	dropped uint64 // values evicted by overflow
}

// Record stores v, evicting the oldest value when full.
func (r *ring[T]) Record(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.dropped++
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot copies the held values, oldest first.
func (r *ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Stats reports values currently held and recorded over the ring's
// lifetime (the difference is what eviction dropped).
func (r *ring[T]) Stats() (held int, total uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n, r.total
}

// Dropped reports values evicted by overflow — today's silent data
// loss made visible (exported as auditd_trace_spans_dropped_total).
func (r *ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Ring is a fixed-capacity span recorder: the newest spans win, memory
// stays bounded, and a snapshot is cheap — the store behind auditd's
// GET /v1/traces. Safe for concurrent use.
type Ring struct{ ring[Span] }

// DefaultRingCapacity is the span count auditd's /v1/traces ring holds.
const DefaultRingCapacity = 256

// NewRing builds a ring holding up to capacity spans.
func NewRing(capacity int) *Ring {
	return &Ring{ring[Span]{buf: make([]Span, capacity)}}
}
