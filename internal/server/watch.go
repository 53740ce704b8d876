package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// GET /v1/watch: a Server-Sent-Events stream of verdict transitions —
// the moment a case leaves "compliant" the sink publishes its verdict
// event, so an operator sees deviations as they happen instead of
// polling /v1/cases. Publishing is strictly non-blocking: the shard
// worker must never wait on a slow SSE client, so a subscriber whose
// buffer is full loses events (auditd_watch_events_dropped_total)
// rather than stalling replay.

// watchHub fans verdict events out to subscribers.
type watchHub struct {
	mu   sync.Mutex
	subs map[int]chan obs.Event
	next int

	dropped atomic.Int64 // events lost to full subscriber buffers
}

func newWatchHub() *watchHub {
	return &watchHub{subs: map[int]chan obs.Event{}}
}

// subscribe registers a buffered subscriber and returns its id and
// channel.
func (h *watchHub) subscribe(buf int) (int, <-chan obs.Event) {
	ch := make(chan obs.Event, buf)
	h.mu.Lock()
	id := h.next
	h.next++
	h.subs[id] = ch
	h.mu.Unlock()
	return id, ch
}

// unsubscribe removes a subscriber; its channel is left to the GC (the
// publisher never closes channels, avoiding send-on-closed races).
func (h *watchHub) unsubscribe(id int) {
	h.mu.Lock()
	delete(h.subs, id)
	h.mu.Unlock()
}

// count reports live subscribers.
func (h *watchHub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// publish offers the event to every subscriber without blocking.
func (h *watchHub) publish(ev obs.Event) {
	h.mu.Lock()
	for _, ch := range h.subs {
		select {
		case ch <- ev:
		default:
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// watchHeartbeat keeps idle SSE connections alive through proxies and
// lets the handler notice a dead client between events.
const watchHeartbeat = 15 * time.Second

// handleWatch streams verdict transitions as SSE. ?outcome= filters to
// one outcome (violation|indeterminate). The subscription is dropped
// the moment the client disconnects (request context), so abandoned
// watchers don't accumulate.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	outcome := r.URL.Query().Get("outcome")
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	id, ch := s.watch.subscribe(64)
	defer s.watch.unsubscribe(id)

	fmt.Fprintf(w, ": watching verdict transitions\n\n")
	fl.Flush()

	heartbeat := time.NewTicker(watchHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if outcome != "" && ev.Outcome != outcome {
				continue
			}
			// The payload is the verdict event plus "entries" (= N), the
			// field /v1/watch clients read.
			data, err := json.Marshal(struct {
				obs.Event
				Entries int `json:"entries"`
			}{ev, ev.N})
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: verdict\ndata: %s\n\n", data)
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprintf(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}
