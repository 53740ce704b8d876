package server

import (
	"net/http"
	"runtime"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
)

// GET /v1/status: the deep operational view — everything purposectl
// top renders in one JSON document. Where /readyz answers "should the
// load balancer keep me?", /v1/status answers "what is every shard
// doing right now?". All fields are reads of atomics or short
// RLock'd copies; a status poll never touches the ingest hot path.

// shardStatus is one shard's row in /v1/status.
type shardStatus struct {
	ID      int   `json:"id"`
	Pending int64 `json:"pending"` // entries accepted but not yet fed
	Depth   int64 `json:"depth"`
	// HighWater is the worst queue occupancy seen since boot.
	HighWater int64 `json:"high_water"`
	Cases     int   `json:"cases"`
	Restarts  int64 `json:"restarts,omitempty"`
	Failed    bool  `json:"failed,omitempty"`
	// LastFedLSN is the WAL LSN of the last completed feed (0 without
	// a WAL).
	LastFedLSN uint64 `json:"last_fed_lsn,omitempty"`
}

type walStatus struct {
	Records  uint64 `json:"records"`
	LastLSN  uint64 `json:"last_lsn"`
	Fsyncs   uint64 `json:"fsyncs"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	Failed   bool   `json:"failed,omitempty"`
}

type ledgerStatus struct {
	HeadSeq      int    `json:"head_seq"`
	SealedLeaves uint64 `json:"sealed_leaves"`
	OpenLeaves   int    `json:"open_leaves"`
	SealedLSN    uint64 `json:"sealed_lsn"`
}

type flightStatus struct {
	EventsHeld int    `json:"events_held"`
	Total      uint64 `json:"total"`
	Dumps      int64  `json:"dumps"`
	LastDump   string `json:"last_dump,omitempty"`
}

type verdictTotals struct {
	Compliant     int64 `json:"compliant"`
	Violation     int64 `json:"violation"`
	Indeterminate int64 `json:"indeterminate"`
}

// statusReply is the GET /v1/status body.
type statusReply struct {
	Version             string  `json:"version"`
	GoVersion           string  `json:"go_version"`
	CompilerFingerprint string  `json:"compiler_fingerprint"`
	UptimeSeconds       float64 `json:"uptime_seconds"`
	Ready               bool    `json:"ready"`

	Cases    int `json:"cases"`
	Purposes int `json:"purposes"`

	Ingested    int64         `json:"ingested"`
	Rejected    int64         `json:"rejected"`
	Quarantined int64         `json:"quarantined"`
	Dropped     int64         `json:"dropped"`
	Verdicts    verdictTotals `json:"verdicts"`

	Shards []shardStatus `json:"shards"`

	WAL    *walStatus    `json:"wal,omitempty"`
	Ledger *ledgerStatus `json:"ledger,omitempty"`

	// StageSampleEvery is the configured 1-in-N stage sampling (0 =
	// off; traced requests are always timed).
	StageSampleEvery int          `json:"stage_sample_every"`
	Watchers         int          `json:"watchers"`
	Flight           flightStatus `json:"flight"`

	// Snapshots/SnapshotAgeSeconds describe checkpointing activity
	// (absent age means no snapshot yet).
	Snapshots          int64   `json:"snapshots,omitempty"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`
}

func (s *Server) statusReply() statusReply {
	m := s.metrics
	st := statusReply{
		Version:             cli.Version,
		GoVersion:           runtime.Version(),
		CompilerFingerprint: cli.CompilerFingerprint(),
		UptimeSeconds:       time.Since(s.startTime).Seconds(),
		Ready:               s.isReady() && !s.walRefusing(),
		Cases:               s.caseCount(),
		Purposes:            len(s.reg.Purposes()),
		Ingested:            m.eventsIngested.Load(),
		Rejected:            m.eventsRejected.Load(),
		Quarantined:         m.eventsQuarantined.Load(),
		Dropped:             m.entriesDropped.Load(),
		Verdicts: verdictTotals{
			Compliant:     m.verdictsOK.Load(),
			Violation:     m.verdictsViolation.Load(),
			Indeterminate: m.verdictsIndeterminate.Load(),
		},
		StageSampleEvery: s.stages.Every(),
		Watchers:         s.watch.count(),
		Snapshots:        m.snapshots.Load(),
	}
	for _, sh := range s.shards {
		st.Shards = append(st.Shards, shardStatus{
			ID:         sh.id,
			Pending:    sh.pendingEntries(),
			Depth:      sh.depth,
			HighWater:  sh.highWater.Load(),
			Cases:      sh.viewCount(),
			Restarts:   sh.restarts.Load(),
			Failed:     sh.failed.Load(),
			LastFedLSN: sh.lastFedLSN.Load(),
		})
	}
	if s.wal != nil {
		appended, syncs, segments, bytes := s.wal.Stats()
		st.WAL = &walStatus{
			Records: appended, LastLSN: s.wal.LastLSN(), Fsyncs: syncs,
			Segments: segments, Bytes: bytes, Failed: s.walBroken(),
		}
	}
	if s.ledger != nil {
		batches, leaves, open, _ := s.ledger.Stats()
		st.Ledger = &ledgerStatus{
			HeadSeq: batches, SealedLeaves: leaves, OpenLeaves: open,
			SealedLSN: s.ledger.LastSealedLSN(),
		}
	}
	held, total, dumps := s.flight.Stats()
	st.Flight = flightStatus{EventsHeld: held, Total: total, Dumps: dumps, LastDump: s.flight.LastDump()}
	if last := m.lastSnapshotNano.Load(); last > 0 {
		st.SnapshotAgeSeconds = time.Since(time.Unix(0, last)).Seconds()
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statusReply())
}

// handleFlightRecorder serves the live flight-recorder snapshot — the
// same merged, seq-ordered event view a dump file would contain, plus
// dump bookkeeping.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	held, total, dumps := s.flight.Stats()
	writeJSON(w, http.StatusOK, struct {
		Held     int         `json:"held"`
		Total    uint64      `json:"total"`
		Dumps    int64       `json:"dumps"`
		LastDump string      `json:"last_dump,omitempty"`
		Events   []obs.Event `json:"events"`
	}{Held: held, Total: total, Dumps: dumps, LastDump: s.flight.LastDump(), Events: s.flight.Snapshot()})
}
