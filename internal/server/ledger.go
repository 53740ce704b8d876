package server

// Ledger integration: sealing on the durable ingest path (DESIGN.md
// §15). The ledger appends inside walAppend, under the same lock that
// assigns LSNs, so the leaf sequence is the WAL record sequence and a
// crash rebuild from replay signs byte-identical roots. Checkpoints
// persist only sealed batches; the open tail and any batches sealed
// after the last checkpoint rebuild from the WAL, which is why
// truncation is clamped to the last checkpointed sealed LSN.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
)

// openLedger builds the ledger when configured. Called from Start
// before restore (which loads checkpointed state into it).
func (s *Server) openLedger() error {
	if s.cfg.LedgerKey == nil {
		return nil
	}
	if s.cfg.WALDir == "" {
		return fmt.Errorf("server: ledger requires a WAL (set WALDir): sealing is defined over the durable ingest path")
	}
	l, err := ledger.New(ledger.Options{
		Key:   s.cfg.LedgerKey,
		Batch: s.cfg.LedgerBatch,
		Wait:  s.cfg.LedgerWait,
		OnSeal: func(root ledger.SignedRoot, dur time.Duration) {
			s.metrics.ledgerBatches.Add(1)
			s.metrics.ledgerLeaves.Add(int64(root.Leaves))
			s.metrics.ledgerSealDuration.observe(dur)
		},
	})
	if err != nil {
		return fmt.Errorf("server: opening ledger: %w", err)
	}
	s.ledger = l
	return nil
}

// proofBundle is the GET /v1/proofs/{case} body: the verdict and its
// evidence in one self-contained, offline-verifiable document.
type proofBundle struct {
	Case        string            `json:"case"`
	Outcome     string            `json:"outcome"`
	Purpose     string            `json:"purpose,omitempty"`
	Explanation *core.Explanation `json:"explanation,omitempty"`
	Proof       *ledger.CaseProof `json:"proof"`
}

// handleProof serves the verdict-with-evidence bundle for one case.
func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		http.Error(w, "ledger not enabled (start auditd with -ledger)", http.StatusNotFound)
		return
	}
	id := r.PathValue("id")
	p, err := s.ledger.ProveCase(id)
	if err != nil {
		if errors.Is(err, ledger.ErrUnknownCase) {
			http.Error(w, fmt.Sprintf("case %q has no ledger entries", id), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.metrics.ledgerProofs.Add(1)
	b := proofBundle{Case: id, Outcome: "unknown", Proof: p}
	if v, ok := s.shardFor(id).view(id); ok {
		b.Outcome = v.Outcome
		b.Purpose = v.Purpose
		b.Explanation = v.Explanation
	}
	writeJSON(w, http.StatusOK, b)
}

// rootsResponse is the GET /v1/roots body. Everything in it is
// deterministic for a given entry sequence — no wall clock, and
// ed25519 signatures are deterministic — so a crash-rebuilt ledger
// answers byte-identically to an uninterrupted one, signed tree head
// included (asserted by ci.sh crash).
type rootsResponse struct {
	PublicKey string `json:"public_key"`
	Batches   int    `json:"batches"`
	Leaves    uint64 `json:"leaves"`
	Open      int    `json:"open"`
	// Head is the signed tree head over every sealed batch; the last
	// root listed is its newest batch.
	Head *ledger.SignedHead `json:"head,omitempty"`
	// Consistency proves Head extends the tree of size since (RFC
	// 9162), for 0 < since < Head.Size.
	Consistency []string            `json:"consistency,omitempty"`
	Roots       []ledger.SignedRoot `json:"roots"`
}

// handleRoots lists the signed root chain and the signed tree head;
// ?since=N returns roots with Seq > N (incremental polling for root
// followers) and the consistency proof from the head of size N.
func (s *Server) handleRoots(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		http.Error(w, "ledger not enabled (start auditd with -ledger)", http.StatusNotFound)
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "since must be a root sequence number", http.StatusBadRequest)
			return
		}
		since = n
	}
	batches, leaves, open, _ := s.ledger.Stats()
	resp := rootsResponse{
		PublicKey: fmt.Sprintf("%x", s.ledger.PublicKey()),
		Batches:   batches,
		Leaves:    leaves,
		Open:      open,
	}
	// One read of head, proof and roots: a seal between separate reads
	// would let a follower polling ?since=<head.Size> skip roots.
	if head, proof, roots, ok := s.ledger.TreeHead(since); ok {
		resp.Head, resp.Consistency, resp.Roots = &head, proof, roots
	}
	writeJSON(w, http.StatusOK, resp)
}
