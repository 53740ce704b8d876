package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
)

// Checkpointing: the server periodically (and on shutdown, after the
// queues drain) writes its whole live state — merged monitor state,
// case views, quarantine — to CheckpointPath via write-to-temp +
// atomic rename, so a crash never leaves a torn file. On Start the
// file is read back and the cases are re-split across shards by case
// hash, which also makes the shard count a restart-time knob: a
// 4-shard snapshot restores cleanly into 16 shards.
//
// Consistency: a running checkpoint asks every shard for a dump
// through its own queue, so each shard's cut reflects exactly the
// entries fed before the request — a consistent point-in-time cut per
// shard. Entries still waiting in queues at a crash are not in the
// snapshot; producers that need zero loss should use ?wait=1 and
// retry anything unacknowledged.

// checkpointFile is the on-disk format.
type checkpointFile struct {
	Version   int                  `json:"version"`
	SavedUnix int64                `json:"saved_unix"`
	Monitor   *core.MonitorState   `json:"monitor"`
	Views     map[string]*CaseView `json:"views,omitempty"`
	// Quarantine persists the held records and the all-time total so
	// /v1/quarantine survives restarts.
	QuarantineTotal int64              `json:"quarantine_total,omitempty"`
	Quarantine      []QuarantineRecord `json:"quarantine,omitempty"`
	// Ledger persists the sealed batches (open leaves rebuild from WAL
	// replay — see walSafeLSN for the truncation clamp that keeps them
	// replayable).
	Ledger *ledger.State `json:"ledger,omitempty"`
}

const checkpointVersion = 1

// checkpointLoop snapshots every CheckpointEvery until stopped.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	if s.cfg.CheckpointPath == "" {
		<-s.stopCkpt
		return
	}
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopCkpt:
			return
		case <-t.C:
			if err := s.checkpointRunning(); err != nil {
				s.metrics.snapshotErrors.Add(1)
				s.log.Error("checkpoint failed", "err", err)
			}
		}
	}
}

// checkpointRunning takes a consistent cut through the live shard
// queues and writes it. On success, WAL segments fully covered by the
// cut are truncated: the low-water mark is captured BEFORE the dump
// fan-out, so a record at or below it is provably either fed already
// or queued ahead of the dump message (see walLowWater).
func (s *Server) checkpointRunning() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	lowWater := s.walLowWater()
	replies := make([]<-chan shardDump, len(s.shards))
	for i, sh := range s.shards {
		replies[i] = sh.requestDump()
	}
	dumps := make([]shardDump, len(s.shards))
	for i, ch := range replies {
		dumps[i] = <-ch
	}
	for i := range dumps {
		if dumps[i].incomplete {
			// The shard's dump panicked (serveSnap still replied, so
			// the loop is not wedged). Writing a cut missing its cases
			// would lose them on restore — skip the whole round and
			// retry next tick; the previous checkpoint stays in place.
			return fmt.Errorf("server: shard %d dump panicked; checkpoint skipped", i)
		}
	}
	if err := s.writeCheckpoint(dumps); err != nil {
		return err
	}
	// Clamped so records a failed shard's drainer dropped — provably
	// NOT in any dump despite sitting below the low-water mark — stay
	// in the log for boot replay (walSafeLSN). Checked after the dumps
	// are collected: a shard that fails later can only be dropping
	// records above lowWater, since anything at or below it was fed
	// before the dump this checkpoint just persisted.
	s.truncateWAL(s.walSafeLSN(lowWater))
	return nil
}

// checkpointFinal reads the monitors directly; only valid after the
// shard workers have exited.
func (s *Server) checkpointFinal() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	dumps := make([]shardDump, len(s.shards))
	for i, sh := range s.shards {
		dumps[i] = sh.dump()
	}
	return s.writeCheckpoint(dumps)
}

// checkpointPartial is the drain-deadline checkpoint: direct dumps
// from the shards that finished, and — for the stragglers — their
// cases carried over from the previous checkpoint file, so a stuck
// shard costs at most the progress since the last cut (still replayed
// from the WAL at next boot), never its whole history.
func (s *Server) checkpointPartial(drained []*shard, stale map[int]bool) error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	dumps := make([]shardDump, 0, len(drained)+1)
	for _, sh := range drained {
		dumps = append(dumps, sh.dump())
	}
	if len(stale) > 0 {
		prev, err := s.readCheckpointFile()
		switch {
		case err != nil:
			s.log.Warn("previous checkpoint unreadable; straggler cases not carried over", "err", err)
		case prev == nil:
			s.log.Warn("no previous checkpoint; straggler cases restored from WAL only")
		default:
			d := shardDump{views: map[string]*CaseView{}}
			if prev.Monitor != nil {
				d.state = &core.MonitorState{
					Version: prev.Monitor.Version,
					States:  prev.Monitor.States,
					Cases:   map[string]core.CaseSnapshot{},
				}
				for id, cs := range prev.Monitor.Cases {
					if stale[core.ShardCase(id, len(s.shards))] {
						d.state.Cases[id] = cs
					}
				}
			}
			for id, v := range prev.Views {
				if stale[core.ShardCase(id, len(s.shards))] {
					d.views[id] = v
				}
			}
			dumps = append(dumps, d)
		}
	}
	return s.writeCheckpoint(dumps)
}

// writeCheckpoint merges the shard dumps and writes the file
// atomically.
func (s *Server) writeCheckpoint(dumps []shardDump) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	start := time.Now()

	merged := mergeStates(dumps)
	views := map[string]*CaseView{}
	for _, d := range dumps {
		for id, v := range d.views {
			views[id] = v
		}
	}
	_, qtotal := s.quar.stats()
	recs := s.quar.snapshot()
	file := checkpointFile{
		Version:         checkpointVersion,
		SavedUnix:       time.Now().Unix(),
		Monitor:         merged,
		Views:           views,
		QuarantineTotal: qtotal,
		Quarantine:      recs,
	}
	if s.ledger != nil {
		st, err := s.ledger.ExportState()
		if err != nil {
			return fmt.Errorf("server: exporting ledger state: %w", err)
		}
		file.Ledger = st
	}

	dir := filepath.Dir(s.cfg.CheckpointPath)
	tmp, err := os.CreateTemp(dir, ".auditd-ckpt-*")
	if err != nil {
		return fmt.Errorf("server: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := json.NewEncoder(tmp).Encode(&file); err != nil {
		tmp.Close()
		return fmt.Errorf("server: encoding checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("server: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.cfg.CheckpointPath); err != nil {
		return fmt.Errorf("server: publishing checkpoint: %w", err)
	}
	if file.Ledger != nil {
		// Only now — with the state durably published — may truncation
		// advance past these sealed leaves.
		s.ledgerCkptLSN.Store(file.Ledger.LastLSN())
	}

	d := time.Since(start)
	s.metrics.snapshotDuration.observe(d)
	s.metrics.snapshots.Add(1)
	s.metrics.lastSnapshotNano.Store(time.Now().UnixNano())
	s.log.Info("checkpoint written", "path", s.cfg.CheckpointPath,
		"cases", len(merged.Cases), "dur_ms", float64(d.Microseconds())/1000)
	return nil
}

// mergeStates folds per-shard monitor states into one, re-indexing
// each shard's state table into a shared one.
func mergeStates(dumps []shardDump) *core.MonitorState {
	merged := &core.MonitorState{Version: 2, Cases: map[string]core.CaseSnapshot{}}
	index := map[string]int{}
	for _, d := range dumps {
		if d.state == nil {
			continue
		}
		remap := make([]int, len(d.state.States))
		for i, term := range d.state.States {
			ref, ok := index[term]
			if !ok {
				ref = len(merged.States)
				index[term] = ref
				merged.States = append(merged.States, term)
			}
			remap[i] = ref
		}
		for id, cs := range d.state.Cases {
			configs := make([]core.ConfigSnapshot, len(cs.Configs))
			for i, cfg := range cs.Configs {
				configs[i] = core.ConfigSnapshot{StateRef: remap[cfg.StateRef], Active: cfg.Active}
			}
			cs.Configs = configs
			merged.Cases[id] = cs
		}
	}
	return merged
}

// readCheckpointFile reads and decodes the checkpoint file. A missing
// file is (nil, nil); a file that is not a complete JSON checkpoint —
// truncated, or the flat binary container older builds could write —
// is an error, so boot refuses it instead of starting empty.
func (s *Server) readCheckpointFile() (*checkpointFile, error) {
	data, err := os.ReadFile(s.cfg.CheckpointPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: opening checkpoint: %w", err)
	}
	if bytes.HasPrefix(data, []byte("\x89PCB")) {
		return nil, fmt.Errorf("server: checkpoint %s is in the retired binary format; "+
			"stop the previous build once without -binary-checkpoint to rewrite it as JSON", s.cfg.CheckpointPath)
	}
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("server: decoding checkpoint %s: %w", s.cfg.CheckpointPath, err)
	}
	if file.Version != checkpointVersion {
		return nil, fmt.Errorf("server: unsupported checkpoint version %d", file.Version)
	}
	return &file, nil
}

// restore loads the checkpoint file, if configured and present, and
// splits it across the shards. Called from Start, before the workers
// run.
func (s *Server) restore() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	fp, err := s.readCheckpointFile()
	if err != nil {
		return err
	}
	if fp == nil {
		return nil
	}
	file := *fp
	if file.Monitor != nil {
		// Split cases by hash; every per-shard state shares the full
		// term table and its resolutions, so no re-indexing is needed
		// and each term is parsed once per purpose, not once per shard.
		for i, part := range file.Monitor.Split(len(s.shards)) {
			if part == nil {
				continue
			}
			if err := s.shards[i].mon.LoadState(part); err != nil {
				return fmt.Errorf("server: restoring shard %d: %w", i, err)
			}
		}
	}
	views := make([]map[string]*CaseView, len(s.shards))
	for id, v := range file.Views {
		i := core.ShardCase(id, len(s.shards))
		if views[i] == nil {
			views[i] = map[string]*CaseView{}
		}
		views[i][id] = v
	}
	for i, vs := range views {
		s.shards[i].loadViews(vs)
	}
	s.quar.load(file.QuarantineTotal, file.Quarantine)
	if s.ledger != nil && file.Ledger != nil {
		// LoadState re-derives every chain, root and signature and
		// refuses a checkpoint that fails any of them: a tampered
		// checkpoint cannot smuggle state into the ledger.
		if err := s.ledger.LoadState(file.Ledger); err != nil {
			return fmt.Errorf("server: restoring ledger: %w", err)
		}
		s.ledgerCkptLSN.Store(file.Ledger.LastLSN())
	}
	s.metrics.lastSnapshotNano.Store(time.Unix(file.SavedUnix, 0).UnixNano())
	s.log.Info("checkpoint restored", "path", s.cfg.CheckpointPath,
		"cases", len(file.Views), "saved", time.Unix(file.SavedUnix, 0).Format(time.RFC3339))
	return nil
}
