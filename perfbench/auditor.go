package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// recoveryFlags are the auditd flags of the auditor-queries daemon on
// top of auditdArgs: a checkpoint file, and size-only ledger cuts so
// the root chain (and so every proof) is a function of the entry
// sequence alone.
func recoveryFlags(dir string, extra ...string) []string {
	return append([]string{"-checkpoint", filepath.Join(dir, "state.ckpt"), "-ledger-wait", "0"}, extra...)
}

// auditorInput is the auditor-queries input: one hospital stream split
// into a checkpointed prefix, a WAL tail, and the rest posted live.
type auditorInput struct {
	in               *streamInput
	ckpt, tail, rest [][]byte
	restEntries      int
	tailFirst, tailN int // tail LSN range start and length
	template         string
}

func newAuditorInput(b *bench) (*auditorInput, error) {
	n1, n2, n3 := b.sz.ckptEntries, b.sz.tailEntries, b.sz.restEntries
	in, err := newHospitalInput(b.cfg.seed, b.sz.dayOpens, n1+n2+n3)
	if err != nil {
		return nil, err
	}
	ai := &auditorInput{in: in, tailFirst: n1 + 1, tailN: n2, restEntries: len(in.entries) - n1 - n2}
	if ai.ckpt, _, err = chunks(in.entries[:n1], b.sz.chunk); err != nil {
		return nil, err
	}
	if ai.tail, _, err = chunks(in.entries[n1:n1+n2], b.sz.chunk); err != nil {
		return nil, err
	}
	if ai.rest, _, err = chunks(in.entries[n1+n2:], b.sz.chunk); err != nil {
		return nil, err
	}
	b.stamp.Input["entries"] = len(in.entries)
	b.stamp.Input["checkpointed_entries"] = n1
	b.stamp.Input["wal_tail_entries"] = n2
	b.stamp.Input["live_entries"] = ai.restEntries
	b.stamp.Input["cases"] = in.cases
	b.stamp.Input["injected_cases"] = len(in.injected)
	b.stamp.Input["days"] = in.days
	b.stamp.Input["lines_per_post"] = b.sz.chunk
	b.stamp.Input["M"] = b.sz.queryEvery
	return ai, nil
}

// prepare leaves the kill -9 shape of ci.sh's crash stage in a template
// directory: a checkpoint written by a clean SIGTERM after the prefix,
// then a WAL tail posted with fsync=always and cut off by SIGKILL.
func (b *bench) prepareRecovery(ai *auditorInput) error {
	dir, err := b.daemonDir("prep")
	if err != nil {
		return err
	}
	d, _, err := b.startDaemon(dir, b.auditdArgs(dir, recoveryFlags(dir)...))
	if err != nil {
		return err
	}
	if err := b.postUntimed(d, ai.ckpt); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("checkpointing the prefix: %w", err)
	}
	if _, err := os.Stat(filepath.Join(d.dir, "state.ckpt")); err != nil {
		return fmt.Errorf("no checkpoint after SIGTERM: %w", err)
	}
	d2, _, err := b.startDaemon(dir, b.auditdArgs(dir, recoveryFlags(dir, "-fsync", "always")...))
	if err != nil {
		return err
	}
	if err := b.postUntimed(d2, ai.tail); err != nil {
		return err
	}
	d2.kill()
	os.Remove(filepath.Join(dir, "addr"))
	os.Remove(filepath.Join(dir, "auditd.log"))
	ai.template = dir
	return nil
}

// postUntimed feeds bodies during preparation; failures still count.
func (b *bench) postUntimed(d *daemon, bodies [][]byte) error {
	w := &writer{c: newClient(), base: d.base}
	defer w.c.CloseIdleConnections()
	for _, body := range bodies {
		if err := w.post(b.ctx, b.res, body, countLines(body)); err != nil {
			return err
		}
	}
	return nil
}

// copyTree copies the regular files of src into dst (one level of
// subdirectories, which is all an auditd state directory has).
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.OpenFile(target, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, info.Mode().Perm())
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// auditorDepths is how many ledger depths the auditor's investigations
// cycle through: investigation k looks at the violating cases nearest
// fraction (k mod auditorDepths)/auditorDepths of the way back from the
// newest entry, so one in auditorDepths looks at the two newest. A
// proof carries every root from the case's first batch to the head, so
// with the two newest alone the bundle size was set by how long the
// seed's newest violating cases happened to run: its mean over a pass
// spread 21% across seeds. Cycling through depths makes it a property
// of the ledger's length, as on durable-ingest.
const auditorDepths = 8

// auditorPass recovers a daemon from a copy of the template (the timed
// boot), then a writer posts the rest of the stream on one connection
// while an auditor on a second connection gets one investigation
// issued per queryEvery acknowledged entries, at the depths above. The
// writer waits for each investigation to finish, so the ledger length
// at every query is the same on every commit.
func (b *bench) auditorPass(st *serverStats, ai *auditorInput, spans *spanLog, extra ...string) (*daemon, error) {
	dir, err := b.daemonDir("recover")
	if err != nil {
		return nil, err
	}
	if err := copyTree(ai.template, dir); err != nil {
		return nil, err
	}
	d, bt, err := b.startDaemon(dir, b.auditdArgs(dir, recoveryFlags(dir, extra...)...))
	if err != nil {
		return nil, err
	}
	pub, err := b.publicKey()
	if err != nil {
		return nil, err
	}
	w := &writer{c: newClient(), base: d.base, pid: d.cmd.Process.Pid, track: b.track, spans: spans}
	defer w.c.CloseIdleConnections()
	if st.a == nil {
		st.a = &auditor{spans: spans}
	}
	st.a.c, st.a.base, st.a.pub, st.a.last, st.a.pid, st.a.track = newClient(), d.base, pub, nil, w.pid, b.track
	defer st.a.c.CloseIdleConnections()
	next, queries := b.sz.queryEvery, 0
	for _, body := range ai.rest {
		if err := w.post(b.ctx, b.res, body, countLines(body)); err != nil {
			return nil, err
		}
		if w.entries >= next {
			next += b.sz.queryEvery
			at := float64(queries%auditorDepths) / auditorDepths
			queries++
			if err := st.a.investigate(b.ctx, b.res, at); err != nil {
				return nil, err
			}
		}
	}
	if err := checkCaseCounts(b.ctx, b.res, w.c, d.base, ai.in.expected); err != nil {
		return nil, err
	}
	b.res.check(w.entries == ai.restEntries, "acknowledged %d of %d live entries", w.entries, ai.restEntries)
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := st.record(w, bt, rss); err != nil {
		return nil, err
	}
	return d, nil
}

// runAuditorQueries: recovery boot from a checkpoint plus a WAL tail,
// then writes and auditor investigations side by side.
func runAuditorQueries(b *bench) error {
	ai, err := newAuditorInput(b)
	if err != nil {
		return err
	}
	if err := b.prepareRecovery(ai); err != nil {
		return err
	}
	st := &serverStats{}
	b.track = newSpeedTrack()
	err = b.passes(b.sz.minPasses, func(int) error {
		d, err := b.auditorPass(st, ai, nil)
		if err != nil {
			return err
		}
		d.kill()
		os.RemoveAll(d.dir)
		return nil
	})
	if err != nil {
		return err
	}
	b.stamp.Input["passes"] = st.passes
	b.stamp.Input["investigations"] = len(st.a.lat)
	b.stamp.HostSpeed = b.track.speed()
	st.report(b.res)
	return nil
}
