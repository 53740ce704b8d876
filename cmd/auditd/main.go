// Command auditd serves the purpose-control analysis as a long-running
// HTTP service: audit entries stream in (NDJSON or CSV), are sharded by
// case across a pool of online monitors, and verdicts are queryable
// while the stream is still flowing. The live state checkpoints to disk
// periodically and on SIGTERM, so a restart resumes mid-case instead of
// losing history.
//
// Usage:
//
//	auditd -builtin hospital -addr :8443
//	auditd -proc treat.json:HT -proc trial.bpmn:CT [-policy pol.txt] \
//	       -shards 8 -queue 1024 \
//	       -checkpoint /var/lib/auditd/state.json -checkpoint-every 30s \
//	       [-wal-dir /var/lib/auditd/wal] [-fsync always|interval|off] \
//	       [-wal-segment-bytes N] [-wal-failure failstop|shed] \
//	       [-addr-file /run/auditd.addr] \
//	       [-compiled] \
//	       [-ledger] [-ledger-key /var/lib/auditd/ledger.key] \
//	       [-ledger-batch 64] [-ledger-wait 500ms]
//
// -wal-dir enables the write-ahead ingest log (DESIGN.md §14): every
// entry is logged before dispatch, so acknowledged means durable and a
// kill -9 loses nothing — boot restores the checkpoint and replays the
// log tail. -fsync picks the durability policy (always = fsync per
// append; interval = background fsync, bounded loss window; off =
// page-cache only). -wal-failure picks the degradation when a log
// write fails: failstop (default) wedges all ingest and fails /readyz
// so the node is pulled; shed returns per-request 503s while queries
// keep serving.
//
// -compiled replays on determinized purpose automata (DESIGN.md §11),
// each compiled in process from its registered purpose before the
// server starts; purposes that cannot be compiled stay on the
// interpreter, per case, with the cause logged. Checkpoints are JSON
// (DESIGN.md §13 records why there is one format of each and why no
// automaton is stored).
//
// -ledger (requires -wal-dir) seals every WAL-appended entry into a
// tamper-evident Merkle ledger (DESIGN.md §15): batches of -ledger-batch
// entries (or a -ledger-wait timeout) close into ed25519-signed roots,
// each chained to its predecessor. GET /v1/proofs/{case} then serves a
// verdict with an inclusion proof any holder of the public key can
// check offline (purposectl verify-proof); GET /v1/roots serves the
// signed root chain. -ledger-key names the hex seed file (generated if
// absent; the public key is mirrored to <file>.pub).
//
// Endpoints: POST /v1/events (ingest; 202, or 429 + Retry-After under
// backpressure; honors a W3C traceparent header),
// GET /v1/cases[?outcome=|purpose=|since=], GET /v1/cases/{id},
// GET /v1/cases/{id}/explain (structured first-deviation explanation),
// GET /v1/traces[?trace_id=|case=] (recent spans), GET /v1/purposes,
// GET /v1/quarantine, GET /v1/status (deep operational view; what
// purposectl top renders), GET /v1/watch (SSE verdict transitions),
// GET /v1/proofs/{case} (verdict + Merkle inclusion proof),
// GET /v1/roots (signed root chain and tree head; ?since=N adds the
// consistency proof from tree size N), /debug/flightrecorder (live
// flight-recorder ring), /metrics (Prometheus text), /healthz, /readyz.
//
// Telemetry is one stream of pipeline events (DESIGN.md §17): each
// shard emits one batch_fed event per batch and one verdict event per
// case leaving compliant (with its WAL LSN and engine), and one emitter
// fans them out to the flight recorder, GET /v1/watch, the deviation
// log, the stage histograms and GET /v1/traces. A request carrying a
// W3C traceparent gets one feed span per batch, with the stage
// durations and verdict transitions as span events. -stage-sample
// times the pipeline stages (decode, WAL append/fsync, queue wait,
// replay, ledger seal) on 1-in-N batches into the
// auditd_stage_latency_seconds histograms; traced requests are always
// timed. The flight recorder keeps the last 256 events per shard and
// dumps them to a timestamped JSON file under -flight-dir on shard
// panic, WAL failure, or SIGQUIT (the process keeps serving;
// SIGINT/SIGTERM still shut down). The span ring behind /v1/traces
// holds 256 spans.
//
// -debug-addr serves net/http/pprof on a second listener, kept off the
// public surface (profiles leak internals).
//
// -addr-file writes the actually bound address (useful with :0 in
// scripts). SIGINT/SIGTERM drain the shard queues, write a final
// checkpoint, and exit 0; startup or serve errors exit 2.
package main

import (
	"context"
	"crypto/ed25519"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/server"
)

// options carries everything main parses from the command line into
// run; one struct instead of a positional-parameter avalanche.
type options struct {
	addr      string
	addrFile  string
	debugAddr string
	shards    int
	queue     int

	stageSample int
	flightDir   string

	checkpoint      string
	checkpointEvery time.Duration
	drainTimeout    time.Duration

	walDir          string
	walFsync        string
	walSegmentBytes int64
	walFailure      string

	policyFile string
	builtin    string
	procs      []string

	compiled bool

	ledger      bool
	ledgerKey   string
	ledgerBatch int
	ledgerWait  time.Duration
}

func main() {
	var (
		o        options
		procs    cli.ProcList
		segBytes = flag.Int64("wal-segment-bytes", 0, "rotate WAL segments at this size in bytes (0 = 64 MiB default)")
	)
	flag.BoolVar(&o.compiled, "compiled", false, "replay on purpose automata compiled at boot (interpreter fallback per purpose)")
	flag.StringVar(&o.addr, "addr", ":8443", "listen address (use :0 for an ephemeral port)")
	flag.StringVar(&o.addrFile, "addr-file", "", "write the bound address to this file once listening")
	flag.IntVar(&o.shards, "shards", 8, "monitor shards (cases are hash-partitioned)")
	flag.IntVar(&o.queue, "queue", 1024, "per-shard queue depth (full queue => 429 backpressure)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint file (restored on start, written periodically and on shutdown)")
	flag.DurationVar(&o.checkpointEvery, "checkpoint-every", 30*time.Second, "periodic checkpoint interval")
	flag.StringVar(&o.walDir, "wal-dir", "", "write-ahead ingest log directory (empty = no WAL; entries are durable before they are acknowledged)")
	flag.StringVar(&o.walFsync, "fsync", "", "WAL durability policy: always|interval|off (default interval)")
	flag.StringVar(&o.walFailure, "wal-failure", "", "WAL write-failure policy: failstop|shed (default failstop)")
	flag.StringVar(&o.policyFile, "policy", "", "policy file (textual format; supplies the role hierarchy)")
	flag.StringVar(&o.builtin, "builtin", "", "use a built-in scenario: 'hospital' (Figures 1-4)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "max wait for queues to drain on shutdown (expired: partial checkpoint, stragglers stay in the WAL)")
	flag.BoolVar(&o.ledger, "ledger", false, "seal WAL-appended entries into a signed Merkle ledger (requires -wal-dir; serves /v1/proofs and /v1/roots)")
	flag.StringVar(&o.ledgerKey, "ledger-key", "", "ed25519 seed file for root signing (hex; created if absent, public key written alongside as <file>.pub)")
	flag.IntVar(&o.ledgerBatch, "ledger-batch", 0, "seal a ledger batch at this many entries (0 = default 64; 1 = a signed root per entry)")
	flag.DurationVar(&o.ledgerWait, "ledger-wait", 500*time.Millisecond, "seal a partial batch this long after its first entry (0 = size/shutdown cuts only)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	flag.IntVar(&o.stageSample, "stage-sample", 0, "time pipeline stages on 1-in-N batches (0 = default 64, 1 = every batch, negative = off; traced requests are always timed)")
	flag.StringVar(&o.flightDir, "flight-dir", "", "directory for flight-recorder dump files (empty = system temp dir)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Var(&procs, "proc", cli.ProcUsage)
	flag.Parse()
	if *version {
		fmt.Println(cli.VersionString("auditd"))
		return
	}
	o.procs = procs
	o.walSegmentBytes = *segBytes

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(log)
	if err := run(log, o); err != nil {
		log.Error("auditd failed", "err", err)
		os.Exit(cli.ExitUsage)
	}
}

// buildRegistry assembles the registry and role hierarchy from the
// builtin scenario or the -proc/-policy bindings, exactly as purposectl
// does (shared loaders in internal/cli).
func buildRegistry(builtin, polFile string, procs []string) (*core.Registry, *policy.RoleHierarchy, error) {
	if builtin != "" {
		sc, err := cli.Builtin(builtin)
		if err != nil {
			return nil, nil, err
		}
		var roles *policy.RoleHierarchy
		if sc.Policy != nil {
			roles = sc.Policy.Roles
		}
		return sc.Registry, roles, nil
	}
	if len(procs) == 0 {
		return nil, nil, fmt.Errorf("no processes: use -proc or -builtin")
	}
	reg := core.NewRegistry()
	if err := cli.LoadProcs(reg, procs); err != nil {
		return nil, nil, err
	}
	var roles *policy.RoleHierarchy
	if polFile != "" {
		f, err := os.Open(polFile)
		if err != nil {
			return nil, nil, err
		}
		p, err := policy.ParsePolicy(f)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		roles = p.Roles
	}
	return reg, roles, nil
}

// setupCompiled switches the checker onto the table-driven fast path
// and compiles every purpose eagerly, so boot pays for subset
// construction instead of the first request. Non-compilable purposes
// stay on the interpreter with the cause logged. Boot never fails
// because of the automata — the interpreter is always a valid engine.
func setupCompiled(log *slog.Logger, c *core.Checker, reg *core.Registry) {
	c.UseCompiled = true
	for _, name := range reg.Purposes() {
		d, err := c.EnsureCompiled(name)
		if err != nil {
			log.Warn("purpose stays interpreted", "purpose", name, "cause", err)
			continue
		}
		log.Info("automaton compiled", "purpose", name, "fingerprint", d.Fingerprint[:12], "states", len(d.States))
	}
}

// debugServer mounts net/http/pprof on its own mux (pprof only
// auto-registers on http.DefaultServeMux, which we never serve) and
// listens on addr in the background.
func debugServer(log *slog.Logger, addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Info("pprof listening", "addr", ln.Addr().String())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Warn("pprof server stopped", "err", err)
		}
	}()
	return nil
}

func run(log *slog.Logger, o options) error {
	reg, roles, err := buildRegistry(o.builtin, o.policyFile, o.procs)
	if err != nil {
		return err
	}
	checker := core.NewChecker(reg, roles)
	if o.compiled {
		setupCompiled(log, checker, reg)
	}

	var ledgerKey ed25519.PrivateKey
	if o.ledger {
		if o.walDir == "" {
			return fmt.Errorf("-ledger requires -wal-dir: sealing covers the durable ingest path")
		}
		ledgerKey, err = loadLedgerKey(log, o.ledgerKey)
		if err != nil {
			return err
		}
	}

	srv := server.New(reg, checker, server.Config{
		Shards:          o.shards,
		QueueDepth:      o.queue,
		CheckpointPath:  o.checkpoint,
		CheckpointEvery: o.checkpointEvery,
		WALDir:          o.walDir,
		WALFsync:        o.walFsync,
		WALSegmentBytes: o.walSegmentBytes,
		WALFailure:      o.walFailure,
		StageSample:     o.stageSample,
		FlightDir:       o.flightDir,
		LedgerKey:       ledgerKey,
		LedgerBatch:     o.ledgerBatch,
		LedgerWait:      o.ledgerWait,
		Logger:          log,
	})
	if err := srv.Start(); err != nil {
		return err
	}

	if o.debugAddr != "" {
		if err := debugServer(log, o.debugAddr); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	log.Info("listening", "addr", ln.Addr().String())
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT dumps the flight recorder and keeps serving — the
	// kill -QUIT analogue of the JVM thread dump. Shutdown signals stay
	// on the NotifyContext above.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	defer signal.Stop(quitc)
	go func() {
		for range quitc {
			srv.DumpFlightRecorder("sigquit")
		}
	}()
	select {
	case <-ctx.Done():
		log.Info("signal received, draining")
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}

	// Stop accepting HTTP first (waits for in-flight requests), then
	// drain the shard queues and write the final checkpoint.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	return srv.Shutdown(shutdownCtx)
}
