package main

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/wal"
)

// layerInput is what a traced run drives each layer over: the
// workload's own entries and purposes.
type layerInput struct {
	reg   *core.Registry
	roles *policy.RoleHierarchy
	// procSpecs are cli.LoadProcs bindings for the same purposes.
	procSpecs []string
	entries   []audit.Entry
	// stateEntries is the state a restart of this workload loads (the
	// checkpointed prefix on auditor-queries).
	stateEntries []audit.Entry
	// tail, when set, is the prepared WAL tail to replay; otherwise the
	// log written by the append drive is replayed.
	tail *walTail
	// runtimeFromAudit takes the runtime rows around an offline audit
	// pass instead of around the in-process server pipeline.
	runtimeFromAudit bool
}

type walTail struct {
	dir  string // auditd state directory holding wal/
	from uint64 // first tail LSN
	n    int
}

// hospitalLayers builds the layer input of a server workload, writing
// the hospital purposes out as BPMN JSON for the encode row.
func (b *bench) hospitalLayers(in *streamInput, entries, state []audit.Entry, tail *walTail) *layerInput {
	li := &layerInput{reg: in.reg, roles: in.roles, entries: entries, stateEntries: state, tail: tail}
	for _, name := range in.reg.Purposes() {
		p := in.reg.Purpose(name)
		path := filepath.Join(b.dir, name+".json")
		var buf bytes.Buffer
		if err := p.Process.EncodeJSON(&buf); err == nil && os.WriteFile(path, buf.Bytes(), 0o644) == nil {
			li.procSpecs = append(li.procSpecs, path+":"+strings.Join(p.Codes, ","))
		}
	}
	return li
}

// benchKey is the deterministic ledger key of in-process drives.
func benchKey(seed int64) ed25519.PrivateKey {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], uint64(seed))
	sum := sha256.Sum256(append([]byte("perfbench ledger key"), s[:]...))
	return ed25519.NewKeyFromSeed(sum[:])
}

// timed sums span durations of repeated calls into one layer.
type timed struct{ total time.Duration }

func (t *timed) add(d time.Duration) { t.total += d }

func (t *timed) nsPer(n int) float64 { return float64(t.total.Nanoseconds()) / float64(n) }

// observerCounts is a core.Observer tallying replay work per entry.
type observerCounts struct {
	accepted, configs, candidates, absorbed int
}

func (o *observerCounts) ReplayBegin(string, string, string, int) {}
func (o *observerCounts) EntryAccepted(_ int, _ *audit.Entry, st core.StepStats) {
	o.accepted++
	o.configs += st.ConfigsAfter
	o.candidates += st.Candidates
	if st.Absorbed {
		o.absorbed++
	}
}
func (o *observerCounts) EntryRejected(int, *audit.Entry, *core.Explanation) {}
func (o *observerCounts) ReplayEnd(*core.Report)                             {}

// runtimeSample reads cumulative allocation and CPU-time estimates.
type runtimeSample struct {
	alloc      uint64
	gcCPU, cpu float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	out := runtimeSample{alloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.cpu = s[1].Value.Float64()
	}
	return out
}

func (b *bench) setRuntimeRows(before, after runtimeSample, entries int) {
	b.res.set("runtime.alloc_bytes_per_entry", float64(after.alloc-before.alloc)/float64(entries), "B")
	share := 0.0
	if cpu := after.cpu - before.cpu; cpu > 0 {
		share = (after.gcCPU - before.gcCPU) / cpu
	}
	b.res.set("runtime.gc_cpu_share", share, "ratio")
}

// driveLayers calls each layer's public functions directly over the
// workload's inputs, one span per call, and sets the per-layer rows.
func (b *bench) driveLayers(li *layerInput) error {
	if len(li.entries) > b.sz.directMaxInput {
		li.entries = li.entries[:b.sz.directMaxInput]
	}
	n := len(li.entries)
	bodies, parts, err := chunks(li.entries, b.sz.chunk)
	if err != nil {
		return err
	}
	r, sp := b.res, b.spans

	// audit: the request-body scanner auditd runs, and the batch decoder
	// purposectl runs.
	var scan, decode timed
	sc := audit.NewEntryScanner(bytes.NewReader(nil), audit.DecodeOptions{Lenient: true})
	for _, body := range bodies {
		d, err := sp.layer("audit.EntryScanner.Scan", nil, func() error {
			sc.Reset(bytes.NewReader(body))
			for sc.Scan() {
			}
			return sc.Err()
		})
		if err != nil {
			return err
		}
		scan.add(d)
		d, err = sp.layer("audit.DecodeJSONLEntries", nil, func() error {
			_, _, err := audit.DecodeJSONLEntries(bytes.NewReader(body), audit.DecodeOptions{})
			return err
		})
		if err != nil {
			return err
		}
		decode.add(d)
	}
	r.set("audit.scan_ns_per_entry", scan.nsPer(n), "ns")
	r.set("audit.decode_ns_per_entry", decode.nsPer(n), "ns")

	if err := b.driveWAL(li, parts); err != nil {
		return err
	}
	violating, err := b.driveCore(li, parts)
	if err != nil {
		return err
	}
	if err := b.driveLedger(li, parts, violating); err != nil {
		return err
	}

	// encode: loading the purposes from their BPMN files.
	var loads []float64
	for i := 0; i < 5; i++ {
		d, err := sp.layer("cli.LoadProcs", nil, func() error {
			return cli.LoadProcs(core.NewRegistry(), li.procSpecs)
		})
		if err != nil {
			return err
		}
		loads = append(loads, ms(d))
	}
	r.set("encode.process_ms", median(loads), "ms")

	return b.driveServer(li, parts)
}

func (b *bench) driveWAL(li *layerInput, parts [][]audit.Entry) error {
	r, sp := b.res, b.spans
	n := len(li.entries)
	log, err := wal.Open(filepath.Join(b.dir, "layer-wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	var app timed
	for _, p := range parts {
		d, err := sp.layer("wal.Log.Append", nil, func() error {
			_, _, err := log.Append(p)
			return err
		})
		if err != nil {
			return err
		}
		app.add(d)
	}
	appended, _, _, size := log.Stats()
	r.set("wal.append_ns_per_entry", app.nsPer(n), "ns")
	r.set("wal.bytes_per_entry", float64(size)/float64(appended), "B")

	replayLog, from, want := log, uint64(1), n
	if li.tail != nil {
		// Replay a copy: Open repairs torn tails in place.
		dir := filepath.Join(b.dir, "layer-tail")
		if err := copyTree(filepath.Join(li.tail.dir, "wal"), dir); err != nil {
			return err
		}
		if replayLog, err = wal.Open(dir, wal.Options{}); err != nil {
			return err
		}
		defer replayLog.Close()
		from, want = li.tail.from, li.tail.n
	}
	got := 0
	d, err := sp.layer("wal.Log.Replay", nil, func() error {
		return replayLog.Replay(from, func(uint64, audit.Entry) error { got++; return nil })
	})
	if err != nil {
		return err
	}
	r.check(got == want, "WAL replay returned %d records, want %d", got, want)
	r.set("wal.replay_ns_per_entry", float64(d.Nanoseconds())/float64(max(got, 1)), "ns")
	return nil
}

// driveCore compiles the purposes, feeds the compiled monitor, and
// audits the trail on the interpreter cold, warm and observed. It
// returns the two newest violating cases (by last entry), the ones an
// auditor's first investigation looks at.
func (b *bench) driveCore(li *layerInput, parts [][]audit.Entry) ([]string, error) {
	r, sp := b.res, b.spans
	n := len(li.entries)
	cc := core.NewChecker(li.reg, li.roles)
	cc.UseCompiled = true
	compileMS, states := 0.0, 0
	for _, name := range li.reg.Purposes() {
		var dfaStates int
		d, err := sp.layer("core.Checker.EnsureCompiled", map[string]string{"purpose": name}, func() error {
			dfa, err := cc.EnsureCompiled(name)
			if err == nil {
				dfaStates = len(dfa.States)
			}
			return nil // a purpose that does not compile stays interpreted
		})
		if err != nil {
			return nil, err
		}
		compileMS += ms(d)
		states += dfaStates
	}
	r.set("automaton.compile_ms", compileMS, "ms")
	r.set("automaton.states", float64(states), "count")

	m := core.NewMonitor(cc)
	var feed timed
	// Verdicts are kept and tallied after the timed calls, so the feed
	// row carries no bookkeeping of the benchmark's own.
	verdicts := make([]*core.Verdict, 0, n)
	for _, p := range parts {
		d, err := sp.layer("core.Monitor.Feed", nil, func() error {
			for _, e := range p {
				v, err := m.Feed(e)
				if err != nil {
					return err
				}
				verdicts = append(verdicts, v)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		feed.add(d)
	}
	fallback := map[string]bool{}
	violation := map[string]bool{}
	last := map[string]int{}
	for i, v := range verdicts {
		last[v.Case] = i
		if v.Engine == core.EngineInterpreted {
			fallback[v.Case] = true
		}
		if v.Violation != nil {
			violation[v.Case] = true
		}
	}
	hits, misses := m.SymbolCacheStats()
	r.set("core.feed_ns_per_entry", feed.nsPer(n), "ns")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	r.set("core.symbol_cache_hit_ratio", ratio, "ratio")
	r.set("core.fallback_cases", float64(len(fallback)), "count")

	stateMon := m
	if len(li.stateEntries) != n {
		stateMon = core.NewMonitor(cc)
		for _, e := range li.stateEntries {
			if _, err := stateMon.Feed(e); err != nil {
				return nil, err
			}
		}
	}
	d, err := sp.layer("core.Monitor.State+LoadState", nil, func() error {
		return core.NewMonitor(cc).LoadState(stateMon.State())
	})
	if err != nil {
		return nil, err
	}
	r.set("core.load_state_s", d.Seconds(), "s")

	trail := audit.NewTrail(li.entries)
	ic := core.NewChecker(li.reg, li.roles)
	var before runtimeSample
	if li.runtimeFromAudit {
		before = readRuntime()
	}
	cold, err := sp.layer("core.Checker.CheckTrailParallel", map[string]string{"cache": "cold"}, func() error {
		_, err := ic.CheckTrailParallel(trail, runtime.NumCPU())
		return err
	})
	if err != nil {
		return nil, err
	}
	if li.runtimeFromAudit {
		b.setRuntimeRows(before, readRuntime(), n)
	}
	warm, err := sp.layer("core.Checker.CheckTrailParallel", map[string]string{"cache": "warm"}, func() error {
		_, err := ic.CheckTrailParallel(trail, runtime.NumCPU())
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("core.check_ns_per_entry", float64(cold.Nanoseconds())/float64(n), "ns")
	r.set("core.warm_check_ns_per_entry", float64(warm.Nanoseconds())/float64(n), "ns")
	oc := &observerCounts{}
	ic.Observer = oc
	if _, err := sp.layer("core.Checker.CheckTrail", map[string]string{"observer": "counts"}, func() error {
		_, err := ic.CheckTrail(trail)
		return err
	}); err != nil {
		return nil, err
	}
	ic.Observer = nil
	acc := float64(max(oc.accepted, 1))
	r.set("core.configs_per_entry", float64(oc.configs)/acc, "count")
	r.set("core.candidates_per_entry", float64(oc.candidates)/acc, "count")
	r.set("core.absorbed_ratio", float64(oc.absorbed)/acc, "ratio")

	var cases []string
	for c := range violation {
		cases = append(cases, c)
	}
	sort.Slice(cases, func(i, j int) bool { return last[cases[i]] > last[cases[j]] })
	if len(cases) > 2 {
		cases = cases[:2]
	}
	return cases, nil
}

// driveLedger seals the entries as auditd does (Append per request
// chunk, then Cut), proves and verifies the investigated cases, and
// round-trips the restart state.
func (b *bench) driveLedger(li *layerInput, parts [][]audit.Entry, cases []string) error {
	r, sp := b.res, b.spans
	n := len(li.entries)
	key := benchKey(b.cfg.seed)
	pub := key.Public().(ed25519.PublicKey)
	l, err := ledger.New(ledger.Options{Key: key, Batch: ledger.DefaultBatch})
	if err != nil {
		return err
	}
	defer l.Close()
	var app timed
	lsn := uint64(1)
	for _, p := range parts {
		first := lsn
		d, err := sp.layer("ledger.Ledger.Append+Cut", nil, func() error {
			if err := l.Append(p, first); err != nil {
				return err
			}
			l.Cut()
			return nil
		})
		if err != nil {
			return err
		}
		app.add(d)
		lsn += uint64(len(p))
	}
	r.set("ledger.append_ns_per_entry", app.nsPer(n), "ns")

	r.check(len(cases) > 0, "no violating case to prove")
	var prove, verify, roots []float64
	for _, c := range cases {
		for rep := 0; rep < 3; rep++ {
			var proof *ledger.CaseProof
			d, err := sp.layer("ledger.ProveCase", map[string]string{"case": c}, func() error {
				var err error
				proof, err = l.ProveCase(c)
				return err
			})
			if err != nil {
				return err
			}
			prove = append(prove, ms(d))
			roots = append(roots, float64(len(proof.Roots)))
			var verr error
			d, _ = sp.layer("ledger.VerifyCaseProof", map[string]string{"case": c}, func() error {
				verr = ledger.VerifyCaseProof(pub, proof)
				return verr
			})
			r.check(verr == nil, "in-process proof of case %s: %v", c, verr)
			verify = append(verify, ms(d))
		}
	}
	r.set("ledger.prove_ms", median(prove), "ms")
	r.set("ledger.proof_roots", median(roots), "count")
	r.set("ledger.verify_ms", median(verify), "ms")

	stateLedger := l
	if len(li.stateEntries) != n {
		if stateLedger, err = ledger.New(ledger.Options{Key: key, Batch: ledger.DefaultBatch}); err != nil {
			return err
		}
		defer stateLedger.Close()
		for lo := 0; lo < len(li.stateEntries); lo += b.sz.chunk {
			hi := min(lo+b.sz.chunk, len(li.stateEntries))
			if err := stateLedger.Append(li.stateEntries[lo:hi], uint64(lo+1)); err != nil {
				return err
			}
		}
		stateLedger.Cut()
	}
	d, err := sp.layer("ledger.ExportState+LoadState", nil, func() error {
		st, err := stateLedger.ExportState()
		if err != nil {
			return err
		}
		fresh, err := ledger.New(ledger.Options{Key: key, Batch: ledger.DefaultBatch})
		if err != nil {
			return err
		}
		defer fresh.Close()
		return fresh.LoadState(st)
	})
	if err != nil {
		return err
	}
	r.set("ledger.load_state_s", d.Seconds(), "s")
	return nil
}

// driveServer runs the in-process pipeline auditd serves: the request
// chunks through Server.IngestEntries, then Server.Flush (the ?wait=1
// barrier), with the WAL and the ledger on.
func (b *bench) driveServer(li *layerInput, parts [][]audit.Entry) error {
	r, sp := b.res, b.spans
	n := len(li.entries)
	cc := core.NewChecker(li.reg, li.roles)
	cc.UseCompiled = true
	for _, name := range li.reg.Purposes() {
		cc.EnsureCompiled(name) // a purpose that does not compile stays interpreted
	}
	srv := server.New(li.reg, cc, server.Config{
		WALDir:      filepath.Join(b.dir, "layer-server-wal"),
		LedgerKey:   benchKey(b.cfg.seed),
		LedgerBatch: ledger.DefaultBatch,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err := srv.Start(); err != nil {
		return err
	}
	before := readRuntime()
	var ingest, flush timed
	for _, p := range parts {
		d, err := sp.layer("server.Server.IngestEntries", nil, func() error {
			if got, ok := srv.IngestEntries(p); !ok {
				return fmt.Errorf("in-process ingest refused after %d of %d entries", got, len(p))
			}
			return nil
		})
		if err != nil {
			srv.Shutdown(context.Background())
			return err
		}
		ingest.add(d)
		d, _ = sp.layer("server.Server.Flush", nil, func() error { srv.Flush(); return nil })
		flush.add(d)
	}
	if !li.runtimeFromAudit {
		b.setRuntimeRows(before, readRuntime(), n)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}
	r.set("server.ingest_ns_per_entry", ingest.nsPer(n), "ns")
	r.set("server.flush_ns_per_entry", flush.nsPer(n), "ns")
	return nil
}
