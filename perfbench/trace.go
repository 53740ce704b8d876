package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"

	"repro/internal/obs"
)

// layerMetrics lists every per-layer metric a traced run prints, in
// report order. BENCHMARK.json names the same set.
var layerMetrics = []struct{ name, unit string }{
	{"audit.scan_ns_per_entry", "ns"},
	{"audit.decode_ns_per_entry", "ns"},
	{"wal.append_ns_per_entry", "ns"},
	{"wal.replay_ns_per_entry", "ns"},
	{"wal.syncs", "count"},
	{"wal.bytes_per_entry", "B"},
	{"ledger.append_ns_per_entry", "ns"},
	{"ledger.prove_ms", "ms"},
	{"ledger.proof_roots", "count"},
	{"ledger.load_state_s", "s"},
	{"ledger.verify_ms", "ms"},
	{"core.feed_ns_per_entry", "ns"},
	{"core.symbol_cache_hit_ratio", "ratio"},
	{"core.fallback_cases", "count"},
	{"core.load_state_s", "s"},
	{"core.check_ns_per_entry", "ns"},
	{"core.warm_check_ns_per_entry", "ns"},
	{"core.configs_per_entry", "count"},
	{"core.candidates_per_entry", "count"},
	{"core.absorbed_ratio", "ratio"},
	{"automaton.compile_ms", "ms"},
	{"automaton.states", "count"},
	{"encode.process_ms", "ms"},
	{"server.ingest_ns_per_entry", "ns"},
	{"server.flush_ns_per_entry", "ns"},
	{"server.post_p50_ms", "ms"},
	{"server.post_p99_ms", "ms"},
	{"server.post_samples", "count"},
	{"server.cases_list_ms", "ms"},
	{"server.explain_ms", "ms"},
	{"server.proof_ms", "ms"},
	{"server.roots_ms", "ms"},
	{"server.query_p50_ms", "ms"},
	{"server.query_p99_ms", "ms"},
	{"server.query_samples", "count"},
	{"server.boot_wall_s", "s"},
	{"server.rejected_ops", "count"},
	{"server.unattributed_ns_per_entry", "ns"},
	{"server.recovery_unattributed_s", "s"},
	{"obs.stage_decode_ns_per_entry", "ns"},
	{"obs.stage_wal_append_ns_per_entry", "ns"},
	{"obs.stage_wal_fsync_ns_per_entry", "ns"},
	{"obs.stage_queue_wait_ns_per_entry", "ns"},
	{"obs.stage_replay_ns_per_entry", "ns"},
	{"obs.stage_ledger_seal_ns_per_entry", "ns"},
	{"obs.tracing_overhead_ratio", "ratio"},
	{"runtime.alloc_bytes_per_entry", "B"},
	{"runtime.gc_cpu_share", "ratio"},
}

// endToEndMetrics lists every end-to-end metric an untraced run prints.
var endToEndMetrics = []struct{ name, unit string }{
	{"cpu_ns_per_entry", "ns"},
	{"ingest_cpu_ms", "ms"},
	{"query_cpu_ms", "ms"},
	{"proof_kb", "KiB"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// serverPass is one pass of a server workload: it boots auditd with the
// extra flags, drives it, and returns the still-running daemon.
type serverPass func(st *serverStats, spans *spanLog, extra ...string) (*daemon, error)

// tracedServer runs a server workload's passes twice over: untraced,
// then with -stage-sample 1 and a traceparent on every POST. It records
// the server.* and obs.* rows and returns the untraced figures the
// attribution rows subtract from.
func (b *bench) tracedServer(pass serverPass, passes int) (untraced *serverStats, err error) {
	warmUp()
	untraced = &serverStats{}
	for i := 0; i < passes; i++ {
		d, err := pass(untraced, nil)
		if err != nil {
			return nil, err
		}
		d.kill()
		os.RemoveAll(d.dir)
	}
	traced := &serverStats{}
	var stages map[string]float64
	for i := 0; i < passes; i++ {
		d, err := pass(traced, b.spans, "-stage-sample", "1")
		if err != nil {
			return nil, err
		}
		if i == passes-1 {
			if stages, err = stageRows(b.ctx, d.base); err != nil {
				return nil, err
			}
			if err := b.joinDaemonSpans(d.base); err != nil {
				return nil, err
			}
		}
		d.kill()
		os.RemoveAll(d.dir)
	}
	r := b.res
	untraced.a.verifyProofs(r)
	traced.a.verifyProofs(r)
	// The wall-clock rows: latency as a client sees it, which host CPU
	// steal moves by up to 2x between runs, so no end-to-end metric is
	// one of them. The p50 rows are untraced.
	r.set("server.post_p50_ms", median(untraced.postLat), "ms")
	r.set("server.post_p99_ms", quantile(traced.postLat, 0.99), "ms")
	r.set("server.post_samples", float64(len(traced.postLat)), "count")
	a := traced.a
	r.set("server.cases_list_ms", median(a.casesLat), "ms")
	r.set("server.explain_ms", median(a.explainLat), "ms")
	r.set("server.proof_ms", median(a.proofLat), "ms")
	r.set("server.roots_ms", median(a.rootsLat), "ms")
	r.set("server.query_p50_ms", median(untraced.a.lat), "ms")
	r.set("server.query_p99_ms", quantile(a.lat, 0.99), "ms")
	r.set("server.query_samples", float64(len(a.lat)), "count")
	r.set("server.boot_wall_s", median(untraced.bootWall), "s")
	for _, name := range []string{"decode", "wal_append", "wal_fsync", "queue_wait", "replay", "ledger_seal"} {
		r.set("obs.stage_"+name+"_ns_per_entry", stages[name], "ns")
	}
	r.set("wal.syncs", stages["wal_syncs"], "count")
	r.set("obs.tracing_overhead_ratio", traced.nsPerEntry()/untraced.nsPerEntry(), "ratio")
	return untraced, nil
}

// stageRows reads auditd's stage histograms (every batch sampled under
// -stage-sample 1) as ns per ingested entry, and the WAL's fsync count
// (Log.Stats as auditd exports it) under "wal_syncs".
func stageRows(ctx context.Context, base string) (map[string]float64, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	m, err := scrape(ctx, c, base)
	if err != nil {
		return nil, err
	}
	ingested := m["auditd_events_ingested_total"]
	if ingested == 0 {
		return nil, fmt.Errorf("auditd reports no ingested entries")
	}
	out := map[string]float64{"wal_syncs": m["auditd_wal_fsyncs_total"]}
	for _, st := range obs.Stages() {
		sum := m[fmt.Sprintf("auditd_stage_latency_seconds_sum{stage=%q}", st.String())]
		out[st.String()] = sum * 1e9 / ingested
	}
	return out, nil
}

// joinDaemonSpans appends the daemon's spans recorded under the run's
// trace ID (from the traceparent of each POST) to the span log.
func (b *bench) joinDaemonSpans(base string) error {
	c := newClient()
	defer c.CloseIdleConnections()
	r, err := do(b.ctx, c, http.MethodGet, base+"/v1/traces?trace_id="+b.spans.traceID().String(), nil, nil)
	if err != nil {
		return err
	}
	if !r.ok() {
		return fmt.Errorf("GET /v1/traces: %d", r.status)
	}
	var tr struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(r.body, &tr); err != nil {
		return fmt.Errorf("decoding /v1/traces: %w", err)
	}
	b.res.check(len(tr.Spans) > 0, "auditd recorded no spans under the benchmark's trace id")
	for _, s := range tr.Spans {
		if s.Attrs == nil {
			s.Attrs = map[string]string{}
		}
		s.Attrs["source"] = "auditd"
		b.spans.Record(s)
	}
	return nil
}

// finishTraced sets the attribution rows and checks that every
// per-layer metric, and nothing else, was measured.
func (b *bench) finishTraced(untraced *serverStats, tailEntries int) error {
	r := b.res
	e2e := untraced.nsPerEntry()
	parts := []string{"audit.scan_ns_per_entry", "wal.append_ns_per_entry", "ledger.append_ns_per_entry", "core.feed_ns_per_entry"}
	attributed := 0.0
	for _, p := range parts {
		attributed += r.metrics[p].Value
	}
	r.set("server.unattributed_ns_per_entry", e2e-attributed, "ns")
	setup := median(untraced.setup)
	recovery := 0.0
	if tailEntries > 0 {
		recovery = r.metrics["wal.replay_ns_per_entry"].Value*float64(tailEntries)/1e9 +
			r.metrics["ledger.load_state_s"].Value + r.metrics["core.load_state_s"].Value
	}
	r.set("server.recovery_unattributed_s", setup-recovery, "s")
	r.set("server.rejected_ops", float64(r.failed), "count")

	fmt.Println("attribution: ingest path, ns per entry (untraced end-to-end daemon CPU vs layers driven directly and auditd stage timers)")
	fmt.Printf("  %-36s %12.1f\n", "cpu_ns_per_entry (untraced)", e2e)
	for _, p := range parts {
		fmt.Printf("  %-36s %12.1f\n", p, r.metrics[p].Value)
	}
	fmt.Printf("  %-36s %12.1f\n", "server.unattributed_ns_per_entry", r.metrics["server.unattributed_ns_per_entry"].Value)
	for _, m := range layerMetrics {
		if strings.HasPrefix(m.name, "obs.stage_") {
			fmt.Printf("  %-36s %12.1f\n", m.name, r.metrics[m.name].Value)
		}
	}
	fmt.Println("attribution: boot, seconds")
	fmt.Printf("  %-36s %12.4f\n", "setup_s (untraced, daemon CPU)", setup)
	fmt.Printf("  %-36s %12.4f  (%d tail entries)\n", "wal replay of the tail", r.metrics["wal.replay_ns_per_entry"].Value*float64(tailEntries)/1e9, tailEntries)
	if tailEntries > 0 {
		fmt.Printf("  %-36s %12.4f\n", "ledger.load_state_s", r.metrics["ledger.load_state_s"].Value)
		fmt.Printf("  %-36s %12.4f\n", "core.load_state_s", r.metrics["core.load_state_s"].Value)
	}
	fmt.Printf("  %-36s %12.4f\n", "server.recovery_unattributed_s", r.metrics["server.recovery_unattributed_s"].Value)

	want := map[string]string{}
	for _, m := range layerMetrics {
		want[m.name] = m.unit
		got, ok := r.metrics[m.name]
		if !ok {
			return fmt.Errorf("traced run did not measure %s", m.name)
		}
		if got.Unit != m.unit {
			return fmt.Errorf("%s measured in %s, want %s", m.name, got.Unit, m.unit)
		}
	}
	for name := range r.metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("traced run measured unlisted metric %s", name)
		}
	}
	return nil
}

func traceDurableIngest(b *bench) error {
	in, bodies, err := newDurableInput(b)
	if err != nil {
		return err
	}
	untraced, err := b.tracedServer(func(st *serverStats, spans *spanLog, extra ...string) (*daemon, error) {
		return b.durableIngestPass(st, in, bodies, spans, extra...)
	}, b.sz.tracedPasses)
	if err != nil {
		return err
	}
	li := b.hospitalLayers(in, in.entries, in.entries, nil)
	if err := b.driveLayers(li); err != nil {
		return err
	}
	return b.finishTraced(untraced, 0)
}

func traceAuditorQueries(b *bench) error {
	ai, err := newAuditorInput(b)
	if err != nil {
		return err
	}
	if err := b.prepareRecovery(ai); err != nil {
		return err
	}
	untraced, err := b.tracedServer(func(st *serverStats, spans *spanLog, extra ...string) (*daemon, error) {
		return b.auditorPass(st, ai, spans, extra...)
	}, b.sz.tracedPasses)
	if err != nil {
		return err
	}
	n1 := b.sz.ckptEntries
	li := b.hospitalLayers(ai.in, ai.in.entries, ai.in.entries[:n1], &walTail{dir: ai.template, from: uint64(ai.tailFirst), n: ai.tailN})
	if err := b.driveLayers(li); err != nil {
		return err
	}
	return b.finishTraced(untraced, ai.tailN)
}
