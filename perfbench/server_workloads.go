package main

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs"
)

// writer posts NDJSON bodies with ?wait=1 over one keep-alive
// connection, so each acknowledgement means ingested and applied.
type writer struct {
	c    *http.Client
	base string
	// pid is the daemon whose CPU clock is read around each POST; 0
	// reads none. track ticks before every tickEvery-th POST.
	pid   int
	track *speedTrack
	// lat holds one latency per POST in milliseconds, cpu the daemon
	// CPU time each POST took, in milliseconds, as read, and ticks the
	// tick each POST followed.
	lat, cpu []float64
	ticks    []int
	// entries is the number of entries acknowledged.
	entries int
	// spans, when set, gives each POST a client span whose traceparent
	// the daemon joins.
	spans *spanLog
}

func (w *writer) post(ctx context.Context, res *result, body []byte, lines int) error {
	var header map[string]string
	var sp *obs.ActiveSpan
	if w.spans != nil {
		sp = w.spans.tracer.StartSpan(w.spans.root.Context(), "client.post")
		sp.SetAttr("lines", strconv.Itoa(lines))
		header = map[string]string{"traceparent": sp.Context().Traceparent()}
	}
	if w.pid != 0 && len(w.lat)%tickEvery == 0 {
		if err := w.track.tick(); err != nil {
			return err
		}
	}
	c0, err := daemonCPU(w.pid)
	if err != nil {
		return err
	}
	r, err := do(ctx, w.c, http.MethodPost, w.base+"/v1/events?wait=1", body, header)
	sp.End()
	if err != nil {
		return fmt.Errorf("POST /v1/events: %w", err)
	}
	c1, err := daemonCPU(w.pid)
	if err != nil {
		return err
	}
	ok := r.ok()
	if ok {
		var ack struct {
			Accepted    int `json:"accepted"`
			Quarantined int `json:"quarantined"`
		}
		ok = json.Unmarshal(r.body, &ack) == nil && ack.Accepted == lines && ack.Quarantined == 0
	}
	res.op(ok)
	res.check(ok, "POST /v1/events answered %d: %.200s", r.status, r.body)
	w.lat = append(w.lat, ms(r.dur))
	if w.pid != 0 {
		w.cpu = append(w.cpu, ms(c1-c0))
		w.ticks = append(w.ticks, w.track.last())
	}
	if ok {
		w.entries += lines
	}
	return nil
}

// tickEvery is how many POSTs a writer sends between ticks: about
// 20 ms of daemon CPU at the reference speed, against 1 ms for a tick.
const tickEvery = 16

// daemonCPU reads the CPU clock of process pid, or returns 0 when pid
// is 0.
func daemonCPU(pid int) (time.Duration, error) {
	if pid == 0 {
		return 0, nil
	}
	return processCPU(pid)
}

// auditor runs investigations over a keep-alive connection: the
// violating-case listing, then the explanation and the proof bundle of
// two violating cases, then the signed roots since the last ones it
// saw. Every proof and the root chain are verified against the
// daemon's ledger public key.
type auditor struct {
	c    *http.Client
	base string
	pub  ed25519.PublicKey
	last *ledger.SignedRoot // newest root verified so far
	// pid is the daemon whose CPU clock is read, 0 for none; track
	// ticks before and after each investigation.
	pid   int
	track *speedTrack

	// lat is each investigation's latency in ms: the sum of its HTTP
	// round trips. The writer waits for it, so nothing queues ahead of
	// it; the auditor's own decoding and proof verification (the
	// regulator's cost, ledger.verify_ms) are not counted.
	lat []float64
	// cpu is the daemon CPU time of each investigation in ms, from
	// before its first request to after its last, as read, and ticks
	// the tick each one followed.
	cpu   []float64
	ticks []int
	// proofBytes is the summed size of the proof bundles each
	// investigation fetched: what the auditor downloads per question.
	proofBytes []float64
	// per-call latencies, ms (per-layer server rows)
	casesLat, explainLat, proofLat, rootsLat []float64
	spans                                    *spanLog
	// proofs holds every distinct proof bundle fetched, by SHA-256.
	// verifyProofs checks each once, after the timed phase; under the
	// run's one ledger key a later pass fetches the same bytes.
	proofs map[[sha256.Size]byte]*fetchedProof
}

// fetchedProof is a proof bundle and the case it was fetched for.
type fetchedProof struct {
	caseID   string
	body     []byte
	verified bool
}

// caseView is the part of a /v1/cases row the auditor reads.
type caseView struct {
	Case    string `json:"case"`
	Outcome string `json:"outcome"`
	WalLSN  uint64 `json:"wal_lsn"`
}

func (a *auditor) get(ctx context.Context, res *result, name, path string, into *[]float64, spent *time.Duration) (httpResult, error) {
	var sp *obs.ActiveSpan
	if a.spans != nil {
		sp = a.spans.tracer.StartSpan(a.spans.root.Context(), name)
		sp.SetAttr("path", path)
	}
	r, err := do(ctx, a.c, http.MethodGet, a.base+path, nil, nil)
	sp.End()
	if err != nil {
		return r, fmt.Errorf("GET %s: %w", path, err)
	}
	res.op(r.ok())
	res.check(r.ok(), "GET %s answered %d: %.200s", path, r.status, r.body)
	*into = append(*into, ms(r.dur))
	*spent += r.dur
	return r, nil
}

// investigate runs one investigation. It examines two consecutive
// violating cases in newest-first (highest WAL LSN) order, starting at
// the first whose last entry lies at or below fraction 1-at of the
// newest one's LSN: at=0 is the two newest.
func (a *auditor) investigate(ctx context.Context, res *result, at float64) error {
	var spent time.Duration
	if a.pid != 0 {
		if err := a.track.tick(); err != nil {
			return err
		}
	}
	c0, err := daemonCPU(a.pid)
	if err != nil {
		return err
	}
	r, err := a.get(ctx, res, "client.cases_list", "/v1/cases?outcome=violation", &a.casesLat, &spent)
	if err != nil {
		return err
	}
	var list struct {
		Cases []caseView `json:"cases"`
	}
	if r.ok() {
		if err := json.Unmarshal(r.body, &list); err != nil {
			res.check(false, "decoding /v1/cases: %v", err)
		}
	}
	sort.Slice(list.Cases, func(i, j int) bool { return list.Cases[i].WalLSN > list.Cases[j].WalLSN })
	if at > 0 && len(list.Cases) > 0 {
		target := uint64((1 - at) * float64(list.Cases[0].WalLSN))
		start := 0
		for start < len(list.Cases)-2 && list.Cases[start].WalLSN > target {
			start++
		}
		list.Cases = list.Cases[start:]
	}
	if len(list.Cases) > 2 {
		list.Cases = list.Cases[:2]
	}
	res.check(len(list.Cases) > 0, "investigation found no violating case")
	proofBytes := 0
	for _, cv := range list.Cases {
		r, err := a.get(ctx, res, "client.explain", "/v1/cases/"+cv.Case+"/explain", &a.explainLat, &spent)
		if err != nil {
			return err
		}
		if r.ok() {
			var ex struct {
				Outcome     string          `json:"outcome"`
				Explanation json.RawMessage `json:"explanation"`
			}
			err := json.Unmarshal(r.body, &ex)
			res.check(err == nil && ex.Outcome == "violation" && len(ex.Explanation) > 0 && string(ex.Explanation) != "null",
				"explanation of violating case %s is missing or malformed", cv.Case)
		}
		r, err = a.get(ctx, res, "client.proof", "/v1/proofs/"+cv.Case, &a.proofLat, &spent)
		if err != nil {
			return err
		}
		if r.ok() {
			proofBytes += len(r.body)
			sum := sha256.Sum256(r.body)
			if a.proofs == nil {
				a.proofs = map[[sha256.Size]byte]*fetchedProof{}
			}
			if a.proofs[sum] == nil {
				a.proofs[sum] = &fetchedProof{caseID: cv.Case, body: r.body}
			}
		}
	}
	var since uint64
	if a.last != nil {
		since = a.last.Seq
	}
	r, err = a.get(ctx, res, "client.roots", "/v1/roots?since="+strconv.FormatUint(since, 10), &a.rootsLat, &spent)
	if err != nil {
		return err
	}
	c1, err := daemonCPU(a.pid)
	if err != nil {
		return err
	}
	if a.pid != 0 {
		a.cpu = append(a.cpu, ms(c1-c0))
		a.ticks = append(a.ticks, a.track.last())
		if err := a.track.tick(); err != nil {
			return err
		}
	}
	if r.ok() {
		var rr struct {
			Roots []ledger.SignedRoot `json:"roots"`
		}
		if err := json.Unmarshal(r.body, &rr); err != nil {
			res.check(false, "decoding /v1/roots: %v", err)
		} else if len(rr.Roots) > 0 {
			chain := rr.Roots
			if a.last != nil {
				chain = append([]ledger.SignedRoot{*a.last}, rr.Roots...)
			}
			err := ledger.VerifyRoots(a.pub, chain)
			res.check(err == nil, "/v1/roots?since=%d: %v", since, err)
			last := rr.Roots[len(rr.Roots)-1]
			a.last = &last
		}
	}
	a.lat = append(a.lat, ms(spent))
	a.proofBytes = append(a.proofBytes, float64(proofBytes))
	return nil
}

// verifyProofs checks every proof bundle fetched since the last call
// against the daemon's ledger key.
func (a *auditor) verifyProofs(res *result) {
	for _, p := range a.proofs {
		if !p.verified {
			err := verifyProofBundle(a.pub, p.caseID, p.body)
			res.check(err == nil, "proof bundle of case %s: %v", p.caseID, err)
			p.verified, p.body = true, nil
		}
	}
}

// verifyProofBundle checks a /v1/proofs/{case} body: it names the case,
// reports a violation, and its proof verifies against pub.
func verifyProofBundle(pub ed25519.PublicKey, caseID string, body []byte) error {
	var b struct {
		Case    string            `json:"case"`
		Outcome string            `json:"outcome"`
		Proof   *ledger.CaseProof `json:"proof"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("undecodable: %w", err)
	}
	if b.Case != caseID || b.Proof == nil || b.Proof.Case != caseID {
		return fmt.Errorf("bundle is not for case %s", caseID)
	}
	if b.Outcome != "violation" {
		return fmt.Errorf("outcome %q, want violation", b.Outcome)
	}
	return ledger.VerifyCaseProof(pub, b.Proof)
}

// checkCaseCounts compares per-outcome case counts from /v1/cases with
// the offline checker's.
func checkCaseCounts(ctx context.Context, res *result, c *http.Client, base string, want map[string]int) error {
	r, err := do(ctx, c, http.MethodGet, base+"/v1/cases", nil, nil)
	if err != nil {
		return err
	}
	res.op(r.ok())
	if !r.ok() {
		res.check(false, "GET /v1/cases answered %d", r.status)
		return nil
	}
	var list struct {
		Cases []caseView `json:"cases"`
	}
	if err := json.Unmarshal(r.body, &list); err != nil {
		res.check(false, "decoding /v1/cases: %v", err)
		return nil
	}
	got := map[string]int{}
	for _, v := range list.Cases {
		got[v.Outcome]++
	}
	for _, o := range []string{"compliant", "violation", "indeterminate"} {
		res.check(got[o] == want[o], "%s cases: auditd has %d, offline Checker.CheckTrail has %d", o, got[o], want[o])
	}
	res.check(want["violation"] > 0, "input has no violating case")
	return nil
}

// daemonDir makes a fresh state directory for one auditd boot.
func (b *bench) daemonDir(name string) (string, error) {
	b.dirs++
	dir := filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, b.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// passes runs fn until the timed budget is spent, and at least min
// times. Every pass does identical work, so the medians over passes
// compare across commits whatever their speed. Each pass starts from a
// collected heap, so the benchmark's own garbage collector does not
// compete with the program under test for the CPU during the pass.
func (b *bench) passes(min int, fn func(i int) error) error {
	warmUp()
	end := b.deadline()
	for i := 0; i < min || time.Now().Before(end); i++ {
		if err := b.ctx.Err(); err != nil {
			return err
		}
		runtime.GC()
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// warmUp keeps every CPU busy for a second before timing starts. On a
// VM, a vCPU left idle while the inputs were generated runs at about
// half speed for its first second of load; without this the first pass
// of a run was the slowest one.
func warmUp() {
	var wg sync.WaitGroup
	end := time.Now().Add(time.Second)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
			}
		}()
	}
	wg.Wait()
}

// serverStats collects the per-pass figures of a server workload. The
// CPU times are scaled to the reference speed (calibrate.go); on traced
// runs, which do not tick, they are as read.
type serverStats struct {
	setup       []float64 // every timed boot: daemon CPU time, s
	bootWall    []float64 // every timed boot: wall time, s
	boots       []boot    // boots of the pass under way, not yet scaled
	rss         []float64 // per pass: daemon VmHWM, MiB
	perEntry    []float64 // per pass: daemon CPU time of the POSTs per acknowledged entry, ns
	rawPerEntry []float64 // per pass: the same, as read
	postCPU     []float64 // every POST: daemon CPU time, ms
	postLat     []float64 // every POST: wall time, ms
	queryCPU    []float64 // per pass: mean daemon CPU time of its investigations, ms
	queried     int       // investigations folded into queryCPU so far
	a           *auditor  // accumulates over passes
	passes      int
}

// nsPerEntry is the median over passes of the daemon CPU time the
// pass's POSTs took per acknowledged entry, as read: ingest to applied,
// every POST counted, its slow ones included.
func (st *serverStats) nsPerEntry() float64 { return median(st.rawPerEntry) }

func (st *serverStats) report(res *result) {
	st.a.verifyProofs(res)
	res.set("cpu_ns_per_entry", median(st.perEntry), "ns")
	res.set("ingest_cpu_ms", median(st.postCPU), "ms")
	res.set("query_cpu_ms", median(st.queryCPU), "ms")
	res.set("proof_kb", mean(st.a.proofBytes)/1024, "KiB")
	res.set("setup_s", median(st.setup), "s")
	res.set("peak_rss_mb", mean(st.rss), "MiB")
}

func newDurableInput(b *bench) (*streamInput, [][]byte, error) {
	in, err := newHospitalInput(b.cfg.seed, b.sz.dayOpens, b.sz.ingestDays*b.sz.dayOpens)
	if err != nil {
		return nil, nil, err
	}
	bodies, _, err := chunks(in.entries, b.sz.chunk)
	if err != nil {
		return nil, nil, err
	}
	b.stamp.Input["entries"] = len(in.entries)
	b.stamp.Input["cases"] = in.cases
	b.stamp.Input["injected_cases"] = len(in.injected)
	b.stamp.Input["days"] = in.days
	b.stamp.Input["day_opens"] = b.sz.dayOpens
	b.stamp.Input["lines_per_post"] = b.sz.chunk
	b.stamp.Input["investigations_per_pass"] = b.sz.postIngestQs
	return in, bodies, nil
}

// durableIngestPass boots auditd, posts every body on one keep-alive
// connection, investigates the closed day over the same connection,
// checks the verdict counts and kills the daemon.
func (b *bench) durableIngestPass(st *serverStats, in *streamInput, bodies [][]byte, spans *spanLog, extra ...string) (*daemon, error) {
	dir, err := b.daemonDir("ingest")
	if err != nil {
		return nil, err
	}
	d, bt, err := b.startDaemon(dir, b.auditdArgs(dir, extra...))
	if err != nil {
		return nil, err
	}
	w := &writer{c: newClient(), base: d.base, pid: d.cmd.Process.Pid, track: b.track, spans: spans}
	defer w.c.CloseIdleConnections()
	for _, body := range bodies {
		if err := w.post(b.ctx, b.res, body, countLines(body)); err != nil {
			return nil, err
		}
	}
	pub, err := b.publicKey()
	if err != nil {
		return nil, err
	}
	if st.a == nil {
		st.a = &auditor{spans: spans}
	}
	st.a.c, st.a.base, st.a.pub, st.a.last, st.a.pid, st.a.track = w.c, d.base, pub, nil, w.pid, b.track
	// The auditor then reviews the closed day's violations two at a
	// time at evenly spaced points of the ledger, from the newest entry
	// back. A proof carries every root from the case's first batch to
	// the head, so picking cases by ledger position rather than by rank
	// makes the bundle size, and the query's cost, a property of the
	// day's length rather than of the seed's case lengths.
	for i := 0; i < b.sz.postIngestQs; i++ {
		if err := st.a.investigate(b.ctx, b.res, float64(i)/float64(b.sz.postIngestQs)); err != nil {
			return nil, err
		}
	}
	if err := checkCaseCounts(b.ctx, b.res, w.c, d.base, in.expected); err != nil {
		return nil, err
	}
	b.res.check(w.entries == len(in.entries), "acknowledged %d of %d entries", w.entries, len(in.entries))
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := st.record(w, bt, rss); err != nil {
		return nil, err
	}
	return d, nil
}

// record ticks once more, which closes the pass's last measurement,
// scales and keeps the pass's figures, and logs them to standard error.
func (st *serverStats) record(w *writer, bt boot, rss float64) error {
	tr := w.track
	if err := tr.tick(); err != nil {
		return err
	}
	st.boots = append(st.boots, bt)
	for _, b := range st.boots {
		st.setup = append(st.setup, b.cpu.Seconds()*tr.scale(b.tick))
		st.bootWall = append(st.bootWall, b.wall.Seconds())
	}
	st.boots = nil
	var raw, scaled float64
	for i, c := range w.cpu {
		x := c * tr.scale(w.ticks[i])
		st.postCPU = append(st.postCPU, x)
		raw += c
		scaled += x
	}
	st.perEntry = append(st.perEntry, scaled*1e6/float64(w.entries))
	st.rawPerEntry = append(st.rawPerEntry, raw*1e6/float64(w.entries))
	st.postLat = append(st.postLat, w.lat...)
	st.rss = append(st.rss, rss)
	// The pass's investigations are the ones since the previous pass.
	// They look at cases at different depths of the ledger, so their
	// cost varies by position; the mean over a pass does not.
	a := st.a
	query := 0.0
	for i := st.queried; i < len(a.cpu); i++ {
		query += a.cpu[i] * tr.scale(a.ticks[i])
	}
	query /= float64(len(a.cpu) - st.queried)
	st.queried = len(a.cpu)
	st.queryCPU = append(st.queryCPU, query)
	st.passes++
	fmt.Fprintf(os.Stderr, "pass %d: %.0f CPU ns/entry (%.0f as read), investigation CPU %.3f ms, POST wall p50 %.3f p99 %.3f ms, boot wall %.3f s, peak RSS %.1f MiB, host speed %.3f\n",
		st.passes, st.perEntry[len(st.perEntry)-1], st.rawPerEntry[len(st.rawPerEntry)-1], query,
		median(w.lat), quantile(w.lat, 0.99), bt.wall.Seconds(), rss, tr.speed())
	return nil
}

func countLines(b []byte) int {
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}

// runDurableIngest: one shipper feeds hospital days as 256-line
// NDJSON bodies with ?wait=1 into auditd running the WAL (interval
// fsync) and the ledger (batch 64); the closed day is then
// investigated over the same connection. Each pass boots a fresh
// daemon, so every pass also times one cold boot.
func runDurableIngest(b *bench) error {
	in, bodies, err := newDurableInput(b)
	if err != nil {
		return err
	}
	st := &serverStats{}
	b.track = newSpeedTrack()
	err = b.passes(b.sz.minPasses, func(int) error {
		if err := b.coldBoots(st, b.sz.extraBoots); err != nil {
			return err
		}
		d, err := b.durableIngestPass(st, in, bodies, nil)
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
	b.stamp.HostSpeed = b.track.speed()
	st.report(b.res)
	return nil
}

// coldBoots boots and kills n fresh daemons and adds their boot times
// to the set-up samples. A cold boot is cheap next to a pass, and the
// extra samples steady the set-up median.
func (b *bench) coldBoots(st *serverStats, n int) error {
	for i := 0; i < n; i++ {
		dir, err := b.daemonDir("boot")
		if err != nil {
			return err
		}
		d, bt, err := b.startDaemon(dir, b.auditdArgs(dir))
		if err != nil {
			return err
		}
		d.kill()
		os.RemoveAll(dir)
		st.boots = append(st.boots, bt)
	}
	return nil
}
