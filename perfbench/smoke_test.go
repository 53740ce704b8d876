package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the wide-audit workload re-executes itself as its worker.
func TestMain(m *testing.M) {
	for i, a := range os.Args {
		if (a == "-wide-worker" || a == "--wide-worker") && i+1 < len(os.Args) {
			if err := wideWorkerMain(os.Args[i+1]); err != nil {
				os.Stderr.WriteString(err.Error() + "\n")
				os.Exit(2)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// buildAuditd builds cmd/auditd from the enclosing repository.
func buildAuditd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "auditd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/auditd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building auditd: %v\n%s", err, out)
	}
	return bin
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bf
}

// TestBenchmarkFileMatchesCode: BENCHMARK.json names exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the program %d", names, len(workloads))
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if i < len(bf.EndToEnd) && (bf.EndToEnd[i].Name != m.name || bf.EndToEnd[i].Unit != m.unit) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s, program %s/%s", i, bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if i < len(bf.PerLayer) && (bf.PerLayer[i].Name != m.name || bf.PerLayer[i].Unit != m.unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s/%s, program %s/%s", i, bf.PerLayer[i].Name, bf.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each prints every metric it names exactly once, with its
// unit, and passes its correctness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots auditd")
	}
	bin := buildAuditd(t)
	work := t.TempDir()
	for _, wl := range []string{"durable-ingest", "auditor-queries", "wide-audit"} {
		for _, trace := range []int{0, 1} {
			cfg := config{workload: wl, seed: 3, seconds: 1, trace: trace, auditd: bin, work: work, size: "tiny"}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl, trace, err)
			}
			want := endToEndMetrics
			if trace == 1 {
				want = layerMetrics
			}
			var wantNames []string
			for _, m := range want {
				wantNames = append(wantNames, m.name)
				if got := res.metrics[m.name]; got.Unit != m.unit {
					t.Errorf("%s trace=%d: %s unit %q, want %q", wl, trace, m.name, got.Unit, m.unit)
				}
			}
			sort.Strings(wantNames)
			var got []string
			for name := range res.metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(wantNames, ",") {
				t.Errorf("%s trace=%d: metrics %v, want %v", wl, trace, got, wantNames)
			}
			line, err := json.Marshal(res.wire())
			if err != nil {
				t.Fatal(err)
			}
			var wire struct {
				Correct   bool                       `json:"correct"`
				Attempted int64                      `json:"attempted"`
				Failed    int64                      `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line, &wire); err != nil {
				t.Fatal(err)
			}
			if !wire.Correct || wire.Attempted < 1 || wire.Failed != 0 || len(wire.Metrics) != len(want) {
				t.Errorf("%s trace=%d: result %s", wl, trace, line)
			}
		}
	}
}

// TestCorruptedProofFailsRun: one flipped byte in a proof bundle served
// by auditd makes the auditor's check, and so the run, fail.
func TestCorruptedProofFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots auditd")
	}
	bin := buildAuditd(t)
	dir := t.TempDir()
	cfg := config{seed: 3, auditd: bin, size: "tiny"}
	b := &bench{ctx: context.Background(), cfg: cfg, sz: scales["tiny"], dir: dir, res: newResult(), stamp: newStamp(cfg, dir)}
	defer b.stopDaemons()
	_, bodies, err := newDurableInput(b)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := b.startDaemon(dir, b.auditdArgs(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.postUntimed(d, bodies); err != nil {
		t.Fatal(err)
	}
	pub, err := b.publicKey()
	if err != nil {
		t.Fatal(err)
	}
	target, _ := url.Parse(d.base)
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = func(resp *http.Response) error {
		if !strings.HasPrefix(resp.Request.URL.Path, "/v1/proofs/") {
			return nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		// Flip one hex digit of the first Merkle root the bundle carries.
		i := bytes.Index(body, []byte(`"root": "`))
		if i < 0 {
			t.Errorf("proof bundle has no root: %.200s", body)
		} else {
			j := i + len(`"root": "`)
			if body[j] == '0' {
				body[j] = '1'
			} else {
				body[j] = '0'
			}
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return nil
	}
	srv := httptest.NewServer(proxy)
	defer srv.Close()

	check := func(base string) *result {
		res := newResult()
		a := &auditor{c: newClient(), base: base, pub: pub}
		defer a.c.CloseIdleConnections()
		if err := a.investigate(context.Background(), res, 0); err != nil {
			t.Fatal(err)
		}
		a.verifyProofs(res)
		return res
	}
	if res := check(d.base); len(res.problems) != 0 {
		t.Fatalf("untampered investigation failed: %v", res.problems)
	}
	res := check(srv.URL)
	if len(res.problems) == 0 {
		t.Fatal("a corrupted proof byte passed the correctness check")
	}
	var wire struct {
		Correct bool `json:"correct"`
	}
	line, _ := json.Marshal(res.wire())
	if err := json.Unmarshal(line, &wire); err != nil || wire.Correct {
		t.Fatalf("result with a corrupted proof reports correct: %s", line)
	}
	if !strings.Contains(strings.Join(res.problems, "\n"), "proof bundle") {
		t.Errorf("problems do not name the proof: %v", res.problems)
	}
}
