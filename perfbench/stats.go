package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// scale fixes input sizes. A pass does the same work whatever -seconds
// is; -seconds sets only how many passes a run makes.
type scale struct {
	dayOpens       int // entries per generated hospital day (paper §1: 20,000 opens)
	chunk          int // NDJSON lines per POST
	ingestDays     int // durable-ingest: at least this many days' entries posted per pass
	postIngestQs   int // durable-ingest: investigations of the closed day per pass
	extraBoots     int // durable-ingest: cold boots per pass besides the pass's own
	minPasses      int // passes run even past -seconds
	ckptEntries    int // auditor-queries: entries behind the checkpoint
	tailEntries    int // auditor-queries: entries in the WAL tail
	restEntries    int // auditor-queries: at least this many entries posted per pass
	queryEvery     int // auditor-queries: one investigation per this many acknowledged entries
	wideTasks      int // wide-audit: tasks in the generated process
	wideCases      int // wide-audit: simulated cases
	tracedPasses   int // traced runs: server passes untraced, then traced
	tracedPrefix   int // traced wide-audit: trail entries served through auditd
	directMaxInput int // traced runs: entries driven through each layer directly
}

var scales = map[string]scale{
	"full": {
		dayOpens: 20000, chunk: 256, ingestDays: 5, postIngestQs: 20, extraBoots: 2, minPasses: 3,
		ckptEntries: 40000, tailEntries: 8000, restEntries: 60000, queryEvery: 2048,
		wideTasks: 50, wideCases: 1200,
		tracedPasses: 2, tracedPrefix: 20000, directMaxInput: 200000,
	},
	"tiny": {
		dayOpens: 1500, chunk: 64, ingestDays: 2, postIngestQs: 3, extraBoots: 1, minPasses: 2,
		ckptEntries: 700, tailEntries: 200, restEntries: 1000, queryEvery: 256,
		wideTasks: 12, wideCases: 80,
		tracedPasses: 1, tracedPrefix: 5000, directMaxInput: 5000,
	},
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stamp is the environment and input record printed with every result.
type stamp struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Size     string `json:"size"`
	NProc    int    `json:"nproc"`
	// Pinned is "<cpu>/<cpus allowed before>": the one CPU the run is
	// bound to (main.go, pinToOneCPU).
	Pinned     string `json:"pinned_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	WALFS      string `json:"wal_fs_type"`
	Commit     string `json:"commit"`
	// HostSpeed is the host's median speed over the run relative to the
	// reference (calibrate.go); traced runs do not tick.
	HostSpeed float64        `json:"host_speed,omitempty"`
	Input     map[string]any `json:"input"`
}

func newStamp(cfg config, dir string) *stamp {
	return &stamp{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Size: cfg.size,
		NProc: runtime.NumCPU(), Pinned: os.Getenv(pinnedEnv), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), WALFS: fsType(dir), Commit: commitID(), Input: map[string]any{},
	}
}

func (s *stamp) print(w io.Writer) {
	b, _ := json.Marshal(s)
	fmt.Fprintf(w, "stamp: %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir (where the WAL is written).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commitID is the git commit when the checkout is a repository, and
// otherwise a digest of the Go sources and go.mod under the current
// directory, so two results name the code they measured either way.
func commitID() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// spanLog keeps the benchmark's spans in memory and writes them out as
// JSONL when the run ends. It is the obs.Recorder of the benchmark's
// own tracer; the daemon's spans fetched from /v1/traces are appended
// to it under the same trace ID.
type spanLog struct {
	mu     sync.Mutex
	spans  []obs.Span
	tracer *obs.Tracer
	root   *obs.ActiveSpan
}

func newSpanLog() *spanLog {
	l := &spanLog{}
	l.tracer = &obs.Tracer{Rec: l}
	l.root = l.tracer.StartSpan(obs.SpanContext{}, "perfbench")
	return l
}

// Record implements obs.Recorder.
func (l *spanLog) Record(s obs.Span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// traceID is the one trace every span of the run belongs to.
func (l *spanLog) traceID() obs.TraceID { return l.root.Context().TraceID }

// layer times fn as a span named after the layer call, child of the
// run's root span, and returns fn's wall time.
func (l *spanLog) layer(name string, attrs map[string]string, fn func() error) (time.Duration, error) {
	sp := l.tracer.StartSpan(l.root.Context(), name)
	for k, v := range attrs {
		sp.SetAttr(k, v)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return d, err
}

func (l *spanLog) write(path string, st *stamp) error {
	l.root.End()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	l.mu.Lock()
	spans := append([]obs.Span(nil), l.spans...)
	l.mu.Unlock()
	stampAttrs := map[string]string{}
	if b, err := json.Marshal(st); err == nil {
		stampAttrs["stamp"] = string(b)
	}
	for i := range spans {
		if spans[i].Name == "perfbench" {
			spans[i].Attrs = stampAttrs
		}
	}
	bw := bufio.NewWriter(f)
	exp := obs.NewJSONLExporter(bw)
	for _, s := range spans {
		exp.Record(s)
	}
	if err := exp.Err(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
