// Command perfbench is the repository benchmark. It runs one workload
// per invocation and prints, as the last line of standard output, one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench -auditd PATH -workload durable-ingest -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// no tracing anywhere. With -trace 1 the run repeats the workload with
// tracing on, drives every layer directly over the workload's own
// inputs, and prints the per-layer metrics instead. run.sh builds
// auditd and this program from the checkout and supplies -auditd and
// -work; README.md explains the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// workloads maps a workload name to its untraced and traced runs.
var workloads = map[string]struct {
	plain  func(*bench) error
	traced func(*bench) error
}{
	"durable-ingest":  {runDurableIngest, traceDurableIngest},
	"auditor-queries": {runAuditorQueries, traceAuditorQueries},
	"wide-audit":      {runWideAudit, traceWideAudit},
}

// errIncorrect marks a run whose correctness checks failed: the result
// is still printed (correct=false) and the exit status is 1.
var errIncorrect = errors.New("correctness check failed")

func main() {
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: binding to one CPU:", err)
		os.Exit(2)
	}
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: durable-ingest, auditor-queries or wide-audit")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds (sets how many passes run)")
	flag.IntVar(&cfg.trace, "trace", 0, "0 = end-to-end metrics, untraced; 1 = traced run with per-layer metrics")
	flag.StringVar(&cfg.auditd, "auditd", "", "path to the built auditd binary")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for daemon state, inputs and spans")
	wideWorker := flag.String("wide-worker", "", "internal: run the wide-audit passes described by this job file")
	flag.Parse()

	if *wideWorker != "" {
		if err := wideWorkerMain(*wideWorker); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench wide-worker:", err)
			os.Exit(2)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, merr := json.Marshal(res.wire())
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", merr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// pinnedEnv is set once the benchmark runs bound to one CPU; its value
// is "<cpu>/<cpus the benchmark was allowed before>".
const pinnedEnv = "PERFBENCH_PINNED"

// pinToOneCPU re-executes the benchmark bound to the highest-numbered
// CPU it may use, so the benchmark, auditd and the wide-audit workers
// (which inherit the binding) run on one CPU and only one CPU is busy
// at a time. The hosts this benchmark was built on multiplex a guest's
// two vCPUs onto one physical CPU for minutes at a time: then two busy
// vCPUs each run at half speed, CPU time included, and no steal is
// reported, while one busy vCPU runs at full speed.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	// The binding is per thread and execve keeps the calling thread's,
	// so the thread that binds must be the one that execs.
	runtime.LockOSThread()
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	cpu, allowed := -1, 0
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			allowed++
		}
	}
	if cpu < 0 {
		return fmt.Errorf("no CPU in the affinity mask")
	}
	var one [16]uint64
	one[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
		return e
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), pinnedEnv+"="+strconv.Itoa(cpu)+"/"+strconv.Itoa(allowed))
	return syscall.Exec(self, os.Args, env)
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	auditd   string
	work     string
	// size picks the input scale: "" or "full", or "tiny" for the
	// smoke test, which sets it directly.
	size string
}

// run executes one workload and returns its result. A non-nil result
// comes back with errIncorrect; any other error means no result.
func run(ctx context.Context, cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want durable-ingest, auditor-queries or wide-audit)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.size == "" {
		cfg.size = "full"
	}
	sz, ok := scales[cfg.size]
	if !ok {
		return nil, fmt.Errorf("unknown input scale %q (want full or tiny)", cfg.size)
	}
	if cfg.workload != "wide-audit" || cfg.trace == 1 {
		if st, err := os.Stat(cfg.auditd); err != nil || st.IsDir() {
			return nil, fmt.Errorf("auditd binary %q not found (build it with go build ./cmd/auditd, or use run.sh)", cfg.auditd)
		}
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{ctx: ctx, cfg: cfg, sz: sz, dir: dir, res: newResult()}
	b.stamp = newStamp(cfg, dir)
	defer b.stopDaemons()
	if cfg.trace == 1 {
		b.spans = newSpanLog()
		err = w.traced(b)
	} else {
		err = w.plain(b)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range b.res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	b.stamp.print(os.Stdout)
	if cfg.trace == 1 {
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if werr := b.spans.write(path, b.stamp); werr != nil {
			return nil, werr
		}
		fmt.Printf("spans: %d written to %s\n", b.spans.len(), path)
	}
	if len(b.res.problems) > 0 {
		return b.res, fmt.Errorf("%w: %s", errIncorrect, b.res.problems[0])
	}
	return b.res, nil
}

// bench is the state of one run.
type bench struct {
	ctx   context.Context
	cfg   config
	sz    scale
	dir   string // per-run scratch directory, removed at exit
	res   *result
	stamp *stamp
	spans *spanLog // nil on untraced runs
	// track ticks between the untraced runs' measurements; nil on
	// traced runs (calibrate.go)
	track   *speedTrack
	daemons []*daemon
	dirs    int // state directories made so far
	// purposeArgs replaces hospitalPurposes when set.
	purposeArgs []string
}

// deadline is the end of a timed phase that starts now.
func (b *bench) deadline() time.Time {
	return time.Now().Add(time.Duration(b.cfg.seconds) * time.Second)
}

func (b *bench) stopDaemons() {
	for _, d := range b.daemons {
		d.kill()
	}
	b.daemons = nil
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates a run's outcome.
type result struct {
	attempted int64
	failed    int64
	metrics   map[string]metric
	problems  []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

// set records a metric; a name set twice is a bug in the benchmark. A
// value that could not be measured (no samples) fails the run's
// checks and is reported as 0.
func (r *result) set(name string, value float64, unit string) {
	if _, dup := r.metrics[name]; dup {
		panic("metric set twice: " + name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.check(false, "metric %s has no samples", name)
		value = 0
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// check records a failed correctness check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation, failed unless ok.
func (r *result) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *result) wire() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics}
}
