package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// daemon is one auditd child process.
type daemon struct {
	cmd    *exec.Cmd
	dir    string // state directory: wal/, checkpoint
	base   string // http://host:port
	log    *os.File
	exited chan struct{}
}

// hospitalPurposes are auditd's purpose flags on the server workloads.
var hospitalPurposes = []string{"-builtin", "hospital"}

// auditdArgs are the flags every server workload boots with: its
// purposes (the built-in hospital ones unless b.purposeArgs says
// otherwise) on compiled automata, the WAL with its default (interval)
// fsync and the ledger at batch 64 under the run's one ledger key.
// extra appends workload-specific flags.
func (b *bench) auditdArgs(dir string, extra ...string) []string {
	purposes := b.purposeArgs
	if purposes == nil {
		purposes = hospitalPurposes
	}
	args := append(append([]string(nil), purposes...),
		"-compiled",
		"-addr", "127.0.0.1:0", "-addr-file", filepath.Join(dir, "addr"),
		"-wal-dir", filepath.Join(dir, "wal"),
		"-ledger", "-ledger-key", b.ledgerKey(), "-ledger-batch", "64",
	)
	return append(args, extra...)
}

// boot is what one auditd start cost, exec to the first 200 from
// /readyz: the CPU time the daemon used, as read, and the wall time.
// tick is the tick taken just before the exec.
type boot struct {
	cpu, wall time.Duration
	tick      int
}

// startDaemon execs auditd and waits until /readyz answers 200.
func (b *bench) startDaemon(dir string, args []string) (*daemon, boot, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, boot{}, err
	}
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	logf, err := os.OpenFile(filepath.Join(dir, "auditd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, boot{}, err
	}
	cmd := exec.Command(b.cfg.auditd, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	d := &daemon{cmd: cmd, dir: dir, log: logf, exited: make(chan struct{})}
	if err := b.track.tick(); err != nil {
		logf.Close()
		return nil, boot{}, err
	}
	tick := b.track.last()
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, boot{}, err
	}
	b.daemons = append(b.daemons, d)
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	probe := newClient()
	defer probe.CloseIdleConnections()
	deadline := t0.Add(120 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, boot{}, fmt.Errorf("auditd exited during boot: %s (log %s)", cmd.ProcessState, logf.Name())
		case <-b.ctx.Done():
			return nil, boot{}, b.ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return nil, boot{}, fmt.Errorf("auditd not ready after 120s (log %s)", logf.Name())
		}
		if d.base == "" {
			if raw, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(raw), "\n") {
				d.base = "http://" + strings.TrimSpace(string(raw))
			}
		}
		if d.base != "" {
			if resp, err := probe.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					wall := time.Since(t0)
					cpu, err := d.cpu()
					return d, boot{cpu: cpu, wall: wall, tick: tick}, err
				}
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// cpu is the CPU time the daemon has used so far.
func (d *daemon) cpu() (time.Duration, error) { return processCPU(d.cmd.Process.Pid) }

// processCPU reads the CPU clock of process pid: the time all its
// threads, live and exited, have run (clock_getcpuclockid(3)). On a
// VM with paravirtual steal accounting it leaves out the time the
// host ran something else on the vCPU, which wall time cannot; that
// is why the benchmark's gated figures are CPU times.
func processCPU(pid int) (time.Duration, error) {
	const cpuclockSched = 2
	clock := int64(^pid)<<3 | cpuclockSched
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/%d/status", pid)
}

// kill sends SIGKILL (the crash the recovery path is built for) and
// waits for the process to end.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// stop sends SIGTERM so auditd drains and writes its final checkpoint,
// and waits for it to exit (SIGKILL after 60s).
func (d *daemon) stop() error {
	defer d.log.Close()
	select {
	case <-d.exited:
		return fmt.Errorf("auditd already exited: %s", d.cmd.ProcessState)
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("auditd did not stop within 60s of SIGTERM")
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("auditd exited with %s (log %s)", d.cmd.ProcessState, d.log.Name())
	}
	return nil
}

// ledgerKey is the seed file every daemon of a run signs with. The
// first boot creates it; sharing it makes every pass's proof bundles
// the same bytes, so each distinct bundle is verified once.
func (b *bench) ledgerKey() string { return filepath.Join(b.dir, "ledger.key") }

// publicKey reads the ledger public key auditd mirrored next to the
// run's seed file.
func (b *bench) publicKey() (ed25519.PublicKey, error) {
	raw, err := os.ReadFile(b.ledgerKey() + ".pub")
	if err != nil {
		return nil, err
	}
	pub, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil || len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("ledger.key.pub: want %d hex-encoded bytes", ed25519.PublicKeySize)
	}
	return pub, nil
}

// newClient returns an HTTP client holding at most one keep-alive
// connection: the benchmark's unit of a "connection".
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}, Timeout: 120 * time.Second}
}

// httpResult is one request's outcome.
type httpResult struct {
	status int
	body   []byte
	dur    time.Duration
}

func (r httpResult) ok() bool { return r.status >= 200 && r.status < 300 }

// do issues one request and reads the whole response; the duration
// covers send to last body byte.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, header map[string]string) (httpResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return httpResult{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return httpResult{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return httpResult{}, err
	}
	return httpResult{status: resp.StatusCode, body: data, dur: time.Since(t0)}, nil
}

// scrape fetches /metrics and returns every unlabeled or labeled
// sample by its full series name (name{labels}).
func scrape(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	r, err := do(ctx, c, http.MethodGet, base+"/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if !r.ok() {
		return nil, fmt.Errorf("GET /metrics: %d", r.status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}
