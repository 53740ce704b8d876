package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The gated times are CPU times of the program under test, read from
// the kernel's CPU clocks. On the shared hosts this benchmark was built
// on they still wander: the one CPU the run is bound to has run the
// same work anywhere from full speed to 0.55 of it, changing within
// seconds and holding for minutes, with no steal reported. So the
// benchmark times a fixed piece of reference work — one yardstick rep
// — between its measurements (a tick), and scales each measurement to
// the reference speed by the reps on either side of it. A change to the
// program moves the scaled figures; a change in the host's speed moves
// the yardstick as much as the program and cancels out. The yardstick
// uses only the standard library and its input is fixed, so no change
// to the repository moves it.

// refRepNS defines the reference speed: the speed at which one
// yardstick rep takes 1 ms of CPU time. Scaled figures read as CPU time
// at that speed. On the Intel Xeon 2-vCPU Firecracker guest (Go 1.24)
// this benchmark was built on, the host's median speed over a run was
// 0.63–0.83 of it.
const refRepNS = 1.0e6

// yardstick is the reference work's fixed input: map keys, integers and
// a pointer-chasing ring, made from a fixed seed.
type yardstick struct {
	keys []string
	ints []int
	ring []int32
	// scratch space reused by every rep, so a rep does not allocate
	m      map[string]int
	sorted []int
	buf    []byte
}

func newYardstick() *yardstick {
	rng := rand.New(rand.NewSource(1))
	y := &yardstick{}
	for i := 0; i < 2500; i++ {
		y.keys = append(y.keys, "case-"+strconv.FormatUint(rng.Uint64(), 36))
	}
	for i := 0; i < 6000; i++ {
		y.ints = append(y.ints, rng.Int())
	}
	perm := rng.Perm(1 << 16)
	y.ring = make([]int32, len(perm))
	for i := range perm {
		y.ring[perm[i]] = int32(perm[(i+1)%len(perm)])
	}
	y.m = make(map[string]int, len(y.keys))
	y.sorted = make([]int, len(y.ints))
	return y
}

// rep does one unit of reference work — SHA-256, map inserts and
// lookups, a sort and a pointer chase, the kinds of work auditd and the
// checker do — and returns a checksum so none of it is optimised away.
func (y *yardstick) rep() uint64 {
	var sum [sha256.Size]byte
	for _, k := range y.keys[:600] {
		y.buf = append(append(y.buf[:0], sum[:]...), k...)
		sum = sha256.Sum256(y.buf)
	}
	clear(y.m)
	for i, k := range y.keys {
		y.m[k] = i
	}
	acc := binary.LittleEndian.Uint64(sum[:])
	for _, k := range y.keys {
		acc += uint64(y.m[k])
	}
	copy(y.sorted, y.ints)
	sort.Ints(y.sorted)
	x := int32(0)
	for i := 0; i < 40000; i++ {
		x = y.ring[x]
	}
	return acc + uint64(y.sorted[len(y.sorted)/2]) + uint64(x)
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("thread CPU clock: %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// speedTrack holds the ticks of one process. A nil *speedTrack never
// ticks and scales by 1: the traced runs report CPU times as read.
type speedTrack struct {
	y    *yardstick
	reps []float64 // CPU ns of each tick's rep, in order
}

func newSpeedTrack() *speedTrack { return &speedTrack{y: newYardstick()} }

// tick times one yardstick rep on the calling goroutine's thread.
func (t *speedTrack) tick() error {
	if t == nil {
		return nil
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := threadCPU()
	if err != nil {
		return err
	}
	if t.y.rep() == 0 {
		return fmt.Errorf("yardstick checksum is 0")
	}
	t1, err := threadCPU()
	if err != nil {
		return err
	}
	t.reps = append(t.reps, float64(t1-t0))
	return nil
}

// tickInterval is how often tickWhile ticks.
const tickInterval = 25 * time.Millisecond

// tickWhile runs fn while another goroutine, on a thread of its own,
// ticks every tickInterval, so a measurement that lasts seconds has
// ticks inside it and not only at its ends. It returns the CPU time
// process pid (the calling process) used during fn less the ticking
// thread's, and the scale for it: refRepNS over the mean of the reps
// from the tick just before fn to the one just after.
func (t *speedTrack) tickWhile(pid int, fn func() error) (time.Duration, float64, error) {
	if err := t.tick(); err != nil {
		return 0, 0, err
	}
	first := t.last()
	type ticked struct {
		cpu time.Duration
		err error
	}
	stop, done := make(chan struct{}), make(chan ticked)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c0, err := threadCPU()
		for err == nil {
			select {
			case <-stop:
				c1, err := threadCPU()
				done <- ticked{c1 - c0, err}
				return
			case <-time.After(tickInterval):
			}
			err = t.tick()
		}
		<-stop
		done <- ticked{err: err}
	}()
	p0, err := processCPU(pid)
	if err == nil {
		err = fn()
	}
	p1, perr := processCPU(pid)
	close(stop)
	tk := <-done
	for _, e := range []error{err, perr, tk.err, t.tick()} {
		if e != nil {
			return 0, 0, e
		}
	}
	return p1 - p0 - tk.cpu, refRepNS / mean(t.reps[first:]), nil
}

// last is the index of the latest tick: a measurement that starts now
// lies between tick last() and the next one.
func (t *speedTrack) last() int {
	if t == nil {
		return 0
	}
	return len(t.reps) - 1
}

// scale turns a CPU time measured between ticks i and i+1 into CPU time
// at the reference speed. Tick i+1 must have happened.
func (t *speedTrack) scale(i int) float64 {
	if t == nil {
		return 1
	}
	return refRepNS / ((t.reps[i] + t.reps[i+1]) / 2)
}

// speed is the median speed of the host over the run so far, relative
// to the reference (1 = the reference speed), for the log and stamp.
func (t *speedTrack) speed() float64 {
	if t == nil || len(t.reps) == 0 {
		return 1
	}
	return refRepNS / median(t.reps)
}
