package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// On a shared host the CPU time of the same cell, at the same seed,
// changes by tens of percent between runs minutes apart, and by up to
// half within one run: a virtual CPU's speed drops by up to 2× for
// bursts of 0.3–1.5 s, as other guests load the hyperthread, caches and
// memory it shares, and the two virtual CPUs slow independently. So a
// timed unit (a cell, a fleet pass, a batch of set-ups) runs with a
// probe beside it: every probePeriod, a goroutine locked to its own
// thread runs a fixed chunk of reference work and reads that thread's
// CPU clock. The process is bound to one CPU (see pinToOneCPU), so the
// probe samples the speed of the CPU the measured code runs on, while it
// runs. The unit's CPU time, less the probe's own, is then scaled to
// what it would have been at the reference speed.
//
// The reference work shares no code with the program: lookups and
// updates in a 2^16-entry map and a sort of 2^12 integers. Like the
// simulator it is integer-, branch- and map-heavy, so it slows when the
// simulator does. A memory-latency kernel was tried first and did not:
// it slowed by about 10% while the simulator slowed by about half.

// probePeriod is how often the probe samples. One chunk takes about 0.8
// milliseconds, so the probe costs under a tenth of the unit's CPU time.
const probePeriod = 10 * time.Millisecond

// chunkNominal is about one chunk's CPU seconds on the 2-vCPU host the
// README's figures come from, undisturbed. Scaling by it makes a figure
// read in roughly that host's seconds.
const chunkNominal = 0.0008

var (
	refMap = func() map[uint64]uint32 {
		m := make(map[uint64]uint32, 1<<16)
		for i := uint64(0); i < 1<<16; i++ {
			m[2*i] = uint32(i)
		}
		return m
	}()
	refInts = func() []int {
		s := make([]int, 1<<11)
		x := uint32(2463534242)
		for i := range s {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			s[i] = int(x)
		}
		return s
	}()
	refSorted = make([]int, len(refInts))
	refState  = uint64(88172645463325252)
	refSink   uint32
)

// refChunk is one chunk of reference work. It allocates nothing, so the
// garbage collector does not run in it.
func refChunk() {
	x := refState
	var sum uint32
	for i := 0; i < 7_500; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & (1<<17 - 1) // twice the map's key span: half the lookups miss
		if v, ok := refMap[k]; ok {
			refMap[k] = v + 1
			sum += v
		}
	}
	copy(refSorted, refInts)
	sort.Ints(refSorted)
	refState = x
	refSink = sum
}

// threadCPU is the calling thread's CPU time in seconds.
func threadCPU() float64 {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}

// probe samples the host's speed while a timed unit runs.
type probe struct {
	stop, done chan struct{}
	own        float64 // the probe thread's CPU seconds, chunks and wake-ups
	inverse    float64 // sum over chunks of chunkNominal ÷ the chunk's CPU seconds
	chunks     int
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		runtime.LockOSThread() // the thread exits with the goroutine
		defer close(p.done)
		t0 := threadCPU()
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		close(ready)
		for {
			select {
			case <-p.stop:
				p.own = threadCPU() - t0
				return
			case <-tick.C:
			}
			c0 := threadCPU()
			refChunk()
			p.inverse += chunkNominal / (threadCPU() - c0)
			p.chunks++
		}
	}()
	<-ready
	return p
}

// scale stops the probe and scales cpu, the process CPU seconds of the
// unit it ran beside, to the reference speed, less the probe's own.
func (p *probe) scale(cpu float64) (float64, error) {
	close(p.stop)
	<-p.done
	if p.chunks == 0 {
		return 0, fmt.Errorf("the speed probe took no sample")
	}
	return (cpu - p.own) * p.inverse / float64(p.chunks), nil
}

// pinToOneCPU binds every thread of the process, and so every thread it
// starts later, to the last CPU it may run on, so that the probe and the
// measured code share one CPU. It fails where the kernel refuses.
func pinToOneCPU() (int, error) {
	var mask [16]uint64
	size := unsafe.Sizeof(mask)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); e != 0 {
		return 0, fmt.Errorf("read CPU affinity: %w", e)
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("read CPU affinity: empty mask")
	}
	one := [16]uint64{}
	one[cpu/64] = 1 << (cpu % 64)
	// Pass the task list twice: a thread started while the first pass
	// ran was started by a thread not yet bound.
	for range 2 {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, fmt.Errorf("bind to CPU %d: %w", cpu, err)
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&one))); e != 0 {
				return 0, fmt.Errorf("bind thread %d to CPU %d: %w", tid, cpu, e)
			}
		}
	}
	return cpu, nil
}
