package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark host's speed drifts. On the 2-vCPU host the benchmark was
// built on, the same run moved jobs-warm throughput by more than 20% from
// one minute to the next, with negligible steal time. Slower stretches show
// up as more CPU time for the same work, so a fixed kernel's thread CPU time
// measures them. The probe runs such a kernel on its own OS thread, about
// 100 µs every 10 ms (1% of one CPU), through set-up and the timed
// phase. Each set-up's time and the timed phase's rates and latencies are
// scaled to the reference speed at which one pass takes probeRef, by the
// median pass cost over that stretch.
//
// The kernel has two parts, because a busy host slows memory-bound work more
// than compute: xorshift steps updating a 1024-word table that stays in L1
// cache, and random gathers from a 16 MiB table, the access pattern of a GAS
// engine's gather. A pass counts only its own thread's CPU time, so the
// program's thread count stays out of the scale; the gathers do share
// caches and memory bandwidth with the program.
const (
	probeWork    = 20000                 // xorshift steps per pass
	probeGathers = 4000                  // random gathers per pass
	probeTable   = 2 << 20               // words in the gather table
	probeEvery   = 10 * time.Millisecond // pass period
	// probeRef is a pass's thread CPU time at the reference speed, about its
	// median on the host the benchmark was built on, so scaled times there
	// stay close to wall times.
	probeRef = 90e-6
	// minProbeSamples is the fewest passes a scale is taken from; a
	// stretch with fewer uses every pass of the run.
	minProbeSamples = 10
)

// probeSample is one pass: when it ended and its thread CPU seconds.
type probeSample struct {
	at  time.Time
	cpu float64
}

// hostProbe measures the host's speed while the program runs.
type hostProbe struct {
	quit    chan struct{}
	wg      sync.WaitGroup
	samples []probeSample // written by the probe until stop returns
}

func startProbe() *hostProbe {
	p := &hostProbe{quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var tbl [1024]uint64
		x := uint64(0x9e3779b97f4a7c15)
		big := make([]uint64, probeTable)
		for i := range big {
			big[i] = uint64(i)
		}
		idx := make([]uint32, probeGathers)
		for i := range idx {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			idx[i] = uint32(x % probeTable)
		}
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			for i := range tbl {
				x += tbl[i]
			}
			c0 := threadCPU()
			for range probeWork {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				tbl[x&1023] += x
			}
			for _, i := range idx {
				x += big[i]
			}
			p.samples = append(p.samples, probeSample{time.Now(), threadCPU() - c0})
		}
	}()
	return p
}

// stop ends the probe and waits for it.
func (p *hostProbe) stop() {
	close(p.quit)
	p.wg.Wait()
}

// scale is probeRef over the median pass cost in [from, to): the factor
// that turns wall seconds of that stretch into seconds at the reference
// speed. Call it after stop.
func (p *hostProbe) scale(from, to time.Time) float64 {
	var costs []float64
	for _, s := range p.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			costs = append(costs, s.cpu)
		}
	}
	if len(costs) < minProbeSamples {
		costs = costs[:0]
		for _, s := range p.samples {
			costs = append(costs, s.cpu)
		}
	}
	if len(costs) == 0 {
		return 1
	}
	return probeRef / quantile(costs, 0.5)
}

// threadCPU is the calling OS thread's CPU time in seconds.
func threadCPU() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}
