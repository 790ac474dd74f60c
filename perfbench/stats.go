package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
)

// quantile is the q-th quantile of xs with linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// opSample is one completed op: when it ended (seconds since the timed
// phase began) and how long it took (seconds).
type opSample struct{ end, lat float64 }

// overRun returns the op rate (ops/s) and the p50 and p90 latency (seconds)
// over the whole timed phase. Ops ending after the phase are left out. With
// busy, the rate divides by the summed op time instead of by the phase.
func overRun(samples []opSample, phase float64, busy bool) (rate, p50, p90 float64, n int) {
	var lats []float64
	for _, s := range samples {
		if s.end <= phase {
			lats = append(lats, s.lat)
		}
	}
	d := phase
	if busy {
		d = sum(lats)
	}
	if d > 0 {
		rate = float64(len(lats)) / d
	}
	return rate, quantile(lats, 0.5), quantile(lats, 0.9), len(lats)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// rtSample is a runtime/metrics reading.
type rtSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() rtSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	val := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// runtimeRows turns two readings around a phase of ops into the runtime.*
// per-layer metrics.
func runtimeRows(before, after rtSample, ops int) map[string]float64 {
	rows := map[string]float64{"runtime.alloc_mb_per_op": 0, "runtime.gc_cpu_frac": 0}
	if ops > 0 {
		rows["runtime.alloc_mb_per_op"] = (after.allocBytes - before.allocBytes) / float64(ops) / (1 << 20)
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		rows["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	return rows
}

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
