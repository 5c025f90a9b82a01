package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile (q in [0, 1]) of sorted by linear
// interpolation between the two closest ranks (the "type 7" estimator
// of R and NumPy). It returns 0 for an empty input.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// ratio divides num by den, returning 0 when den is 0 so that a layer
// a workload bypasses reports zero instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// durations is a sample of durations in nanoseconds with the summary
// statistics the benchmark reports.
type durations []int64

func (d durations) sortedMicros() []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / 1e3
	}
	slices.Sort(out)
	return out
}

// summary returns the mean, median and 99th percentile in
// microseconds.
func (d durations) summary() (meanUS, p50US, p99US float64) {
	s := d.sortedMicros()
	return mean(s), quantile(s, 0.5), quantile(s, 0.99)
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall   time.Time
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
	rt     goRuntime
}

// goRuntime holds the cumulative runtime/metrics counters the per-layer
// report differences across the measured window.
type goRuntime struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
}

var goRuntimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoRuntime() goRuntime {
	samples := make([]metrics.Sample, len(goRuntimeNames))
	for i, name := range goRuntimeNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		default:
			return 0
		}
	}
	return goRuntime{
		allocBytes: val(samples[0]),
		gcCycles:   val(samples[1]),
		gcCPU:      val(samples[2]),
		totalCPU:   val(samples[3]),
	}
}

// readUsage samples getrusage(RUSAGE_SELF) and the Go runtime counters.
func readUsage() usage {
	var ru syscall.Rusage
	u := usage{wall: time.Now()}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSS = ru.Maxrss * 1024 // Linux reports KiB
	}
	u.rt = readGoRuntime()
	return u
}
