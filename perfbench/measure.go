package main

import (
	"math"
	"regexp"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ahs/internal/rng"
)

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first. It stops at p90: on a shared 2-vCPU host p95 and p99 of
// the sub-millisecond serve-warm requests read the host's scheduling
// slices (p99 ≈ 4.4 ms against a p50 of 0.23 ms) and move with the
// neighbours' load, not with the service.
var tailLadder = []float64{90}

// tailPercentile applies the reporting rule for timings: the highest
// percentile on tailLadder that still has at least ten samples beyond it.
// With too few samples for any rung it falls back to the median (p=50).
// Percentiles use the nearest-rank definition.
func tailPercentile(xs []float64) (value, p float64) {
	n := len(xs)
	for _, q := range tailLadder {
		if n-rank(n, q) >= 10 {
			return percentile(xs, q), q
		}
	}
	return percentile(xs, 50), 50
}

// rank is the 1-based nearest-rank index of percentile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank q-th percentile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// median is the middle value, averaging the two middle values of an even
// count (0 when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metricName is the charset every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// calibrationDraws is the fixed size of the CPU calibration loop.
const calibrationDraws = 20_000_000

// calibrate times a fixed loop of rng.Uint64 draws and returns nanoseconds
// per draw, so runs on different machines can be put side by side.
func calibrate() float64 {
	s := rng.NewStream(1)
	var acc uint64
	start := time.Now()
	for i := 0; i < calibrationDraws; i++ {
		acc ^= s.Uint64()
	}
	el := time.Since(start)
	runtime.KeepAlive(acc)
	return float64(el.Nanoseconds()) / calibrationDraws
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
