package main

import (
	"sort"
	"syscall"
	"time"

	"protodsl/internal/metrics"
)

// percentile returns the p-th percentile (0..100) of xs, linearly
// interpolated between ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	return metrics.Percentiles(xs, p)[0]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile of xs by the
// "exclusive" method Python's statistics.quantiles(n=4) uses, so
// -compare reports the same spread the acceptance procedure computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as CPython does: small samples extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark
// (ru_maxrss, kilobytes on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
