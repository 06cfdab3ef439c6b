package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted,
// which must be ascending. No samples read as 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// minBeyond is the choosing-metrics rule: a percentile is only reported
// as such when at least this many samples lie beyond it.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond of them
// beyond the q-quantile's nearest rank.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// highestSupported returns the highest of the ladder 50/90/99/99.9 that
// n samples support, or 0 when not even the median has ten beyond it.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// quartileSpread is the driver's steadiness measure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles of Python's statistics.quantiles(values, n=4) (the
// "exclusive" method: positions (n+1)·k/4, linearly interpolated).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((at(3) - at(1)) / med)
}
