package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder is the set of percentiles a latency may be reported
// at, lowest first.
var percentileLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie above a reported percentile for
// it to mean anything: with fewer, one stray sample moves it.
const minBeyond = 10

// supportedPercentile returns the highest percentile on the ladder that
// has at least minBeyond of n samples beyond it, or 0 when even the
// median has fewer.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// beyond returns how many of n samples lie strictly above the p-th
// percentile under the nearest-rank rule.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rankIndex(n, p) - 1
}

// rankIndex is the nearest-rank index of the p-th percentile in a
// sorted slice of n samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// latencies collects per-operation durations.
type latencies []time.Duration

// percentileMs returns the p-th percentile in milliseconds (nearest
// rank), or 0 for an empty sample.
func (l latencies) percentileMs(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rankIndex(len(s), p)].Nanoseconds()) / 1e6
}

// median returns the median of xs (mean of the middle two for even
// lengths), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minPerSlice is the fewest samples a slice needs for its p99 to have
// minBeyond samples beyond it.
const minPerSlice = 1000

// slicedPercentileMs cuts the samples, in the order they were taken, into
// as many slices of at least minPerSlice as fit (at most maxSlices, at
// least one) and returns the median of the slices' p-th percentiles. A
// burst of load from outside the benchmark then moves one slice's tail
// instead of the run's.
func (l latencies) slicedPercentileMs(p float64, maxSlices int) (float64, int) {
	k := min(max(len(l)/minPerSlice, 1), maxSlices)
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = l[i*len(l)/k : (i+1)*len(l)/k].percentileMs(p)
	}
	return median(vals), k
}
