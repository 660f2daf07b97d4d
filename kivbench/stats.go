package main

import (
	"math"
	"sort"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spread printed here is the one the benchmark's acceptance rule uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// geomean of strictly positive xs (0 when any is not positive).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailPercentile returns the highest whole percentile p that leaves at
// least minBeyond samples above it, with the latency at that percentile.
// ok is false when there are too few samples for any such percentile.
func tailPercentile(lat []uint64, minBeyond int) (p int, v uint64, ok bool) {
	n := len(lat)
	s := append([]uint64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for p = 99; p >= 50; p-- {
		// Nearest-rank index of the p-th percentile.
		idx := (p*n + 99) / 100
		if idx < 1 {
			idx = 1
		}
		if n-idx >= minBeyond {
			return p, s[idx-1], true
		}
	}
	return 0, 0, false
}

// percentileU64 is the nearest-rank p-th percentile of xs.
func percentileU64(xs []uint64, p int) uint64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (p*len(s) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return s[idx-1]
}
