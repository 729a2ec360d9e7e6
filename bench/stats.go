package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (the mean of the two middle
// values for an even count) and 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of the positive values in vs, so a
// 10 ms kernel weighs as much as a 700 ms matmul. Non-positive values
// cannot enter a geometric mean and are skipped.
func geomean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// tailRank picks the tail sample of n sorted latencies: p95 from 200
// samples up, below that the highest rank that still has ten samples
// beyond it, and below 20 samples the maximum. It returns the 0-based
// rank and the percentile that rank stands for.
func tailRank(n int) (rank int, pct float64) {
	switch {
	case n <= 0:
		return 0, 0
	case n >= 200:
		rank = int(math.Ceil(0.95*float64(n))) - 1
	case n >= 20:
		rank = n - 11
	default:
		rank = n - 1
	}
	return rank, 100 * float64(rank+1) / float64(n)
}

// tail returns the tailRank sample of vs and its percentile.
func tail(vs []float64) (value, pct float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank, pct := tailRank(len(s))
	return s[rank], pct
}

// percentile is the nearest-rank percentile p (0..100) of vs.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), which is
// how the acceptance spread of a metric is defined. It needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return median(s), median(s)
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of vs as a share of its median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}
