package main

import (
	"math"
	"sort"
)

// Summary is one metric's sample distribution as a record reports it:
// the sample count, the median and the quartiles.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four
// groups, by the method Python's statistics.quantiles(xs, n=4) uses by
// default ("exclusive"), so the benchmark's spreads read the same as
// any script that recomputes them from the records.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := sorted(xs)
	q1, _, q3 := quartiles(s)
	return Summary{N: len(s), Median: median(s), P25: q1, P75: q3, Min: s[0], Max: s[len(s)-1]}
}

// tailPercentile returns the highest sample value that has at least
// `beyond` samples strictly greater than it, and the percentile it
// sits at (the share of samples at or below it, in percent). ok is
// false when there are too few samples for any value to qualify.
func tailPercentile(xs []float64, beyond int) (value, pct float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for k := n - beyond; k >= 1; k-- {
		v := s[k-1]
		greater := n - sort.Search(n, func(i int) bool { return s[i] > v })
		if greater >= beyond {
			at := sort.Search(n, func(i int) bool { return s[i] > v })
			return v, 100 * float64(at) / float64(n), true
		}
	}
	return 0, 0, false
}
