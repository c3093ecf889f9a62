package main

import (
	"math"
	"sort"
)

// summary is the spread of one metric's samples. The quartiles follow
// Python's statistics.quantiles(values, n=4) — the rule the acceptance
// driver applies to per-run values — so a spread printed here can be
// compared with a bound directly.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// spread is the inter-quartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func summarize(unit string, xs []float64) summary {
	if len(xs) == 0 {
		return summary{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Unit: unit, N: len(s), Min: s[0], Max: s[len(s)-1],
		Median: quantile(s, 2), Q1: quantile(s, 1), Q3: quantile(s, 3),
	}
}

func median(xs []float64) float64 { return summarize("", xs).Median }

// quantile returns the i-th quartile cut point of sorted data by the
// exclusive method: position i(n+1)/4, linearly interpolated, and
// extrapolated from the end pair when the position falls outside.
func quantile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	j := i * (n + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*(n+1) - 4*j)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// splitmix is the splitmix64 generator every seeded input is drawn from.
type splitmix struct{ state uint64 }

// newStream derives an independent stream for (seed, name), so each
// workload's inputs depend only on the seed and its own name.
func newStream(seed uint64, name string) *splitmix {
	s := &splitmix{state: seed}
	for _, c := range []byte(name) {
		s.state ^= uint64(c)
		s.next()
	}
	return s
}

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// vector returns n values uniform in [-1, 1).
func (s *splitmix) vector(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(s.next()>>11)/(1<<52) - 1
	}
	return v
}
