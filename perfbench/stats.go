package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles a Summary may report as its tail, from
// the highest down; the first one with enough samples beyond it wins.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean more than the single worst case.
const minBeyond = 10

// Summary condenses timing samples: the median, the highest percentile
// that still has minBeyond samples beyond it (Tail = 0 when there are
// too few samples for any), and the sample count.
type Summary struct {
	N         int
	Median    float64
	Tail      float64
	TailValue float64
}

// Summarize is the one percentile helper every reported timing goes
// through.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 50)
	for _, p := range tailLevels {
		if float64(len(sorted))*(100-p)/100 >= minBeyond {
			s.Tail = p
			s.TailValue = quantile(sorted, p)
			break
		}
	}
	return s
}

// Percentile returns the p-th percentile of xs (0 for no samples).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantile(sorted, p)
}

// Median is Percentile(xs, 50).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// quantile interpolates linearly between the closest ranks of an
// ascending sample, so the median of an even count is the mean of the
// middle pair.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
