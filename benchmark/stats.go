package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// v, or NaN when v is empty. v is not modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle value of v (mean of the two middle values
// for an even count), or NaN when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// figure is one reported number: the median of its per-repetition raw
// values, with min and max as the spread.
type figure struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Raw   []float64 `json:"raw"`
}

// newFigure summarises raw, which must not be empty.
func newFigure(unit string, raw []float64) figure {
	f := figure{Value: median(raw), Unit: unit, Min: raw[0], Max: raw[0], Raw: raw}
	for _, x := range raw[1:] {
		f.Min = math.Min(f.Min, x)
		f.Max = math.Max(f.Max, x)
	}
	return f
}
