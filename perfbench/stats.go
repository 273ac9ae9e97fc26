package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported.
const minBeyond = 10

// dist is a timing distribution reduced to its median and one tail
// percentile, always with the sample count.
type dist struct {
	N      int
	P50    float64
	Q      float64 // the tail quantile, e.g. 0.95
	Tail   float64
	TailOK bool // at least minBeyond samples lie above Tail
}

// percentile returns the nearest-rank q-quantile of xs (sorted
// ascending) and how many samples are strictly greater than it.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	k := int(math.Ceil(q * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	v = sorted[k-1]
	beyond = len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return v, beyond
}

// summarize reduces samples to their median and q-quantile. The tail
// is marked reportable only when at least minBeyond samples lie beyond
// it; ties at the quantile's value do not count as beyond.
func summarize(samples []float64, q float64) dist {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	d := dist{N: len(sorted), Q: q}
	d.P50, _ = percentile(sorted, 0.5)
	var beyond int
	d.Tail, beyond = percentile(sorted, q)
	d.TailOK = beyond >= minBeyond
	return d
}

// tail returns the tail value, or an error naming the metric when too
// few samples lie beyond it.
func (d dist) tail(name string) (float64, error) {
	if !d.TailOK {
		return 0, fmt.Errorf("%s: p%g needs %d samples beyond it, have %d samples in all", name, d.Q*100, minBeyond, d.N)
	}
	return d.Tail, nil
}

// median returns the nearest-rank median of xs (NaN when empty).
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	v, _ := percentile(sorted, 0.5)
	return v
}
