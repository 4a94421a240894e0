package main

import (
	"fmt"
	"math"
	"sort"
)

// samples is a set of latency observations in milliseconds.
type samples []float64

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample with at least a q share of the samples at or below it.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c[rank(len(c), q)]
}

// rank is the zero-based index of the nearest-rank q-quantile among n
// sorted samples.
func rank(n int, q float64) int {
	return max(0, int(math.Ceil(q*float64(n)))-1)
}

// beyond reports how many of n samples lie strictly above the
// q-quantile's rank.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

// minSamplesBeyond is how many samples a reported percentile needs above
// it; with fewer, the percentile is one or two unlucky samples.
const minSamplesBeyond = 10

// tail returns the q-quantile, or an error when fewer than
// minSamplesBeyond samples lie beyond it.
func (s samples) tail(q float64) (float64, error) {
	if b := beyond(len(s), q); b < minSamplesBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			q*100, len(s), b, minSamplesBeyond)
	}
	return s.quantile(q), nil
}

// band is the mean of the samples ranked within w of the q-quantile. An
// op mix that falls into clusters (the paper suite's experiments) puts a
// single order statistic on a cluster edge, where it jumps between
// clusters from run to run; the band's mean moves smoothly.
func (s samples) band(q, w float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c[rank(len(c), q-w) : rank(len(c), q+w)+1].mean()
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// median is the middle value, or the mean of the middle two.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	return (c[(n-1)/2] + c[n/2]) / 2
}
