// Package stats provides the small statistics toolkit the experiments
// use: summaries (mean/percentiles), latency histograms with ASCII
// rendering (the textual analogue of the paper's distribution figures),
// and the accumulators that experiments and sweeps fold results into.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"metaleak/internal/arch"
)

// Sample is a collection of cycle measurements.
type Sample []arch.Cycles

// Add appends a measurement.
func (s *Sample) Add(v arch.Cycles) { *s = append(*s, v) }

// Len returns the number of measurements.
func (s Sample) Len() int { return len(s) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s Sample) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// sorted returns an ascending copy.
func (s Sample) sorted() Sample {
	out := append(Sample(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Percentile returns the p-quantile (p in [0,1]) by nearest rank.
func (s Sample) Percentile(p float64) arch.Cycles {
	if len(s) == 0 {
		return 0
	}
	sorted := s.sorted()
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// Min returns the smallest measurement.
func (s Sample) Min() arch.Cycles { return s.Percentile(0) }

// Max returns the largest measurement.
func (s Sample) Max() arch.Cycles { return s.Percentile(1) }

// Summary renders "n=.. min=.. mean=.. p95=.. max=..".
func (s Sample) Summary() string {
	return fmt.Sprintf("n=%d min=%d mean=%.0f p95=%d max=%d",
		len(s), s.Min(), s.Mean(), s.Percentile(0.95), s.Max())
}

// Histogram bins a sample into fixed-width buckets.
type Histogram struct {
	Lo, Hi arch.Cycles
	Width  arch.Cycles
	Counts []int
	Total  int
}

// NewHistogram bins the sample into n buckets spanning its range.
func NewHistogram(s Sample, n int) *Histogram {
	if n < 1 {
		n = 1
	}
	h := &Histogram{Counts: make([]int, n)}
	if len(s) == 0 {
		h.Width = 1
		return h
	}
	h.Lo, h.Hi = s.Min(), s.Max()
	span := h.Hi - h.Lo + 1
	h.Width = (span + arch.Cycles(n) - 1) / arch.Cycles(n)
	if h.Width == 0 {
		h.Width = 1
	}
	for _, v := range s {
		i := int((v - h.Lo) / h.Width)
		if i >= n {
			i = n - 1
		}
		h.Counts[i]++
		h.Total++
	}
	return h
}

// ASCII renders the histogram as one bar line per bucket, the textual
// analogue of the paper's latency-distribution plots.
func (h *Histogram) ASCII(barWidth int) string {
	if barWidth < 1 {
		barWidth = 40
	}
	max := 1
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var sb strings.Builder
	for i, c := range h.Counts {
		lo := h.Lo + arch.Cycles(i)*h.Width
		bar := strings.Repeat("#", c*barWidth/max)
		fmt.Fprintf(&sb, "%6d..%-6d |%-*s| %d\n", lo, lo+h.Width-1, barWidth, bar, c)
	}
	return sb.String()
}

// Accumulators ---------------------------------------------------------------
//
// The spec/trial/merge harness needs per-trial summaries that combine
// associatively, so an experiment's Merge step can fold any partition
// of its trials in trial-index order without ever touching raw sample
// slices: Counter is that summary. MeanVar folds a sweep point's
// replications one value at a time.

// Counter is a mergeable hit counter: N observations, Hits positive.
type Counter struct {
	N    int
	Hits int
}

// Observe records one boolean observation.
func (c *Counter) Observe(hit bool) {
	c.N++
	if hit {
		c.Hits++
	}
}

// Merge combines two counters.
func (c Counter) Merge(o Counter) Counter {
	return Counter{N: c.N + o.N, Hits: c.Hits + o.Hits}
}

// Rate returns Hits/N (0 for an empty counter).
func (c Counter) Rate() float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.N)
}

// MeanVar is a running mean/variance accumulator (count, mean, and the
// centered second moment M2).
type MeanVar struct {
	N    int
	Mean float64
	M2   float64
}

// Add folds one value in (Welford's online update).
func (m *MeanVar) Add(v float64) {
	m.N++
	d := v - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (v - m.Mean)
}

// Variance returns the population variance (0 for N < 2).
func (m MeanVar) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	return m.M2 / float64(m.N)
}

// Std returns the population standard deviation.
func (m MeanVar) Std() float64 { return math.Sqrt(m.Variance()) }
