package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"metaleak/internal/arch"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []arch.Cycles{10, 20, 30, 40} {
		s.Add(v)
	}
	if s.Mean() != 25 {
		t.Fatalf("mean %f", s.Mean())
	}
	if s.Min() != 10 || s.Max() != 40 {
		t.Fatal("min/max wrong")
	}
	if s.Percentile(0.5) != 20 && s.Percentile(0.5) != 30 {
		t.Fatalf("median %d", s.Percentile(0.5))
	}
	if !strings.Contains(s.Summary(), "n=4") {
		t.Fatal("summary missing count")
	}
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 {
		t.Fatal("empty sample not zero-valued")
	}
	h := NewHistogram(s, 5)
	if h.Total != 0 {
		t.Fatal("empty histogram has entries")
	}
	_ = h.ASCII(10)
}

func TestHistogramBinning(t *testing.T) {
	s := Sample{0, 1, 2, 50, 51, 99}
	h := NewHistogram(s, 10)
	if h.Total != len(s) {
		t.Fatalf("total %d", h.Total)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != len(s) {
		t.Fatal("counts do not sum to total")
	}
	art := h.ASCII(20)
	if !strings.Contains(art, "#") {
		t.Fatal("no bars rendered")
	}
}

func TestQuickHistogramConserves(t *testing.T) {
	f := func(raw []uint16, nbRaw uint8) bool {
		var s Sample
		for _, v := range raw {
			s.Add(arch.Cycles(v))
		}
		nb := int(nbRaw)%20 + 1
		h := NewHistogram(s, nb)
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == len(s) && h.Total == len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterMerge(t *testing.T) {
	var a, b Counter
	for i := 0; i < 10; i++ {
		a.Observe(i%2 == 0)
	}
	for i := 0; i < 6; i++ {
		b.Observe(true)
	}
	m := a.Merge(b)
	if m.N != 16 || m.Hits != 11 {
		t.Fatalf("merged counter %+v", m)
	}
	if got := m.Rate(); got != 11.0/16.0 {
		t.Fatalf("rate %v", got)
	}
	if (Counter{}).Rate() != 0 {
		t.Fatal("empty counter rate not 0")
	}
}

// TestMeanVarStd checks the running accumulator the sweep aggregates
// print against population statistics computed directly.
func TestMeanVarStd(t *testing.T) {
	mk := func(vals ...float64) MeanVar {
		var m MeanVar
		for _, v := range vals {
			m.Add(v)
		}
		return m
	}
	if s := mk(10, 10, 10, 10).Std(); s != 0 {
		t.Fatalf("constant sample has std %v", s)
	}
	if s := mk(0, 20).Std(); s != 10 {
		t.Fatalf("std = %v want 10", s)
	}
	if (MeanVar{}).Std() != 0 || mk(5).Variance() != 0 {
		t.Fatal("fewer than two values must have zero variance")
	}
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7}
	var sum, sq float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	for _, v := range vals {
		sq += (v - mean) * (v - mean)
	}
	m := mk(vals...)
	if m.N != len(vals) || math.Abs(m.Mean-mean) > 1e-9 || math.Abs(m.Variance()-sq/float64(len(vals))) > 1e-9 {
		t.Fatalf("running %+v (variance %v), direct mean %v variance %v", m, m.Variance(), mean, sq/float64(len(vals)))
	}
}
