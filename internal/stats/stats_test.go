package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 0.25},
		{1.5, 0.25},
		{2, 0.5},
		{4, 1},
		{100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestCDFAtEmpty(t *testing.T) {
	c := NewCDF(nil)
	if got := c.At(5); got != 0 {
		t.Fatalf("empty CDF At = %v, want 0", got)
	}
	if c.Len() != 0 {
		t.Fatalf("empty CDF Len = %d", c.Len())
	}
}

func TestQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{0.1, 10},
		{0.5, 50},
		{0.9, 90},
		{1, 100},
	}
	for _, tt := range tests {
		got, err := c.Quantile(tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	c := NewCDF(nil)
	if _, err := c.Quantile(0.5); err == nil {
		t.Fatal("Quantile on empty CDF: want error")
	}
	c = NewCDF([]float64{1})
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := c.Quantile(q); err == nil {
			t.Errorf("Quantile(%v): want error", q)
		}
	}
}

func TestMinMax(t *testing.T) {
	c := NewCDF([]float64{5, 1, 9})
	min, err := c.Min()
	if err != nil || min != 1 {
		t.Fatalf("Min = %v, %v; want 1, nil", min, err)
	}
	max, err := c.Max()
	if err != nil || max != 9 {
		t.Fatalf("Max = %v, %v; want 9, nil", max, err)
	}
	empty := NewCDF(nil)
	if _, err := empty.Min(); err == nil {
		t.Fatal("Min on empty: want error")
	}
	if _, err := empty.Max(); err == nil {
		t.Fatal("Max on empty: want error")
	}
}

func TestNewCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	c := NewCDF(in)
	in[0] = 99
	if got, _ := c.Max(); got != 3 {
		t.Fatalf("CDF aliased caller slice: Max = %v, want 3", got)
	}
}

func TestDurationCDF(t *testing.T) {
	c := NewDurationCDF([]time.Duration{time.Second, 2 * time.Second})
	if got := c.At(1.0); got != 0.5 {
		t.Fatalf("At(1s) = %v, want 0.5", got)
	}
}

func TestPoints(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	c := NewCDF(samples)
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10", len(pts))
	}
	last := pts[len(pts)-1]
	if last.P != 1 {
		t.Fatalf("last point P = %v, want 1", last.P)
	}
	if last.Value != 99 {
		t.Fatalf("last point Value = %v, want 99", last.Value)
	}
	// Requesting more points than samples clamps.
	if got := len(NewCDF([]float64{1, 2}).Points(10)); got != 2 {
		t.Fatalf("clamped points = %d, want 2", got)
	}
	if NewCDF(nil).Points(5) != nil {
		t.Fatal("empty CDF Points should be nil")
	}
}

func TestPointsMonotonicProperty(t *testing.T) {
	f := func(raw []float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		pts := NewCDF(samples).Points(len(samples))
		for i := 1; i < len(pts); i++ {
			if pts[i].Value < pts[i-1].Value || pts[i].P < pts[i-1].P {
				return false
			}
		}
		return pts[len(pts)-1].P == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(n uint8) bool {
		if n == 0 {
			return true
		}
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64()
		}
		c := NewCDF(samples)
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
			v, err := c.Quantile(q)
			if err != nil {
				return false
			}
			if v < sorted[0] || v > sorted[len(sorted)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("bad extremes: %+v", s)
	}
	if s.Mean != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean)
	}
	if s.Stddev != 2 {
		t.Fatalf("Stddev = %v, want 2", s.Stddev)
	}
	if _, err := Summarize(nil); err == nil {
		t.Fatal("Summarize(nil): want error")
	}
}

func TestSummarizeDurations(t *testing.T) {
	s, err := SummarizeDurations([]time.Duration{time.Second, 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 2 {
		t.Fatalf("Mean = %v, want 2", s.Mean)
	}
	if _, err := SummarizeDurations(nil); err == nil {
		t.Fatal("want error for empty input")
	}
}
