package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestStreamingHistogramEmpty(t *testing.T) {
	h := NewStreamingHistogram()
	if _, err := h.Quantile(0.5); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("empty quantile err = %v, want ErrNoSamples", err)
	}
	// Removing from an empty window must not underflow.
	h.Remove(0.5)
	if h.count != 0 || h.under != 0 {
		t.Fatalf("count after no-op remove = %d (underflow %d)", h.count, h.under)
	}
}

func TestStreamingHistogramSingleSample(t *testing.T) {
	h := NewStreamingHistogram()
	h.Observe(0.25)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got, err := h.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", q, err)
		}
		if rel := math.Abs(got-0.25) / 0.25; rel > 0.1 {
			t.Errorf("Quantile(%v) = %v, want ~0.25 (rel err %.3f)", q, got, rel)
		}
	}
	if h.count != 1 {
		t.Errorf("count = %d, want 1", h.count)
	}
}

func TestStreamingHistogramAllEqual(t *testing.T) {
	h := NewStreamingHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(0.042)
	}
	for _, q := range []float64{0.01, 0.5, 0.999} {
		got, err := h.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", q, err)
		}
		if rel := math.Abs(got-0.042) / 0.042; rel > 0.1 {
			t.Errorf("Quantile(%v) = %v, want ~0.042", q, got)
		}
	}
}

func TestStreamingHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewStreamingHistogram()
	samples := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform latencies between 100 µs and 10 s.
		v := math.Exp(rng.Float64()*math.Log(1e5)) * 1e-4
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		got, err := h.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", q, err)
		}
		if rel := math.Abs(got-exact) / exact; rel > 0.12 {
			t.Errorf("Quantile(%v) = %v, exact %v (rel err %.3f > growth bound)", q, got, exact, rel)
		}
	}
}

func TestStreamingHistogramRemoveSlidesWindow(t *testing.T) {
	h := NewStreamingHistogram()
	// Window holds 100 slow samples, then they expire and 100 fast ones
	// replace them: the quantile must follow the live window.
	for i := 0; i < 100; i++ {
		h.Observe(2.0)
	}
	p50, _ := h.Quantile(0.5)
	if math.Abs(p50-2.0)/2.0 > 0.1 {
		t.Fatalf("p50 with slow window = %v, want ~2.0", p50)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.01)
		h.Remove(2.0)
	}
	if h.count != 100 {
		t.Fatalf("count = %d, want 100", h.count)
	}
	p50, _ = h.Quantile(0.5)
	if math.Abs(p50-0.01)/0.01 > 0.1 {
		t.Fatalf("p50 after slide = %v, want ~0.01", p50)
	}
}

func TestStreamingHistogramExtremes(t *testing.T) {
	h := NewStreamingHistogram()
	h.Observe(0)    // clamps to underflow
	h.Observe(-1)   // negative clamps too
	h.Observe(1e12) // beyond the last bucket
	if h.count != 3 {
		t.Fatalf("count = %d, want 3", h.count)
	}
	if q, err := h.Quantile(0.01); err != nil || q <= 0 {
		t.Fatalf("low quantile = %v, %v", q, err)
	}
	q, err := h.Quantile(1)
	if err != nil {
		t.Fatal(err)
	}
	if q < 1e4 {
		t.Fatalf("max quantile = %v, want the top bucket bound", q)
	}
}
