package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gremlin/internal/stats"
)

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if _, ok := h.Quantile(0.5); ok {
		t.Fatal("empty histogram reported a quantile")
	}
	// Removing from an empty window must not underflow.
	h.Remove(0.5)
	if n := h.Snapshot().Count; n != 0 {
		t.Fatalf("count after no-op remove = %d", n)
	}
}

func TestHistogramQuantileSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(0.25)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("Quantile(%v): no samples", q)
		}
		if rel := math.Abs(got-0.25) / 0.25; rel > 0.1 {
			t.Errorf("Quantile(%v) = %v, want ~0.25 (rel err %.3f)", q, got, rel)
		}
	}
	if n := h.Snapshot().Count; n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
}

func TestHistogramQuantileAllEqual(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(0.042)
	}
	for _, q := range []float64{0.01, 0.5, 0.999} {
		got, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("Quantile(%v): no samples", q)
		}
		if rel := math.Abs(got-0.042) / 0.042; rel > 0.1 {
			t.Errorf("Quantile(%v) = %v, want ~0.042", q, got)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
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
		got, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("Quantile(%v): no samples", q)
		}
		if rel := math.Abs(got-exact) / exact; rel > 0.12 {
			t.Errorf("Quantile(%v) = %v, exact %v (rel err %.3f > bucket width)", q, got, exact, rel)
		}
	}
}

func TestHistogramRemoveSlidesWindow(t *testing.T) {
	var h Histogram
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
	if n := h.Snapshot().Count; n != 100 {
		t.Fatalf("count = %d, want 100", n)
	}
	p50, _ = h.Quantile(0.5)
	if math.Abs(p50-0.01)/0.01 > 0.1 {
		t.Fatalf("p50 after slide = %v, want ~0.01", p50)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(0)    // the first bucket
	h.Observe(-1)   // negatives too
	h.Observe(1e12) // beyond the last finite bound
	if n := h.Snapshot().Count; n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	if q, ok := h.Quantile(0.01); !ok || q <= 0 {
		t.Fatalf("low quantile = %v, %v", q, ok)
	}
	q, ok := h.Quantile(1)
	if !ok {
		t.Fatal("no samples")
	}
	if q < 1e4 {
		t.Fatalf("max quantile = %v, want the top bucket bound", q)
	}
}

// TestGridBucket: every value lands in the first bucket whose bound is
// >= it, bounds themselves included, whatever Log2 rounds to.
func TestGridBucket(t *testing.T) {
	if got := gridBounds[gridBuckets-2]; got != TopBound {
		t.Fatalf("top finite bound = %v, want %v", got, TopBound)
	}
	for i, b := range gridBounds[:gridBuckets-1] {
		for _, v := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1))} {
			want := sort.SearchFloat64s(gridBounds[:], v)
			if got := gridBucket(v); got != want {
				t.Fatalf("bound %d: gridBucket(%v) = %d, want %d", i, v, got, want)
			}
		}
	}
}

// TestObserveAllocates: Observe runs once per proxied exchange.
func TestObserveAllocates(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(100, func() { h.Observe(1.25e-4) }); n != 0 {
		t.Fatalf("Observe allocates %v times", n)
	}
}

// histogramOps drives h through ops, two bytes each, against the exact
// reference stats.CDF of the live samples: an op with a%4 == 0 removes a
// live sample (or, on an empty histogram, any value), any other observes
// a value from 2^-20 to 2^20 s, log-uniform, which covers both clamps.
// Every check op asserts counts stay non-negative and match the live
// samples, and that the quantile is monotone in q and in the bucket of the
// exact nearest-rank value.
func histogramOps(t *testing.T, ops []byte) {
	var h Histogram
	var live []float64
	for i := 0; i+1 < len(ops); i += 2 {
		a, b := ops[i], ops[i+1]
		switch {
		case a%4 == 0 && len(live) == 0:
			h.Remove(float64(b))
		case a%4 == 0:
			j := int(b) % len(live)
			h.Remove(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case a == 255:
			h.Observe(0)
			live = append(live, 0)
		default:
			v := math.Exp2(float64(int(a)<<8|int(b))/65536*40 - 20)
			h.Observe(v)
			live = append(live, v)
		}
		if i%64 == 0 || i+3 >= len(ops) {
			checkAgainstCDF(t, &h, live)
		}
	}
}

func checkAgainstCDF(t *testing.T, h *Histogram, live []float64) {
	t.Helper()
	var total int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n < 0 {
			t.Fatalf("bucket %d count %d < 0", i, n)
		}
		total += n
	}
	if total != int64(len(live)) {
		t.Fatalf("histogram holds %d samples, reference %d", total, len(live))
	}
	if len(live) == 0 {
		if v, ok := h.Quantile(0.5); ok {
			t.Fatalf("empty histogram: quantile %v", v)
		}
		return
	}
	cdf := stats.NewCDF(live)
	prev := math.Inf(-1)
	for k := 0; k <= 20; k++ {
		q := float64(k) / 20
		got, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("Quantile(%v): no samples with %d live", q, len(live))
		}
		if got < prev {
			t.Fatalf("Quantile(%v) = %v below the lower quantile's %v", q, got, prev)
		}
		prev = got
		exact, _ := cdf.Quantile(q)
		j := gridBucket(exact)
		lo, hi := 0.0, gridBounds[j]
		if j > 0 {
			lo = gridBounds[j-1]
		}
		if j == gridBuckets-1 { // beyond the grid: clamps to the top bound
			lo, hi = TopBound, TopBound
		}
		if got < lo || got > hi {
			t.Fatalf("Quantile(%v) = %v, exact %v: outside its bucket [%v, %v]", q, got, exact, lo, hi)
		}
	}
}

func TestHistogramMatchesCDF(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4000)
		rng.Read(ops)
		histogramOps(t, ops)
	}
}

func FuzzHistogram(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 2, 3, 4, 255, 0, 0, 0, 0, 1})
	f.Add([]byte{200, 0, 200, 0, 4, 0, 0, 0, 0, 0})
	f.Fuzz(histogramOps)
}
