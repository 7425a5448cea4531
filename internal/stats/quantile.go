package stats

import (
	"fmt"
	"math"
)

// StreamingHistogram estimates quantiles over a stream of non-negative
// samples in constant memory, using exponentially spaced buckets: bucket i
// spans [min·growth^i, min·growth^(i+1)), so the estimate's relative error
// is bounded by the growth factor regardless of how many samples arrive.
//
// Unlike CDF (which sorts a complete sample set after the fact), a
// StreamingHistogram answers quantile queries while samples are still
// arriving — the checker's live replyLatency bound queries the running
// latency quantile after every record. Remove subtracts a sample that
// previously passed through Observe, which is what a sliding window needs
// to evict expired samples without rebuilding.
//
// StreamingHistogram is not safe for concurrent use.
type StreamingHistogram struct {
	min     float64 // lower bound of bucket 0
	logG    float64 // log(growth)
	growth  float64
	under   int64 // samples <= min (incl. zero and negative clamps)
	buckets []int64
	over    int64 // samples beyond the last bucket
	count   int64
}

// The shape: 1 µs resolution up to ~28 h with 10% relative error, in
// seconds. 0.1% of a 28 h span needs log(1e11)/log(1.1) ≈ 266 buckets.
const (
	quantileMin    = 1e-6
	quantileGrowth = 1.1
	quantileSpan   = 1e11
)

// NewStreamingHistogram creates a histogram whose bucket bounds grow by
// 10% from 1e-6, covering values up to 1e5 (in whatever unit the caller
// feeds it; seconds for latencies). Samples at or below 1e-6 or beyond the
// last bucket still count; they clamp to the edge buckets.
func NewStreamingHistogram() *StreamingHistogram {
	return &StreamingHistogram{
		min:     quantileMin,
		logG:    math.Log(quantileGrowth),
		growth:  quantileGrowth,
		buckets: make([]int64, int(math.Ceil(math.Log(quantileSpan)/math.Log(quantileGrowth)))+1),
	}
}

// bucketIndex returns which region v falls into: -1 for the underflow
// bucket, len(buckets) for overflow, otherwise the bucket index.
func (h *StreamingHistogram) bucketIndex(v float64) int {
	if v <= h.min || math.IsNaN(v) {
		return -1
	}
	i := int(math.Log(v/h.min) / h.logG)
	if i < 0 {
		return -1
	}
	if i >= len(h.buckets) {
		return len(h.buckets)
	}
	return i
}

// Observe records one sample.
func (h *StreamingHistogram) Observe(v float64) {
	switch i := h.bucketIndex(v); {
	case i < 0:
		h.under++
	case i == len(h.buckets):
		h.over++
	default:
		h.buckets[i]++
	}
	h.count++
}

// Remove subtracts a sample previously recorded with Observe. Removing a
// value that was never observed leaves some other sample's bucket short;
// counts never go negative.
func (h *StreamingHistogram) Remove(v float64) {
	if h.count == 0 {
		return
	}
	switch i := h.bucketIndex(v); {
	case i < 0:
		if h.under > 0 {
			h.under--
		}
	case i == len(h.buckets):
		if h.over > 0 {
			h.over--
		}
	default:
		if h.buckets[i] > 0 {
			h.buckets[i]--
		}
	}
	h.count--
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the live samples
// by nearest rank over the buckets, answering with the geometric midpoint
// of the bucket holding that rank — so the estimate is within one growth
// factor of the exact sample. It returns ErrNoSamples when empty.
func (h *StreamingHistogram) Quantile(q float64) (float64, error) {
	if h.count == 0 {
		return 0, ErrNoSamples
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", q)
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	cum := h.under
	if cum >= rank {
		return h.min, nil
	}
	lo := h.min
	for _, n := range h.buckets {
		hi := lo * h.growth
		cum += n
		if cum >= rank {
			return math.Sqrt(lo * hi), nil
		}
		lo = hi
	}
	// Rank lives in the overflow region: everything we know is "beyond the
	// last bound".
	return lo, nil
}
