package metrics

import (
	"math"
	"sync/atomic"
)

// The latency grid every Histogram shares: bucket k's upper bound is
// 2^(k/8) seconds for k = -136…136, from 7.6 µs to 2^17 s (36.4 h), then
// +Inf. Eight buckets an octave keep a linearly interpolated quantile
// within 9.05 % of the sample it estimates.
const (
	gridPerOctave = 8
	gridLowK      = -136
	gridBuckets   = 2*(-gridLowK) + 2 // 273 finite bounds and +Inf
)

// TopBound is the grid's largest finite bound in seconds. A quantile never
// reads above it: samples beyond it count in the +Inf bucket, which
// clamps to this bound.
const TopBound = 1 << 17

var (
	// gridBounds are the ascending upper bounds, gridBounds[last] = +Inf.
	gridBounds [gridBuckets]float64
	// gridLE are the bounds as exposition le label values, formatted
	// once so a scrape formats no floats for its buckets.
	gridLE [gridBuckets]string
)

func init() {
	for i := range gridBuckets - 1 {
		gridBounds[i] = math.Exp2(float64(i+gridLowK) / gridPerOctave)
		gridLE[i] = formatFloat(gridBounds[i])
	}
	gridBounds[gridBuckets-1] = math.Inf(1)
	gridLE[gridBuckets-1] = "+Inf"
}

// gridBucket returns the index of the bucket holding v: the first whose
// bound is >= v. Zero, negatives and NaN land in bucket 0.
func gridBucket(v float64) int {
	const top = gridBuckets - 2 // the last finite bound
	switch {
	case !(v > gridBounds[0]):
		return 0
	case v > gridBounds[top]:
		return top + 1
	}
	i := int(math.Ceil(math.Log2(v)*gridPerOctave)) - gridLowK
	i = min(max(i, 1), top)
	// Log2 may round across a bound; the table decides.
	if v <= gridBounds[i-1] {
		i--
	} else if v > gridBounds[i] {
		i++
	}
	return i
}

// Histogram is a cumulative latency histogram on the fixed grid, safe for
// concurrent use. Observe is one atomic add plus an atomic CAS for the
// sum and allocates nothing, so it can sit on the proxy data path. The
// zero value is an empty histogram.
type Histogram struct {
	counts  [gridBuckets]atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample, in seconds.
func (h *Histogram) Observe(v float64) {
	h.counts[gridBucket(v)].Add(1)
	h.addSum(v)
}

// Remove takes back a sample recorded with Observe, so a sliding window
// can evict expired samples. Removing a value whose bucket is empty is a
// no-op: counts never go negative.
func (h *Histogram) Remove(v float64) {
	c := &h.counts[gridBucket(v)]
	for {
		n := c.Load()
		if n <= 0 {
			return
		}
		if c.CompareAndSwap(n, n-1) {
			h.addSum(-v)
			return
		}
	}
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the samples by
// the grid's one quantile rule (see Quantile). ok is false when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) (v float64, ok bool) {
	var cum [gridBuckets]float64
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
		cum[i] = float64(n)
	}
	return Quantile(q, gridBounds[:], cum[:])
}

// HistogramSnapshot is a consistent-enough view of a Histogram for one
// scrape: cumulative counts per grid bucket (the last is the +Inf bucket,
// which equals Count) and the sum.
type HistogramSnapshot struct {
	Cumulative []int64
	Count      int64
	Sum        float64
}

// Snapshot captures the histogram's current state. Concurrent Observe
// calls may tear the sum against the buckets by a few samples; the
// buckets stay monotone and the +Inf bucket equals the count.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Cumulative: make([]int64, gridBuckets),
		Sum:        math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		snap.Count += h.counts[i].Load()
		snap.Cumulative[i] = snap.Count
	}
	return snap
}

// Quantile is the one quantile rule behind every latency figure: the
// Prometheus histogram_quantile estimate over one cumulative histogram.
// bounds are ascending upper bucket bounds, the last usually +Inf, and
// cum[i] counts the samples <= bounds[i], so the last entry is the total.
// The sample of rank q·total, and at least rank 1, is located in its
// bucket and interpolated linearly between the bucket's bounds (the
// first bucket starts at 0). A rank in the +Inf bucket clamps to the last
// finite bound. ok is false when there are no samples or q is outside
// [0, 1].
func Quantile(q float64, bounds, cum []float64) (v float64, ok bool) {
	n := len(cum)
	if n == 0 || !(cum[n-1] > 0) || !(q >= 0 && q <= 1) {
		return 0, false
	}
	total := cum[n-1]
	// Rank 1 at least: q = 0 reads the smallest sample's bucket, not the
	// empty buckets below it.
	rank := min(max(q*total, 1), total)
	var lower, below float64
	for i, le := range bounds {
		if cum[i] >= rank {
			if math.IsInf(le, 1) {
				break
			}
			return lower + (le-lower)*(rank-below)/(cum[i]-below), true
		}
		lower, below = le, cum[i]
	}
	return lower, true
}
