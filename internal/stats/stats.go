// Package stats provides the small statistical toolkit behind the
// evaluation figures: empirical CDFs, exact nearest-rank percentiles and
// summary statistics over latency samples. The paper's evaluation reports
// response time CDFs (Figures 5, 6 and 8); internal/experiments, the
// evaluation's one implementation, builds them here from internal/loadgen's
// samples. A CDF keeps every sample, so it is also the exact reference the
// streaming latency histogram (metrics.Histogram) is tested against.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// ErrNoSamples is returned by computations that require at least one sample.
var ErrNoSamples = errors.New("stats: no samples")

// CDF is an empirical cumulative distribution function over float64 samples.
// The zero value is an empty CDF; construct with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. The input slice is copied and
// may be reused by the caller.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// NewDurationCDF builds a CDF over durations, in seconds.
func NewDurationCDF(samples []time.Duration) *CDF {
	s := make([]float64, len(samples))
	for i, d := range samples {
		s[i] = d.Seconds()
	}
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len reports the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns the empirical probability P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of the first sample strictly greater than x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 <= q <= 1) using the nearest-rank
// method. It returns an error for an empty CDF or out-of-range q.
func (c *CDF) Quantile(q float64) (float64, error) {
	if len(c.sorted) == 0 {
		return 0, ErrNoSamples
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", q)
	}
	if q == 0 {
		return c.sorted[0], nil
	}
	rank := int(math.Ceil(q * float64(len(c.sorted))))
	return c.sorted[rank-1], nil
}

// Min returns the smallest sample.
func (c *CDF) Min() (float64, error) {
	if len(c.sorted) == 0 {
		return 0, ErrNoSamples
	}
	return c.sorted[0], nil
}

// Max returns the largest sample.
func (c *CDF) Max() (float64, error) {
	if len(c.sorted) == 0 {
		return 0, ErrNoSamples
	}
	return c.sorted[len(c.sorted)-1], nil
}

// Points returns up to n evenly spaced (value, cumulative probability)
// points suitable for plotting the CDF as the paper's figures do. The last
// point is always (max, 1).
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		idx := i*len(c.sorted)/n - 1
		pts = append(pts, Point{
			Value: c.sorted[idx],
			P:     float64(idx+1) / float64(len(c.sorted)),
		})
	}
	return pts
}

// Point is one (value, cumulative probability) pair of a CDF curve.
type Point struct {
	Value float64 `json:"value"`
	P     float64 `json:"p"`
}

// Summary holds order statistics of a sample set.
type Summary struct {
	Count  int     `json:"count"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Summarize computes summary statistics over samples.
func Summarize(samples []float64) (Summary, error) {
	if len(samples) == 0 {
		return Summary{}, ErrNoSamples
	}
	c := NewCDF(samples)
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(len(samples))
	var sq float64
	for _, v := range samples {
		d := v - mean
		sq += d * d
	}
	stddev := math.Sqrt(sq / float64(len(samples)))
	p50, _ := c.Quantile(0.5)
	p90, _ := c.Quantile(0.9)
	p99, _ := c.Quantile(0.99)
	return Summary{
		Count:  len(samples),
		Min:    c.sorted[0],
		Max:    c.sorted[len(c.sorted)-1],
		Mean:   mean,
		Stddev: stddev,
		P50:    p50,
		P90:    p90,
		P99:    p99,
	}, nil
}

// SummarizeDurations computes summary statistics, in seconds, over durations.
func SummarizeDurations(samples []time.Duration) (Summary, error) {
	s := make([]float64, len(samples))
	for i, d := range samples {
		s[i] = d.Seconds()
	}
	return Summarize(s)
}
