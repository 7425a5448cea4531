// Package telemetry is Gremlin's scrape-and-analyze plane. A Scraper
// polls agent and store /metrics endpoints, parses their expositions with
// metrics.ParseExposition, and appends every sample into an in-memory ring
// SeriesStore, where a histogram's buckets are one series with a ring per
// bound. Campaigns annotate the store with fault windows (Recorder,
// a campaign.RunObserver), and a Differ turns the two into per-unit
// differentials — baseline-vs-fault request rate, error ratio, latency
// quantiles, drop counters, and recovery time — that land in the campaign
// journal and scorecard. The plane is fully out-of-band: it reads HTTP
// /metrics endpoints and writes nothing to the event-log path.
package telemetry

import (
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gremlin/internal/metrics"
)

// DefaultRetention is how many points each ring keeps. At a one-second
// scrape interval that is over eight minutes of history per ring —
// enough for any campaign window plus recovery measurement.
const DefaultRetention = 512

// Point is one scraped sample of one series.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// ring is one run of points. When full, appends overwrite the oldest
// point; start marks the ring's logical head (0 until it is full).
type ring struct {
	points []Point
	start  int
}

func (r *ring) append(p Point, cap int) (evicted bool) {
	if len(r.points) < cap {
		r.points = append(r.points, p)
		return false
	}
	r.points[r.start] = p
	r.start = (r.start + 1) % len(r.points)
	return true
}

// series is one scraped series. A plain series holds one ring. A
// histogram is one series keyed without its le label, with one ring per
// bucket bound, so a bound first seen late starts an empty ring anchored
// at its own first point.
type series struct {
	name   string
	labels map[string]string
	bounds []float64 // ascending; nil for a plain series
	les    []string  // bounds[i] as first scraped
	rings  []ring    // rings[i] holds bounds[i]'s counts
	next   int       // the bound a scrape's next bucket sample is expected at
}

// bound returns the index of le's ring, adding a bound it has not seen.
// Buckets arrive in exposition order, so the expected bound is tried
// before a parse and a search. ok is false when le is not a number.
func (s *series) bound(le string) (int, bool) {
	i := s.next
	if i >= len(s.les) || s.les[i] != le {
		b, err := strconv.ParseFloat(le, 64)
		if err != nil || math.IsNaN(b) {
			return 0, false
		}
		var found bool
		if i, found = slices.BinarySearch(s.bounds, b); !found {
			s.bounds = slices.Insert(s.bounds, i, b)
			s.les = slices.Insert(s.les, i, strings.Clone(le))
			s.rings = slices.Insert(s.rings, i, ring{})
		}
	}
	s.next = (i + 1) % len(s.les)
	return i, true
}

// SeriesStore retains scraped samples in fixed-size rings, one series per
// distinct (name, labels) and one per histogram, and evaluates
// counter-reset-aware increases and histogram quantiles over time
// windows. Safe for concurrent use.
type SeriesStore struct {
	mu        sync.RWMutex
	retention int
	series    map[string]*series
	evictions int64
}

// NewSeriesStore creates a store keeping up to retention points per
// ring; retention <= 0 selects DefaultRetention.
func NewSeriesStore(retention int) *SeriesStore {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &SeriesStore{retention: retention, series: make(map[string]*series)}
}

// appendSeriesKey appends name plus the sorted label pairs to dst. It
// leaves le's value out, so a histogram's buckets share one key.
func appendSeriesKey(dst []byte, name string, labels map[string]string) []byte {
	var buf [8]string // scraped series carry a few labels; more spill to the heap
	keys := buf[:0]
	for k := range labels {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, name...)
	for _, k := range keys {
		dst = append(dst, 0xff)
		dst = append(dst, k...)
		dst = append(dst, '=')
		if k != "le" {
			dst = append(dst, labels[k]...)
		}
	}
	return dst
}

// Append records one sample. A sample with an le label (a histogram's
// _bucket) is one bound of its histogram series. NaN values, and samples
// whose le is not a number, are dropped.
func (st *SeriesStore) Append(t time.Time, name string, labels map[string]string, v float64) {
	if math.IsNaN(v) {
		return
	}
	le, hist := labels["le"]
	// A scrape appends every sample of every target: build the key on the
	// stack, so only a new series allocates one.
	var kb [256]byte
	key := appendSeriesKey(kb[:0], name, labels)
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.series[string(key)]
	fresh := s == nil
	if fresh {
		s = &series{name: name, labels: maps.Clone(labels)}
		delete(s.labels, "le")
		if !hist {
			s.rings = make([]ring, 1)
		}
	}
	i, ok := 0, true
	if hist {
		i, ok = s.bound(le)
	}
	if !ok {
		return
	}
	if fresh {
		st.series[string(key)] = s
	}
	if s.rings[i].append(Point{T: t, V: v}, st.retention) {
		st.evictions++
	}
}

// SeriesCount reports how many distinct series the store holds; a
// histogram is one.
func (st *SeriesStore) SeriesCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.series)
}

// Evictions reports how many points rings have overwritten.
func (st *SeriesStore) Evictions() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.evictions
}

// matches reports whether have carries every pair in want.
func matches(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// each calls fn, under the read lock, for every series named name whose
// labels are a superset of match; a histogram's labels lack le. The
// evaluators read the rings in place.
func (st *SeriesStore) each(name string, match map[string]string, fn func(*series)) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, s := range st.series {
		if s.name == name && matches(s.labels, match) {
			fn(s)
		}
	}
}

// LabelValues returns the distinct values of label across series named
// name, sorted.
func (st *SeriesStore) LabelValues(name, label string) []string {
	st.mu.RLock()
	vals := make(map[string]bool)
	for _, s := range st.series {
		if s.name != name {
			continue
		}
		if v, ok := s.labels[label]; ok {
			vals[v] = true
		}
	}
	st.mu.RUnlock()
	out := make([]string, 0, len(vals))
	for v := range vals {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Interval is one time window; used by the Differ to carve baselines
// around other units' fault windows.
type Interval struct {
	From, To time.Time
}

func (iv Interval) seconds() float64 { return iv.To.Sub(iv.From).Seconds() }

// increase computes the counter-reset-aware increase of the ring over
// (from, to]: the sum of positive deltas, with a reset (value dropping)
// counted as the post-reset value. The anchor is the last point at or
// before from; a ring first seen inside the window anchors at its first
// in-window point, which therefore contributes nothing (its prior value
// is unknown).
func (r *ring) increase(from, to time.Time) float64 {
	var (
		inc      float64
		prev     float64
		anchored bool
	)
	for _, run := range [2][]Point{r.points[r.start:], r.points[:r.start]} {
		for _, p := range run {
			if p.T.After(to) {
				return inc
			}
			if !p.T.After(from) || !anchored {
				prev, anchored = p.V, true
				continue
			}
			if p.V >= prev {
				inc += p.V - prev
			} else {
				// Counter reset: the new value is the increase since.
				inc += p.V
			}
			prev = p.V
		}
	}
	return inc
}

// Increase sums the counter-reset-aware increase of every ring of every
// matching series over (from, to].
func (st *SeriesStore) Increase(name string, match map[string]string, from, to time.Time) float64 {
	var total float64
	st.each(name, match, func(s *series) {
		for i := range s.rings {
			total += s.rings[i].increase(from, to)
		}
	})
	return total
}

// IncreaseOver sums Increase over a set of disjoint intervals — the
// Differ's baseline windows, which exclude other units' fault windows.
func (st *SeriesStore) IncreaseOver(name string, match map[string]string, ivs []Interval) float64 {
	var total float64
	for _, iv := range ivs {
		total += st.Increase(name, match, iv.From, iv.To)
	}
	return total
}

// Rate is Increase divided by the window length in seconds.
func (st *SeriesStore) Rate(name string, match map[string]string, from, to time.Time) float64 {
	secs := to.Sub(from).Seconds()
	if secs <= 0 {
		return 0
	}
	return st.Increase(name, match, from, to) / secs
}

// RateOver is IncreaseOver divided by the summed interval length.
func (st *SeriesStore) RateOver(name string, match map[string]string, ivs []Interval) float64 {
	var secs float64
	for _, iv := range ivs {
		secs += iv.seconds()
	}
	if secs <= 0 {
		return 0
	}
	return st.IncreaseOver(name, match, ivs) / secs
}

// Quantile computes histogram_quantile(q) for the histogram family base
// over the window: per-bound bucket increases are summed across matching
// histograms (all instances), then metrics.Quantile reads the quantile off
// the cumulative distribution, interpolating inside the bucket. The second
// return is false when the window holds no observations. Values beyond
// the last finite bound clamp to it, as Prometheus does.
func (st *SeriesStore) Quantile(base string, match map[string]string, q float64, from, to time.Time) (float64, bool) {
	return st.QuantileOver(base, match, q, []Interval{{From: from, To: to}})
}

// QuantileOver is Quantile over a set of disjoint intervals. Any le set
// works, not only the agent's grid: the bounds are the union of the
// matched histograms' bounds.
func (st *SeriesStore) QuantileOver(base string, match map[string]string, q float64, ivs []Interval) (float64, bool) {
	var bounds, cum []float64
	st.each(base+"_bucket", match, func(s *series) {
		for j, b := range s.bounds {
			i, found := slices.BinarySearch(bounds, b)
			if !found {
				bounds = slices.Insert(bounds, i, b)
				cum = slices.Insert(cum, i, 0)
			}
			for _, iv := range ivs {
				cum[i] += s.rings[j].increase(iv.From, iv.To)
			}
		}
	})
	return metrics.Quantile(q, bounds, cum)
}

// Timestamps returns the sorted distinct point timestamps of matching
// series within (from, to] — the scrape instants recovery measurement
// steps through.
func (st *SeriesStore) Timestamps(name string, match map[string]string, from, to time.Time) []time.Time {
	seen := make(map[int64]time.Time)
	st.each(name, match, func(s *series) {
		for _, r := range s.rings {
			for _, p := range r.points {
				if p.T.After(from) && !p.T.After(to) {
					seen[p.T.UnixNano()] = p.T
				}
			}
		}
	})
	out := make([]time.Time, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// Bounds reports the earliest and latest point timestamps across the
// whole store; ok is false when the store is empty.
func (st *SeriesStore) Bounds() (first, last time.Time, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, s := range st.series {
		for _, r := range s.rings {
			for _, p := range r.points {
				if !ok || p.T.Before(first) {
					first = p.T
				}
				if !ok || p.T.After(last) {
					last = p.T
				}
				ok = true
			}
		}
	}
	return first, last, ok
}
