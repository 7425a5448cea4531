// Package telemetry is Gremlin's scrape-and-analyze plane. A Scraper
// polls agent and store /metrics endpoints, parses their expositions with
// metrics.ParseExposition, and appends every sample into an in-memory ring
// SeriesStore. Campaigns annotate the store with fault windows (Recorder,
// a campaign.RunObserver), and a Differ turns the two into per-unit
// differentials — baseline-vs-fault request rate, error ratio, latency
// quantiles, drop counters, and recovery time — that land in the campaign
// journal and scorecard. The plane is fully out-of-band: it reads HTTP
// /metrics endpoints and writes nothing to the event-log path.
package telemetry

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"gremlin/internal/metrics"
)

// DefaultRetention is how many points each series ring keeps. At a one-
// second scrape interval that is over eight minutes of history per series
// — enough for any campaign window plus recovery measurement.
const DefaultRetention = 512

// Point is one scraped sample of one series.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// SeriesData is a snapshot of one series: its identity and points in
// time order.
type SeriesData struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Points []Point           `json:"points"`
}

// series is one ring of points. When full, appends overwrite the oldest
// point; start marks the ring's logical head.
type series struct {
	name   string
	labels map[string]string
	points []Point
	start  int
	full   bool
}

func (s *series) append(p Point, cap int) (evicted bool) {
	if !s.full && len(s.points) < cap {
		s.points = append(s.points, p)
		if len(s.points) == cap {
			s.full = true
		}
		return false
	}
	s.points[s.start] = p
	s.start = (s.start + 1) % len(s.points)
	return true
}

// ordered returns the ring's points oldest-first, as two runs that share
// the ring's storage.
func (s *series) ordered() (older, newer []Point) {
	if !s.full {
		return s.points, nil
	}
	return s.points[s.start:], s.points[:s.start]
}

// snapshot returns a copy of the ring's points oldest-first.
func (s *series) snapshot() []Point {
	older, newer := s.ordered()
	return append(append(make([]Point, 0, len(s.points)), older...), newer...)
}

// SeriesStore retains scraped samples in fixed-size rings, one per
// distinct (name, labels) series, and evaluates counter-reset-aware
// increases and histogram quantiles over time windows. Safe for
// concurrent use.
type SeriesStore struct {
	mu        sync.RWMutex
	retention int
	series    map[string]*series
	evictions int64
}

// NewSeriesStore creates a store keeping up to retention points per
// series; retention <= 0 selects DefaultRetention.
func NewSeriesStore(retention int) *SeriesStore {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &SeriesStore{retention: retention, series: make(map[string]*series)}
}

// appendSeriesKey appends name plus the sorted label pairs to dst: one
// ring per distinct labeled series.
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
		dst = append(dst, labels[k]...)
	}
	return dst
}

// Append records one sample. NaN values are dropped.
func (st *SeriesStore) Append(t time.Time, name string, labels map[string]string, v float64) {
	if math.IsNaN(v) {
		return
	}
	// A scrape appends every sample of every target: build the key on the
	// stack, so only a new series allocates one.
	var kb [256]byte
	key := appendSeriesKey(kb[:0], name, labels)
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.series[string(key)]
	if s == nil {
		lcopy := make(map[string]string, len(labels))
		for k, val := range labels {
			lcopy[k] = val
		}
		s = &series{name: name, labels: lcopy}
		st.series[string(key)] = s
	}
	if s.append(Point{T: t, V: v}, st.retention) {
		st.evictions++
	}
}

// SeriesCount reports how many distinct series the store holds.
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
// labels are a superset of match. The evaluators read the rings in place:
// a histogram family is hundreds of bucket series, too many to copy per
// quantile.
func (st *SeriesStore) each(name string, match map[string]string, fn func(*series)) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, s := range st.series {
		if s.name == name && matches(s.labels, match) {
			fn(s)
		}
	}
}

// Match returns snapshots of every series named name whose labels are a
// superset of match, sorted by label key for determinism.
func (st *SeriesStore) Match(name string, match map[string]string) []SeriesData {
	st.mu.RLock()
	defer st.mu.RUnlock()
	type keyed struct {
		key string
		s   *series
	}
	var hits []keyed
	for key, s := range st.series {
		if s.name == name && matches(s.labels, match) {
			hits = append(hits, keyed{key, s})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].key < hits[j].key })
	out := make([]SeriesData, 0, len(hits))
	for _, h := range hits {
		out = append(out, SeriesData{Name: h.s.name, Labels: h.s.labels, Points: h.s.snapshot()})
	}
	return out
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

// increase computes the counter-reset-aware increase of the series over
// (from, to]: the sum of positive deltas, with a reset (value dropping)
// counted as the post-reset value. The anchor is the last point at or
// before from; a series first seen inside the window anchors at its first
// in-window point, which therefore contributes nothing (its prior value
// is unknown).
func (s *series) increase(from, to time.Time) float64 {
	var (
		inc      float64
		prev     float64
		anchored bool
	)
	older, newer := s.ordered()
	for _, run := range [2][]Point{older, newer} {
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

// Increase sums the counter-reset-aware increase of every matching
// series over (from, to].
func (st *SeriesStore) Increase(name string, match map[string]string, from, to time.Time) float64 {
	var total float64
	st.each(name, match, func(s *series) { total += s.increase(from, to) })
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
// over the window: per-le bucket increases are summed across matching
// series (all instances), then metrics.Quantile reads the quantile off
// the cumulative distribution, interpolating inside the bucket. The second
// return is false when the window holds no observations. Values beyond
// the last finite bound clamp to it, as Prometheus does.
func (st *SeriesStore) Quantile(base string, match map[string]string, q float64, from, to time.Time) (float64, bool) {
	return st.QuantileOver(base, match, q, []Interval{{From: from, To: to}})
}

// QuantileOver is Quantile over a set of disjoint intervals. Any le set
// works, not only the agent's grid.
func (st *SeriesStore) QuantileOver(base string, match map[string]string, q float64, ivs []Interval) (float64, bool) {
	byLE := make(map[float64]float64)
	st.each(base+"_bucket", match, func(s *series) {
		le, err := parseLE(s.labels["le"])
		if err != nil {
			return
		}
		for _, iv := range ivs {
			byLE[le] += s.increase(iv.From, iv.To)
		}
	})
	bounds := make([]float64, 0, len(byLE))
	for le := range byLE {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	cum := make([]float64, len(bounds))
	for i, le := range bounds {
		cum[i] = byLE[le]
	}
	return metrics.Quantile(q, bounds, cum)
}

// Timestamps returns the sorted distinct point timestamps of matching
// series within (from, to] — the scrape instants recovery measurement
// steps through.
func (st *SeriesStore) Timestamps(name string, match map[string]string, from, to time.Time) []time.Time {
	seen := make(map[int64]time.Time)
	st.each(name, match, func(s *series) {
		for _, p := range s.points {
			if p.T.After(from) && !p.T.After(to) {
				seen[p.T.UnixNano()] = p.T
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
		for _, p := range s.points {
			if !ok || p.T.Before(first) {
				first = p.T
			}
			if !ok || p.T.After(last) {
				last = p.T
			}
			ok = true
		}
	}
	return first, last, ok
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}
