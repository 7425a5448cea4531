package telemetry

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"gremlin/internal/metrics"
)

// refStore is the per-le reference SeriesStore is held to: every (name,
// labels) pair, le included, is its own series, and QuantileOver parses
// each le on read and sums the per-le increases — the store's algorithm
// from before a histogram was one series.
type refStore struct {
	retention int
	series    map[string]*refSeries
}

type refSeries struct {
	name   string
	labels map[string]string
	points []Point // every point appended; a read sees the last retention
}

func newRefStore(retention int) *refStore {
	return &refStore{retention: retention, series: make(map[string]*refSeries)}
}

func refKey(name string, labels map[string]string, withLE bool) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if withLE || k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	key := name
	for _, k := range keys {
		key += "\xff" + k + "=" + labels[k]
	}
	return key
}

func (r *refStore) append(t time.Time, name string, labels map[string]string, v float64) {
	key := refKey(name, labels, true)
	s := r.series[key]
	if s == nil {
		s = &refSeries{name: name, labels: labels}
		r.series[key] = s
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// kept is what a ring of the reference's retention holds, oldest first.
func (r *refStore) kept(s *refSeries) []Point {
	return s.points[max(0, len(s.points)-r.retention):]
}

func (r *refStore) each(name string, match map[string]string, fn func(*refSeries)) {
	for _, s := range r.series {
		if s.name == name && matches(s.labels, match) {
			fn(s)
		}
	}
}

func refIncrease(pts []Point, from, to time.Time) float64 {
	var inc, prev float64
	anchored := false
	for _, p := range pts {
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
			inc += p.V
		}
		prev = p.V
	}
	return inc
}

func (r *refStore) increase(name string, match map[string]string, from, to time.Time) float64 {
	var total float64
	r.each(name, match, func(s *refSeries) { total += refIncrease(r.kept(s), from, to) })
	return total
}

func (r *refStore) quantileOver(base string, match map[string]string, q float64, ivs []Interval) (float64, bool) {
	byLE := make(map[float64]float64)
	r.each(base+"_bucket", match, func(s *refSeries) {
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			return
		}
		for _, iv := range ivs {
			byLE[le] += refIncrease(r.kept(s), iv.From, iv.To)
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

func (r *refStore) timestamps(name string, match map[string]string, from, to time.Time) []time.Time {
	seen := make(map[int64]time.Time)
	r.each(name, match, func(s *refSeries) {
		for _, p := range r.kept(s) {
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

func (r *refStore) bounds() (first, last time.Time, ok bool) {
	for _, s := range r.series {
		for _, p := range r.kept(s) {
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

// counts reports the series left once le leaves a series' identity, and
// the points the per-le rings would have overwritten.
func (r *refStore) counts() (series int, evictions int64) {
	keys := make(map[string]bool)
	for _, s := range r.series {
		keys[refKey(s.name, s.labels, false)] = true
		evictions += int64(max(0, len(s.points)-r.retention))
	}
	return len(keys), evictions
}

// opReader hands out a fuzz input one choice at a time; an exhausted
// input reads as zeros.
type opReader struct {
	data []byte
	i    int
}

func (r *opReader) next(n int) int {
	if r.i >= len(r.data) {
		return 0
	}
	r.i++
	return int(r.data[r.i-1]) % n
}

// storeFeatures records which cases one input exercised.
type storeFeatures struct {
	instances, reset, late, missing, reversed, disjoint, evicted, quantile bool
}

// refLEs is the scraped grid in ascending order; lateLE joins it, inside
// the grid, when an instance first exposes it.
var refLEs = []string{"0.001", "0.01", "0.05", "0.1", "1", "+Inf"}

const lateLE = 2

// seriesOps drives one seeded scrape sequence into a SeriesStore and the
// per-le reference, then holds every read of the store to the reference,
// bit for bit: counts are integers, so no summation order can differ.
func seriesOps(t *testing.T, data []byte) (seen storeFeatures) {
	t.Helper()
	in := &opReader{data: data}
	retention := []int{2, 3, 5, DefaultRetention}[in.next(4)]
	st, ref := NewSeriesStore(retention), newRefStore(retention)
	type instance struct {
		name, svc string
		regions   [6]float64 // observations per bucket, not cumulative
		late      bool
	}
	insts := make([]*instance, 1+in.next(3))
	for i := range insts {
		insts[i] = &instance{name: string(rune('a' + i)), svc: []string{"web", "web", "db"}[i]}
	}
	seen.instances = len(insts) > 1
	scrapes := 1 + in.next(24)
	for s := 0; s < scrapes; s++ {
		for i, inst := range insts {
			op := in.next(16)
			switch op {
			case 0:
				seen.missing = true
				continue
			case 1:
				seen.reset = true
				inst.regions = [6]float64{}
			case 2:
				seen.late = seen.late || !inst.late
				inst.late = true
			}
			for j := range inst.regions {
				inst.regions[j] += float64(in.next(4))
			}
			ts := at(float64(s) + 0.25*float64(i))
			add := func(name string, labels map[string]string, v float64) {
				st.Append(ts, name, labels, v)
				ref.append(ts, name, labels, v)
			}
			type bucket struct {
				le  string
				cum float64
			}
			var buckets []bucket
			var cum float64
			for j, le := range refLEs {
				cum += inst.regions[j]
				if j != lateLE || inst.late {
					buckets = append(buckets, bucket{le, cum})
				}
			}
			if op == 3 { // out of exposition order
				seen.reversed = true
				slices.Reverse(buckets)
			}
			for _, b := range buckets {
				add("lat_bucket", map[string]string{"service": inst.svc, "instance": inst.name, "le": b.le}, b.cum)
			}
			add("lat_count", map[string]string{"service": inst.svc, "instance": inst.name}, cum)
			add("lat_sum", map[string]string{"service": inst.svc, "instance": inst.name}, 3*cum)
		}
	}

	var ivs []Interval
	for from, n := -1.0, 1+in.next(3); len(ivs) < n; {
		from += 0.5 * float64(in.next(8))
		to := from + 0.5*float64(1+in.next(12))
		ivs = append(ivs, Interval{From: at(from), To: at(to)})
		from = to + 0.5
	}
	seen.disjoint = len(ivs) > 1
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	for _, match := range []map[string]string{nil, {"service": "web"}, {"instance": "b"}, {"service": "none"}} {
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			got, gok := st.QuantileOver("lat", match, q, ivs)
			want, wok := ref.quantileOver("lat", match, q, ivs)
			if !same(got, want) || gok != wok {
				t.Fatalf("QuantileOver(%v, q=%v, %v) = %v, %v; per-le reference %v, %v", match, q, ivs, got, gok, want, wok)
			}
			seen.quantile = seen.quantile || gok
			got, gok = st.Quantile("lat", match, q, ivs[0].From, ivs[0].To)
			want, wok = ref.quantileOver("lat", match, q, ivs[:1])
			if !same(got, want) || gok != wok {
				t.Fatalf("Quantile(%v, q=%v, %v) = %v, %v; per-le reference %v, %v", match, q, ivs[0], got, gok, want, wok)
			}
		}
		for _, name := range []string{"lat_bucket", "lat_count", "lat_sum"} {
			for _, iv := range ivs {
				if got, want := st.Increase(name, match, iv.From, iv.To), ref.increase(name, match, iv.From, iv.To); !same(got, want) {
					t.Fatalf("Increase(%s, %v, %v) = %v; per-le reference %v", name, match, iv, got, want)
				}
				if got, want := st.Timestamps(name, match, iv.From, iv.To), ref.timestamps(name, match, iv.From, iv.To); !slices.EqualFunc(got, want, time.Time.Equal) {
					t.Fatalf("Timestamps(%s, %v, %v) = %v; per-le reference %v", name, match, iv, got, want)
				}
			}
		}
	}
	first, last, ok := st.Bounds()
	wfirst, wlast, wok := ref.bounds()
	if !first.Equal(wfirst) || !last.Equal(wlast) || ok != wok {
		t.Fatalf("Bounds() = %v, %v, %v; per-le reference %v, %v, %v", first, last, ok, wfirst, wlast, wok)
	}
	series, evictions := ref.counts()
	if st.SeriesCount() != series || st.Evictions() != evictions {
		t.Fatalf("%d series, %d evictions; per-le reference %d histogram-keyed series, %d evictions", st.SeriesCount(), st.Evictions(), series, evictions)
	}
	seen.evicted = evictions > 0
	return seen
}

// TestSeriesStoreMatchesPerLEReference runs seeded scrape sequences
// through seriesOps, and checks the seeds reach every case it draws.
func TestSeriesStoreMatchesPerLEReference(t *testing.T) {
	var all storeFeatures
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		f := seriesOps(t, data)
		all.instances = all.instances || f.instances
		all.reset = all.reset || f.reset
		all.late = all.late || f.late
		all.missing = all.missing || f.missing
		all.reversed = all.reversed || f.reversed
		all.disjoint = all.disjoint || f.disjoint
		all.evicted = all.evicted || f.evicted
		all.quantile = all.quantile || f.quantile
	}
	if all != (storeFeatures{true, true, true, true, true, true, true, true}) {
		t.Fatalf("seeds left a case unexercised: %+v", all)
	}
}

func FuzzSeriesStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 4, 2, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0, 2, 20, 2, 3, 3, 3, 3, 3, 3, 0, 1, 2, 2, 2, 2, 2, 2, 3, 1, 1, 1, 1, 1, 1, 1, 3, 6})
	f.Fuzz(func(t *testing.T, data []byte) { seriesOps(t, data) })
}
