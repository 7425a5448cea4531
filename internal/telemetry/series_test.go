package telemetry

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }

func TestSeriesRingEviction(t *testing.T) {
	st := NewSeriesStore(4)
	for i := 0; i < 10; i++ {
		st.Append(at(float64(i)), "m", nil, float64(i))
	}
	if st.SeriesCount() != 1 {
		t.Fatalf("series = %d", st.SeriesCount())
	}
	if st.Evictions() != 6 {
		t.Fatalf("evictions = %d, want 6", st.Evictions())
	}
	// The ring holds the last four points, 6..9: four instants, and an
	// increase anchored at 6.
	if ts := st.Timestamps("m", nil, at(-1), at(20)); len(ts) != 4 || !ts[0].Equal(at(6)) || !ts[3].Equal(at(9)) {
		t.Fatalf("ring timestamps = %v", ts)
	}
	if inc := st.Increase("m", nil, at(-1), at(20)); inc != 3 {
		t.Fatalf("ring increase = %v, want 3", inc)
	}
}

func TestIncreaseCounterReset(t *testing.T) {
	st := NewSeriesStore(0)
	// 10 → 25 → (reset) 3 → 8: increase = 15 + 3 + 5 = 23.
	for i, v := range []float64{10, 25, 3, 8} {
		st.Append(at(float64(i)), "c", map[string]string{"service": "web"}, v)
	}
	got := st.Increase("c", map[string]string{"service": "web"}, at(-1), at(10))
	if got != 23 {
		t.Fatalf("increase = %v, want 23", got)
	}
	// Anchored window (1, 3]: 25→3→8 = 3 + 5 = 8.
	got = st.Increase("c", nil, at(1), at(3))
	if got != 8 {
		t.Fatalf("anchored increase = %v, want 8", got)
	}
	// Series first seen inside the window contributes nothing at its
	// first point.
	got = st.Increase("c", nil, at(-5), at(0))
	if got != 0 {
		t.Fatalf("first-point increase = %v, want 0", got)
	}
}

func TestIncreaseSumsInstances(t *testing.T) {
	st := NewSeriesStore(0)
	for i := 0; i < 3; i++ {
		st.Append(at(float64(i)), "c", map[string]string{"service": "web", "instance": "a"}, float64(10*i))
		st.Append(at(float64(i)), "c", map[string]string{"service": "web", "instance": "b"}, float64(5*i))
	}
	got := st.Increase("c", map[string]string{"service": "web"}, at(0), at(2))
	if got != 30 {
		t.Fatalf("summed increase = %v, want 30", got)
	}
	if r := st.Rate("c", map[string]string{"service": "web"}, at(0), at(2)); r != 15 {
		t.Fatalf("rate = %v, want 15", r)
	}
}

// histAppend writes one scrape of a cumulative histogram.
func histAppend(st *SeriesStore, ts time.Time, svc string, counts map[string]float64, total float64) {
	for le, v := range counts {
		st.Append(ts, "lat_bucket", map[string]string{"service": svc, "le": le}, v)
	}
	st.Append(ts, "lat_bucket", map[string]string{"service": svc, "le": "+Inf"}, total)
	st.Append(ts, "lat_count", map[string]string{"service": svc}, total)
}

func TestQuantileOver(t *testing.T) {
	st := NewSeriesStore(0)
	histAppend(st, at(0), "web", map[string]float64{"0.01": 0, "0.1": 0, "1": 0}, 0)
	// 80 obs ≤ 10ms, 15 more ≤ 100ms, 5 more ≤ 1s.
	histAppend(st, at(1), "web", map[string]float64{"0.01": 80, "0.1": 95, "1": 100}, 100)
	match := map[string]string{"service": "web"}
	p50, ok := st.Quantile("lat", match, 0.50, at(0), at(1))
	if !ok {
		t.Fatal("p50: no data")
	}
	// rank 50 of 100 lands inside the first bucket: 0.01 * 50/80.
	if want := 0.01 * 50 / 80; math.Abs(p50-want) > 1e-9 {
		t.Fatalf("p50 = %v, want %v", p50, want)
	}
	p99, ok := st.Quantile("lat", match, 0.99, at(0), at(1))
	if !ok || p99 < 0.1 || p99 > 1 {
		t.Fatalf("p99 = %v (ok=%v), want inside (0.1, 1]", p99, ok)
	}
	// Empty window: no observations.
	if _, ok := st.Quantile("lat", match, 0.5, at(5), at(6)); ok {
		t.Fatal("empty window should report no data")
	}
}

func TestQuantileClampsToLastFiniteBound(t *testing.T) {
	st := NewSeriesStore(0)
	histAppend(st, at(0), "web", map[string]float64{"0.01": 0}, 0)
	// Everything beyond the last finite bound.
	histAppend(st, at(1), "web", map[string]float64{"0.01": 0}, 10)
	p, ok := st.Quantile("lat", map[string]string{"service": "web"}, 0.99, at(0), at(1))
	if !ok || p != 0.01 {
		t.Fatalf("p99 = %v (ok=%v), want clamp to 0.01", p, ok)
	}
}

func TestSubtractIntervals(t *testing.T) {
	base := []Interval{{From: at(0), To: at(10)}}
	out := subtract(base, Interval{From: at(3), To: at(5)})
	if len(out) != 2 || !out[0].To.Equal(at(3)) || !out[1].From.Equal(at(5)) {
		t.Fatalf("subtract = %+v", out)
	}
	out = subtract(out, Interval{From: at(-1), To: at(1)})
	if len(out) != 2 || !out[0].From.Equal(at(1)) {
		t.Fatalf("subtract head = %+v", out)
	}
	out = subtract(out, Interval{From: at(20), To: at(30)})
	if len(out) != 2 {
		t.Fatalf("disjoint subtract = %+v", out)
	}
}

func TestLabelValuesAndTimestamps(t *testing.T) {
	st := NewSeriesStore(0)
	st.Append(at(0), "m", map[string]string{"service": "b"}, 1)
	st.Append(at(1), "m", map[string]string{"service": "a"}, 1)
	if vals := st.LabelValues("m", "service"); len(vals) != 2 || vals[0] != "a" {
		t.Fatalf("label values = %v", vals)
	}
	ts := st.Timestamps("m", nil, at(-1), at(5))
	if len(ts) != 2 || !ts[0].Equal(at(0)) {
		t.Fatalf("timestamps = %v", ts)
	}
}
