package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestWriterRendersFamilies(t *testing.T) {
	w := NewWriter()
	w.Counter("gremlin_test_total", "Things counted.", 3)
	w.Counter("gremlin_rule_fired_total", "Per-rule fires.", 1, "rule", "r1")
	w.Counter("gremlin_rule_fired_total", "Per-rule fires.", 2, "rule", `we"ird\`)
	w.Gauge("gremlin_up", "Liveness.", 1)

	out := w.String()
	for _, want := range []string{
		"# HELP gremlin_test_total Things counted.\n",
		"# TYPE gremlin_test_total counter\n",
		"gremlin_test_total 3\n",
		`gremlin_rule_fired_total{rule="r1"} 1` + "\n",
		`gremlin_rule_fired_total{rule="we\"ird\\"} 2` + "\n",
		"# TYPE gremlin_up gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The per-rule family must declare HELP/TYPE exactly once.
	if n := strings.Count(out, "# TYPE gremlin_rule_fired_total"); n != 1 {
		t.Errorf("family declared %d times, want 1", n)
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("Lint: %v", err)
	}
}

func TestHistogramObserveAndRender(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// Bounds 2^-4, 2^0 and 2^3 s sit at grid indexes 104, 136 and 160.
	for i, want := range map[int]int64{104: 1, 136: 3, 160: 4, gridBuckets - 1: 5} {
		if got := snap.Cumulative[i]; got != want {
			t.Errorf("cumulative[%d] (le=%s) = %d, want %d", i, gridLE[i], got, want)
		}
	}
	if snap.Count != 5 {
		t.Errorf("count %d, want 5", snap.Count)
	}
	if math.Abs(snap.Sum-56.05) > 1e-9 {
		t.Errorf("sum %v, want 56.05", snap.Sum)
	}

	w := NewWriter()
	w.Histogram("gremlin_req_seconds", "Request latency.", snap)
	out := w.String()
	for _, want := range []string{
		`gremlin_req_seconds_bucket{le="0.0625"} 1`,
		`gremlin_req_seconds_bucket{le="1"} 3`,
		`gremlin_req_seconds_bucket{le="8"} 4`,
		`gremlin_req_seconds_bucket{le="+Inf"} 5`,
		"gremlin_req_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("Lint: %v", err)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	snap := h.Snapshot()
	if got := snap.Count; got != workers*per {
		t.Fatalf("count %d, want %d", got, workers*per)
	}
	if math.Abs(snap.Sum-workers*per*0.01) > 1e-6 {
		t.Fatalf("sum %v, want %v", snap.Sum, workers*per*0.01)
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no type":        "foo 1\n",
		"bad value":      "# TYPE foo counter\nfoo abc\n",
		"bad name":       "# TYPE 9foo counter\n9foo 1\n",
		"dup family":     "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"histogram +Inf": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
	}
	for name, text := range cases {
		if err := Lint(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Lint accepted %q", name, text)
		}
	}
}
