package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestParseExpositionFamilies(t *testing.T) {
	text := `# HELP gremlin_agent_proxied_total Requests proxied.
# TYPE gremlin_agent_proxied_total counter
gremlin_agent_proxied_total{service="web"} 42
gremlin_agent_proxied_total{service="db"} 7
# HELP gremlin_agent_rules Installed rules.
# TYPE gremlin_agent_rules gauge
gremlin_agent_rules 3
`
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2", len(fams))
	}
	f := fams[0]
	if f.Name != "gremlin_agent_proxied_total" || f.Type != "counter" {
		t.Fatalf("family 0 = %s/%s", f.Name, f.Type)
	}
	if f.Help != "Requests proxied." {
		t.Fatalf("help = %q", f.Help)
	}
	if len(f.Samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(f.Samples))
	}
	if f.Samples[0].Labels["service"] != "web" || f.Samples[0].Value != 42 {
		t.Fatalf("sample 0 = %+v", f.Samples[0])
	}
	if fams[1].Type != "gauge" || len(fams[1].Samples) != 1 || len(fams[1].Samples[0].Labels) != 0 {
		t.Fatalf("family 1 = %+v", fams[1])
	}
}

func TestParseExpositionEscapedLabels(t *testing.T) {
	// Label values with escaped quotes, backslashes, newlines, and commas
	// inside quotes — all legal in the exposition format.
	text := "# TYPE weird gauge\n" +
		`weird{msg="a \"quoted\" thing",path="C:\\tmp",multi="line1\nline2",csv="a,b,c"} 1` + "\n"
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	got := fams[0].Samples[0].Labels
	want := map[string]string{
		"msg":   `a "quoted" thing`,
		"path":  `C:\tmp`,
		"multi": "line1\nline2",
		"csv":   "a,b,c",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("label %s = %q, want %q", k, got[k], v)
		}
	}
}

func TestParseExpositionHistogram(t *testing.T) {
	w := NewWriter()
	var h Histogram
	h.Observe(0.004)
	h.Observe(0.2)
	h.Observe(1e6) // beyond the last finite bound, lands only in +Inf
	w.Histogram("req_seconds", "Latency.", h.Snapshot(), "service", "web")
	fams, err := ParseExposition(strings.NewReader(w.String()))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if len(fams) != 1 || fams[0].Type != "histogram" {
		t.Fatalf("families = %+v", fams)
	}
	// _bucket/_sum/_count fold into the base family.
	want := gridBuckets + 2
	if len(fams[0].Samples) != want {
		t.Fatalf("got %d samples, want %d", len(fams[0].Samples), want)
	}
	var inf float64
	sawInf := false
	for _, s := range fams[0].Samples {
		if s.Name == "req_seconds_bucket" && s.Labels["le"] == "+Inf" {
			inf, sawInf = s.Value, true
		}
	}
	if !sawInf || inf != 3 {
		t.Fatalf("le=+Inf bucket = %v (seen=%v), want 3", inf, sawInf)
	}
}

func TestParseExpositionInfValues(t *testing.T) {
	text := "# TYPE edge gauge\nedge{dir=\"up\"} +Inf\nedge{dir=\"down\"} -Inf\n"
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if !math.IsInf(fams[0].Samples[0].Value, 1) || !math.IsInf(fams[0].Samples[1].Value, -1) {
		t.Fatalf("samples = %+v", fams[0].Samples)
	}
}

func TestParseExpositionErrors(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":   "loose_metric 1\n",
		"duplicate family":      "# TYPE a counter\na 1\n# TYPE a counter\na 2\n",
		"histogram without inf": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"malformed comment":     "# NOPE a counter\n",
		"unterminated labels":   "# TYPE a counter\na{x=\"1\" 2\n",
		"bad value":             "# TYPE a counter\na one\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
	// Lint stays a thin wrapper over the same checks.
	if err := Lint(strings.NewReader("loose_metric 1\n")); err == nil {
		t.Error("Lint: expected error, got none")
	}
}

// FuzzParseExposition: the parser never panics on arbitrary input, and
// whatever a Writer renders from valid names — any help text, label value
// and sample value — parses back to the same samples.
func FuzzParseExposition(f *testing.F) {
	f.Add("# HELP x_total A counter.\n# TYPE x_total counter\nx_total{a=\"b\"} 1\n", "req", "Help \\ text\n", "svc", "a\"b,c}", 1.5)
	f.Add("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n", "h", "", "le", "", math.Inf(1))
	f.Add("x{a=\"\\u00e9\"} NaN\n", "n:s", "\x00", "k", "\xff\u2028", math.NaN())
	f.Fuzz(func(t *testing.T, text, name, help, label, value string, v float64) {
		_, _ = ParseExposition(strings.NewReader(text))
		if !validMetricName(name) || !validMetricName(label) || label == "le" {
			return
		}
		mw := NewWriter()
		mw.Counter(name+"_total", help, v, label, value)
		mw.Gauge(name+"_g", help, v)
		var h Histogram
		h.Observe(1.5)
		mw.Histogram(name+"_h", help, h.Snapshot(), label, value)
		fams, err := ParseExposition(strings.NewReader(mw.String()))
		if err != nil {
			t.Fatalf("rendered exposition does not parse: %v\n%s", err, mw.String())
		}
		if len(fams) != 3 {
			t.Fatalf("parsed %d families, want 3", len(fams))
		}
		s := fams[0].Samples[0]
		if s.Name != name+"_total" || s.Labels[label] != value || !sameFloat(s.Value, v) {
			t.Fatalf("counter sample = %+v, want %s{%s=%q} %v", s, name+"_total", label, value, v)
		}
		if g := fams[1].Samples[0]; !sameFloat(g.Value, v) {
			t.Fatalf("gauge value = %v, want %v", g.Value, v)
		}
		for _, hs := range fams[2].Samples {
			if hs.Labels[label] != value {
				t.Fatalf("histogram sample %+v lost label %s=%q", hs, label, value)
			}
		}
	})
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
