package telemetry

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gremlin/internal/graph"
	"gremlin/internal/proxy"
	"gremlin/internal/rules"
	"gremlin/internal/trace"
)

// liveAgent is a real agent for service web in front of an upstream that
// answers at once, and a scraper over the agent's /metrics.
type liveAgent struct {
	agent   *proxy.Agent
	route   string
	store   *SeriesStore
	scraper *Scraper
}

func startLiveAgent(t *testing.T) *liveAgent {
	t.Helper()
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	t.Cleanup(upstream.Close)
	a, err := proxy.New(proxy.Config{
		ServiceName: "web",
		ControlAddr: "127.0.0.1:0",
		Routes: []proxy.Route{{
			Dst: "db", ListenAddr: "127.0.0.1:0", Targets: []string{upstream.Listener.Addr().String()},
		}},
		RNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	t.Cleanup(func() { _ = a.Close() })
	route, err := a.RouteURL("db")
	if err != nil {
		t.Fatal(err)
	}
	st := NewSeriesStore(0)
	sc := NewScraper(st, []Target{{Name: "web", URL: a.ControlURL() + "/metrics"}}, ScrapeOptions{})
	return &liveAgent{agent: a, route: route, store: st, scraper: sc}
}

// drive sends n sequential exchanges through the agent.
func (l *liveAgent) drive(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodGet, l.route+"/rows", nil)
		if err != nil {
			t.Fatal(err)
		}
		trace.SetRequestID(req, fmt.Sprintf("test-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func (l *liveAgent) scrape(t *testing.T) {
	t.Helper()
	l.scraper.ScrapeOnce(context.Background())
	if st := l.scraper.Stats(); st.Errors != 0 {
		t.Fatalf("scrape errors: %+v", st)
	}
}

// TestSnapshotSubMillisecondHop: gremlin top's P50 column over a real agent
// in front of a fast upstream reads the hop's sub-millisecond latency, not
// the width of a coarse first bucket.
func TestSnapshotSubMillisecondHop(t *testing.T) {
	l := startLiveAgent(t)
	l.scrape(t)
	l.drive(t, 300)
	l.scrape(t)
	snap := BuildSnapshot(l.store, nil, l.scraper, time.Minute, 0)
	if len(snap.Services) != 1 || !snap.Services[0].HasLatency {
		t.Fatalf("snapshot services = %+v", snap.Services)
	}
	s := snap.Services[0]
	t.Logf("p50 %.3fms p99 %.3fms", s.P50Millis, s.P99Millis)
	if s.P50Millis <= 0 || s.P50Millis >= 1 {
		t.Fatalf("p50 = %.3fms, want a sub-millisecond hop", s.P50Millis)
	}
	if s.P99Millis < s.P50Millis {
		t.Fatalf("p99 %.3fms below p50 %.3fms", s.P99Millis, s.P50Millis)
	}
}

// TestDifferSeesMillisecondDelay: a real agent's /metrics, through the
// Scraper, SeriesStore and Differ, separates fast exchanges from the same
// exchanges under a 1 ms Delay rule.
func TestDifferSeesMillisecondDelay(t *testing.T) {
	l := startLiveAgent(t)
	l.scrape(t)
	l.drive(t, 300)
	l.scrape(t)

	w := Window{
		Unit: "delay-web->db-1ms", RunID: "r1", Kind: "delay", Target: "web->db",
		Edges: []graph.Edge{{Src: "web", Dst: "db"}},
		Start: time.Now(),
	}
	if err := l.agent.InstallRules(rules.Rule{
		ID: "d1", Src: "web", Dst: "db", Action: rules.ActionDelay, Pattern: "test-*", DelayMillis: 1,
	}); err != nil {
		t.Fatal(err)
	}
	l.drive(t, 300)
	l.scrape(t)
	w.End = time.Now()
	l.agent.Matcher().Clear()

	ut, ok := NewDiffer(l.store, []Window{w}).Diff(w)
	if !ok {
		t.Fatal("no differential computed")
	}
	t.Logf("p50 %.3fms -> %.3fms, p99 %.3fms -> %.3fms", ut.BaselineP50Millis, ut.FaultP50Millis, ut.BaselineP99Millis, ut.FaultP99Millis)
	if ut.BaselineP50Millis <= 0 || ut.BaselineP50Millis >= 1 {
		t.Fatalf("baseline p50 = %.3fms, want a sub-millisecond hop", ut.BaselineP50Millis)
	}
	if ut.FaultP50Millis < ut.BaselineP50Millis+0.8 {
		t.Fatalf("fault p50 %.3fms, want at least 0.8ms above the baseline's %.3fms", ut.FaultP50Millis, ut.BaselineP50Millis)
	}
}

// TestScrapeOneSeriesPerHistogram: a real agent's latency histogram, with
// its whole bucket grid, is one series in the store, and quantiles still
// read it.
func TestScrapeOneSeriesPerHistogram(t *testing.T) {
	l := startLiveAgent(t)
	l.scrape(t)
	l.drive(t, 20)
	l.scrape(t)
	n := 0
	l.store.each(familyDuration+"_bucket", nil, func(*series) { n++ })
	if n != 1 {
		t.Fatalf("%s_bucket is %d series, want 1", familyDuration, n)
	}
	first, last, _ := l.store.Bounds()
	if _, ok := l.store.Quantile(familyDuration, nil, 0.5, first, last); !ok {
		t.Fatal("no quantile over the scraped histogram")
	}
}
