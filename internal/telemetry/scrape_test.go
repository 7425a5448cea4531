package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gremlin/internal/metrics"
)

func metricsHandler(counter *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mw := metrics.NewWriter()
		mw.Counter("gremlin_agent_proxied_total", "Proxied.", float64(counter.Load()), "service", "web")
		mw.Gauge("gremlin_agent_rules", "Rules.", 2)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		mw.WriteTo(w)
	}
}

func TestScraperAppendsSamplesWithInstanceLabel(t *testing.T) {
	var c atomic.Int64
	c.Store(5)
	srv := httptest.NewServer(metricsHandler(&c))
	defer srv.Close()

	st := NewSeriesStore(0)
	sc := NewScraper(st, []Target{
		{Name: "web", URL: srv.URL},
		{Name: "", URL: ""}, // dropped
	}, ScrapeOptions{Interval: 10 * time.Millisecond})

	sc.ScrapeOnce(context.Background())
	c.Store(9)
	sc.ScrapeOnce(context.Background())

	const name = "gremlin_agent_proxied_total"
	match := map[string]string{"service": "web"}
	if inst := st.LabelValues(name, "instance"); len(inst) != 1 || inst[0] != "web" {
		t.Fatalf("instance labels = %v", inst)
	}
	first, last, _ := st.Bounds()
	if n := len(st.Timestamps(name, match, first.Add(-time.Second), last)); n != 2 {
		t.Fatalf("points = %d, want 2", n)
	}
	// 5, then 9: the second point is the latest value.
	if inc := st.Increase(name, match, first.Add(-time.Second), last); inc != 4 {
		t.Fatalf("increase = %v, want 4", inc)
	}

	stats := sc.Stats()
	if stats.Scrapes != 2 || stats.Errors != 0 || stats.StaleTargets != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestScraperCountsErrorsAndStaleness(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	st := NewSeriesStore(0)
	sc := NewScraper(st, []Target{{Name: "bad", URL: srv.URL}},
		ScrapeOptions{Interval: 5 * time.Millisecond})
	sc.ScrapeOnce(context.Background())

	stats := sc.Stats()
	if stats.Errors != 1 {
		t.Fatalf("errors = %d", stats.Errors)
	}
	if stats.StaleTargets != 1 {
		t.Fatalf("stale = %d (no success ever, horizon passed)", stats.StaleTargets)
	}
	if stats.Targets[0].LastError == "" {
		t.Fatal("last error not recorded")
	}
	if st.SeriesCount() != 0 {
		t.Fatal("failed scrape must not append samples")
	}

	// The scraper's own exposition stays lintable and carries every
	// documented family.
	mw := metrics.NewWriter()
	sc.WriteMetrics(mw)
	text := mw.String()
	if err := metrics.Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("self metrics lint: %v", err)
	}
	for _, fam := range []string{
		"gremlin_telemetry_targets",
		"gremlin_telemetry_scrapes_total",
		"gremlin_telemetry_scrape_errors_total",
		"gremlin_telemetry_stale_targets",
		"gremlin_telemetry_series",
		"gremlin_telemetry_ring_evictions_total",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("self metrics missing %s", fam)
		}
	}
}

// TestScraperBoundsFetchAndStalenessByInterval: a target that answers
// once and then hangs costs a sweep no more than about Interval, and is
// reported stale only once 3×Interval has passed since its last success.
func TestScraperBoundsFetchAndStalenessByInterval(t *testing.T) {
	const interval = 50 * time.Millisecond
	var c atomic.Int64
	var calls atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		metricsHandler(&c)(w, r)
	}))
	defer srv.Close()
	defer close(release)

	sc := NewScraper(NewSeriesStore(0), []Target{{Name: "slow", URL: srv.URL}}, ScrapeOptions{Interval: interval})
	sc.ScrapeOnce(context.Background())
	last := sc.Stats().Targets[0].LastSuccess
	if last.IsZero() {
		t.Fatal("first scrape did not succeed")
	}

	start := time.Now()
	sc.ScrapeOnce(context.Background())
	if took := time.Since(start); took < interval || took > time.Second {
		t.Fatalf("sweep over a hung target took %v, want about %v", took, interval)
	}
	stats := sc.Stats()
	checked := time.Now()
	if stats.Errors != 1 || stats.Targets[0].LastError == "" {
		t.Fatalf("hung fetch not counted as one error: %+v", stats)
	}
	if checked.Sub(last) < 3*interval && stats.StaleTargets != 0 {
		t.Fatalf("stale %v after the last success, before 3×Interval", checked.Sub(last))
	}

	time.Sleep(time.Until(last.Add(3*interval + 10*time.Millisecond)))
	if stats := sc.Stats(); stats.StaleTargets != 1 || !stats.Targets[0].Stale {
		t.Fatalf("not stale %v after the last success: %+v", time.Since(last), stats)
	}
}

func TestTelemetryServerSnapshotAndStream(t *testing.T) {
	st := NewSeriesStore(0)
	now := time.Now()
	for i := 0; i < 3; i++ {
		ts := now.Add(time.Duration(i-3) * time.Second)
		m := map[string]string{"service": "web", "instance": "web"}
		st.Append(ts, familyDuration+"_count", m, float64(10*i))
		st.Append(ts, familyProxied, m, float64(10*i))
		lm := map[string]string{"service": "web", "instance": "web", "le": "+Inf"}
		st.Append(ts, familyDuration+"_bucket", lm, float64(10*i))
		fm := map[string]string{"service": "web", "instance": "web", "le": "0.01"}
		st.Append(ts, familyDuration+"_bucket", fm, float64(10*i))
	}
	rec := NewRecorder()
	snapFn := func() Snapshot { return BuildSnapshot(st, rec, nil, 10*time.Second, time.Minute) }

	srv, err := NewServer("127.0.0.1:0", snapFn, ServerOptions{Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/v1/snapshot")
	if err != nil {
		t.Fatalf("GET snapshot: %v", err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := jsonDecode(resp, &snap); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if len(snap.Services) != 1 || snap.Services[0].Service != "web" {
		t.Fatalf("snapshot services = %+v", snap.Services)
	}
	if snap.Services[0].Rate <= 0 {
		t.Fatalf("rate = %v, want positive", snap.Services[0].Rate)
	}

	// The SSE stream leads with one data frame immediately.
	sresp, err := http.Get(srv.URL() + "/v1/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	line, err := bufio.NewReader(sresp.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if !strings.HasPrefix(line, "data: ") || !strings.Contains(line, `"web"`) {
		t.Fatalf("stream line = %q", line)
	}
}

// TestTelemetryStreamDisconnectLeaksNoGoroutines: a /v1/stream client
// that vanishes mid-stream leaves no server goroutine behind.
func TestTelemetryStreamDisconnectLeaksNoGoroutines(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func() Snapshot { return Snapshot{} }, ServerOptions{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/stream HTTP/1.1\r\nHost: telemetry\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// Read up to the first frame: the handler is then streaming.
	br := bufio.NewReader(conn)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended before its first frame: %v", err)
		}
		if strings.HasPrefix(line, "data: ") {
			break
		}
	}
	if !inStreamHandler() {
		t.Fatal("no goroutine is serving the stream")
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for inStreamHandler() || runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind (%d at start), stream handler running: %v",
				runtime.NumGoroutine()-base, base, inStreamHandler())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// inStreamHandler reports whether any goroutine is inside handleStream.
func inStreamHandler() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "telemetry.(*Server).handleStream")
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
