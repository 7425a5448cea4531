package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"gremlin/internal/httpx"
	"gremlin/internal/metrics"
)

// ServiceStat is one service's live view over the snapshot window.
type ServiceStat struct {
	Service    string  `json:"service"`
	Rate       float64 `json:"rate"` // requests per second
	ErrorRatio float64 `json:"errorRatio"`
	P50Millis  float64 `json:"p50Millis,omitempty"`
	P99Millis  float64 `json:"p99Millis,omitempty"`
	HasLatency bool    `json:"hasLatency"`
}

// Snapshot is one live view of the fleet: per-service rate, error ratio,
// and latency quantiles over the trailing window, plus fault windows and
// scraper health. It is what the telemetry server serves and what
// gremlin-top renders.
type Snapshot struct {
	At           time.Time     `json:"at"`
	WindowMillis int64         `json:"windowMillis"`
	Services     []ServiceStat `json:"services"`
	Active       []Window      `json:"active,omitempty"`
	Recent       []Window      `json:"recent,omitempty"`
	Scraper      ScraperStats  `json:"scraper"`
}

// BuildSnapshot computes a live view over the trailing window from a
// scraped store. rec may be nil (no campaign attached); sc may be nil
// (caller owns scraping). recentFor bounds how long closed windows stay
// in Recent — gremlin-top's violation flashes read from there.
func BuildSnapshot(store *SeriesStore, rec *Recorder, sc *Scraper, window, recentFor time.Duration) Snapshot {
	if window <= 0 {
		window = 5 * time.Second
	}
	now := time.Now()
	from := now.Add(-window)
	snap := Snapshot{At: now, WindowMillis: window.Milliseconds()}
	for _, svc := range store.LabelValues(familyDuration+"_count", "service") {
		match := map[string]string{"service": svc}
		ss := ServiceStat{
			Service:    svc,
			Rate:       store.Rate(familyDuration+"_count", match, from, now),
			ErrorRatio: errorRatio(store, match, []Interval{{From: from, To: now}}),
		}
		if p, ok := store.Quantile(familyDuration, match, 0.50, from, now); ok {
			ss.P50Millis, ss.HasLatency = 1000*p, true
		}
		if p, ok := store.Quantile(familyDuration, match, 0.99, from, now); ok {
			ss.P99Millis, ss.HasLatency = 1000*p, true
		}
		snap.Services = append(snap.Services, ss)
	}
	sort.Slice(snap.Services, func(i, j int) bool { return snap.Services[i].Service < snap.Services[j].Service })
	if rec != nil {
		for _, w := range rec.Windows() {
			switch {
			case w.Active():
				snap.Active = append(snap.Active, w)
			case recentFor > 0 && now.Sub(w.End) <= recentFor:
				snap.Recent = append(snap.Recent, w)
			}
		}
	}
	if sc != nil {
		snap.Scraper = sc.Stats()
	}
	return snap
}

// ServerOptions configures the telemetry server.
type ServerOptions struct {
	// Interval paces SSE snapshot pushes (default 1s).
	Interval time.Duration

	// Metrics, when set, contributes families to GET /metrics —
	// typically the Scraper's WriteMetrics.
	Metrics func(*metrics.Writer)
}

// Server serves live telemetry: GET /v1/snapshot returns one JSON
// Snapshot, GET /v1/stream pushes them as Server-Sent Events, and GET
// /metrics exposes the plane's own health. gremlin-top attaches here.
type Server struct {
	http *httpx.Server
	snap func() Snapshot
	opts ServerOptions
}

// NewServer creates and starts a telemetry server bound to addr (use
// "127.0.0.1:0" for an ephemeral port). snap is called per request /
// push tick.
func NewServer(addr string, snap func() Snapshot, opts ServerOptions) (*Server, error) {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	s := &Server{snap: snap, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", httpx.Healthz)
	hs, err := httpx.NewServer(addr, mux)
	if err != nil {
		return nil, err
	}
	s.http = hs
	hs.Start()
	return s, nil
}

// URL returns the server's base URL.
func (s *Server) URL() string { return s.http.URL() }

// Close shuts the server down.
func (s *Server) Close() error { return s.http.Close() }

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, s.snap())
}

// handleStream pushes one snapshot immediately and then one per
// interval, as Server-Sent Events, until the client goes away.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	ev, ok := httpx.StartEvents(w)
	if !ok {
		return
	}
	tick := time.NewTicker(s.opts.Interval)
	defer tick.Stop()
	for {
		b, err := json.Marshal(s.snap())
		if err != nil || ev.Send("", b) != nil {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	mw := metrics.NewWriter()
	if s.opts.Metrics != nil {
		s.opts.Metrics(mw)
	}
	mw.Serve(w)
}
