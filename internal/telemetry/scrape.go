package telemetry

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"gremlin/internal/httpx"
	"gremlin/internal/metrics"
)

// Target is one /metrics endpoint the Scraper polls. Name becomes the
// sample's instance label, so replicas of one service stay distinct
// series.
type Target struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// ScrapeOptions configures a Scraper.
type ScrapeOptions struct {
	// Interval is the poll period (default 1s). It also bounds each
	// target fetch, so one slow target can never skid the sweep into
	// the next tick, and a target is stale 3×Interval after its last
	// successful scrape.
	Interval time.Duration
}

// scrapeConcurrency bounds how many targets are scraped at once.
const scrapeConcurrency = 8

// TargetStats is one target's scrape health.
type TargetStats struct {
	Name        string    `json:"name"`
	URL         string    `json:"url"`
	Scrapes     int64     `json:"scrapes"`
	Errors      int64     `json:"errors"`
	LastSuccess time.Time `json:"lastSuccess,omitempty"`
	LastError   string    `json:"lastError,omitempty"`
	Stale       bool      `json:"stale"`
}

// ScraperStats is one snapshot of the whole scraper's health.
type ScraperStats struct {
	Targets      []TargetStats `json:"targets"`
	Scrapes      int64         `json:"scrapes"`
	Errors       int64         `json:"errors"`
	StaleTargets int           `json:"staleTargets"`
}

type target struct {
	Target
	mu          sync.Mutex
	scrapes     int64
	errors      int64
	lastSuccess time.Time
	lastErr     string
}

// Scraper polls every target's /metrics endpoint on an interval with
// bounded concurrency and appends the parsed samples into a SeriesStore.
// The scrape path is fully out-of-band: it issues plain GETs against
// control endpoints and never writes event-log records.
type Scraper struct {
	store   *SeriesStore
	targets []*target
	opts    ScrapeOptions
}

// NewScraper creates a scraper over store. Targets with empty URLs are
// dropped.
func NewScraper(store *SeriesStore, targets []Target, opts ScrapeOptions) *Scraper {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	s := &Scraper{store: store, opts: opts}
	for _, t := range targets {
		if t.URL == "" {
			continue
		}
		s.targets = append(s.targets, &target{Target: t})
	}
	sort.Slice(s.targets, func(i, j int) bool { return s.targets[i].Name < s.targets[j].Name })
	return s
}

// Run polls every target each interval until ctx is done. The first
// sweep runs immediately.
func (s *Scraper) Run(ctx context.Context) {
	tick := time.NewTicker(s.opts.Interval)
	defer tick.Stop()
	for {
		s.ScrapeOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// ScrapeOnce sweeps every target once with bounded concurrency and
// returns when the sweep completes — the deterministic entry point tests
// and the Differ's final flush use.
func (s *Scraper) ScrapeOnce(ctx context.Context) {
	sem := make(chan struct{}, scrapeConcurrency)
	var wg sync.WaitGroup
	for _, t := range s.targets {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(t *target) {
			defer wg.Done()
			defer func() { <-sem }()
			s.scrapeTarget(ctx, t)
		}(t)
	}
	wg.Wait()
}

func (s *Scraper) scrapeTarget(ctx context.Context, t *target) {
	fctx, cancel := context.WithTimeout(ctx, s.opts.Interval)
	defer cancel()
	// Stamp with the scrape's start, as Prometheus does: the target
	// renders its counters at or after the stamp, so a point stamped
	// after an instant holds every observation made before that instant.
	now := time.Now()
	fams, err := s.fetch(fctx, t.URL)
	t.mu.Lock()
	t.scrapes++
	if err != nil {
		t.errors++
		t.lastErr = err.Error()
		t.mu.Unlock()
		return
	}
	t.lastSuccess = now
	t.lastErr = ""
	t.mu.Unlock()
	for _, f := range fams {
		for _, sm := range f.Samples {
			// ParseExposition hands out one fresh label map per sample.
			if _, ok := sm.Labels["instance"]; !ok {
				sm.Labels["instance"] = t.Name
			}
			s.store.Append(now, sm.Name, sm.Labels, sm.Value)
		}
	}
}

func (s *Scraper) fetch(ctx context.Context, url string) ([]metrics.Family, error) {
	resp, err := httpx.Client{BaseURL: url, HTTP: http.DefaultClient}.Do(ctx, http.MethodGet, "", nil)
	if err != nil {
		return nil, err
	}
	defer httpx.DrainClose(resp)
	return metrics.ParseExposition(resp.Body)
}

// Stats snapshots per-target and aggregate scrape health.
func (s *Scraper) Stats() ScraperStats {
	now := time.Now()
	var st ScraperStats
	for _, t := range s.targets {
		t.mu.Lock()
		ts := TargetStats{
			Name:        t.Name,
			URL:         t.URL,
			Scrapes:     t.scrapes,
			Errors:      t.errors,
			LastSuccess: t.lastSuccess,
			LastError:   t.lastErr,
		}
		t.mu.Unlock()
		ts.Stale = ts.LastSuccess.IsZero() || now.Sub(ts.LastSuccess) > 3*s.opts.Interval
		if ts.Scrapes == 0 {
			// Never swept yet: not stale, just not started.
			ts.Stale = false
		}
		st.Targets = append(st.Targets, ts)
		st.Scrapes += ts.Scrapes
		st.Errors += ts.Errors
		if ts.Stale {
			st.StaleTargets++
		}
	}
	return st
}

// WriteMetrics emits the scraper's own health as gremlin_telemetry_*
// families — the plane measures itself with the same format it scrapes.
func (s *Scraper) WriteMetrics(mw *metrics.Writer) {
	st := s.Stats()
	mw.Gauge("gremlin_telemetry_targets", "Scrape targets configured.", float64(len(st.Targets)))
	for _, t := range st.Targets {
		mw.Counter("gremlin_telemetry_scrapes_total", "Scrape attempts per target.", float64(t.Scrapes), "target", t.Name)
	}
	for _, t := range st.Targets {
		mw.Counter("gremlin_telemetry_scrape_errors_total", "Failed scrapes per target.", float64(t.Errors), "target", t.Name)
	}
	mw.Gauge("gremlin_telemetry_stale_targets", "Targets with no successful scrape within the staleness horizon.", float64(st.StaleTargets))
	mw.Gauge("gremlin_telemetry_series", "Distinct series retained in the ring store; a histogram is one.", float64(s.store.SeriesCount()))
	mw.Counter("gremlin_telemetry_ring_evictions_total", "Points overwritten by series-ring wraparound.", float64(s.store.Evictions()))
}
