package telemetry

import (
	"sort"
	"time"

	"gremlin/internal/campaign"
)

// Metric families the Differ reads. The latency histogram is labeled by
// the observing agent's service; a delay injected on edge src→dst
// inflates src's histogram (the delay is served at the caller's proxy),
// so differentials are measured at each faulted edge's Src.
const (
	familyDuration = "gremlin_agent_request_duration_seconds"
	familyProxied  = "gremlin_agent_proxied_total"
	familyAborted  = "gremlin_agent_aborted_total"
	familySevered  = "gremlin_agent_severed_total"

	familyLogDropped = "gremlin_agent_log_dropped"
	familySubDropped = "gremlin_store_subscriber_dropped_total"
)

// The recovery band: a service has recovered once its post-cleanup p99
// is within baseline×(1+recoveryTolerance)+recoverySlack. The slack
// keeps single-digit-millisecond baselines from being held to
// sub-millisecond precision.
const (
	recoveryTolerance = 0.5
	recoverySlack     = 10 * time.Millisecond
)

// Differ computes per-unit fault-window differentials from a scraped
// SeriesStore and the Recorder's windows.
type Differ struct {
	store   *SeriesStore
	windows []Window
}

// NewDiffer creates a Differ over store and windows.
func NewDiffer(store *SeriesStore, windows []Window) *Differ {
	return &Differ{store: store, windows: windows}
}

// DiffAll computes a differential for every closed window, in start
// order. Windows with no scraped signal are skipped.
func (d *Differ) DiffAll() []campaign.UnitTelemetry {
	var out []campaign.UnitTelemetry
	for _, w := range d.windows {
		if w.Active() {
			continue
		}
		if ut, ok := d.Diff(w); ok {
			out = append(out, ut)
		}
	}
	return out
}

// Diff computes one window's differential. ok is false when the store
// holds no request signal for any candidate service — nothing was
// scraped, or the window closed before a scrape tick landed inside it.
func (d *Differ) Diff(w Window) (campaign.UnitTelemetry, bool) {
	if w.Active() {
		return campaign.UnitTelemetry{}, false
	}
	best := campaign.UnitTelemetry{}
	bestScore := 0.0
	found := false
	for _, svc := range d.candidateServices(w) {
		ut, ok := d.diffService(w, svc)
		if !ok {
			continue
		}
		// Prefer the service where the fault shows: largest p99 delta,
		// then largest error-ratio delta.
		score := (ut.FaultP99Millis - ut.BaselineP99Millis) +
			1000*(ut.FaultErrorRatio-ut.BaselineErrorRatio)
		if !found || score > bestScore {
			best, bestScore, found = ut, score, true
		}
	}
	return best, found
}

// candidateServices are where the fault's signal can appear: the Src of
// every faulted edge (latency and errors are observed at the caller's
// agent), falling back to the unit's own service.
func (d *Differ) candidateServices(w Window) []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range w.Edges {
		if e.Src != "" && !seen[e.Src] {
			seen[e.Src] = true
			out = append(out, e.Src)
		}
	}
	if len(out) == 0 && w.Service != "" {
		out = append(out, w.Service)
	}
	sort.Strings(out)
	return out
}

func (d *Differ) diffService(w Window, svc string) (campaign.UnitTelemetry, bool) {
	match := map[string]string{"service": svc}
	baseline := d.baselineIntervals(w, svc)
	fault := []Interval{{From: w.Start, To: w.End}}

	baseReqs := d.store.IncreaseOver(familyDuration+"_count", match, baseline)
	faultReqs := d.store.IncreaseOver(familyDuration+"_count", match, fault)
	if baseReqs <= 0 && faultReqs <= 0 {
		return campaign.UnitTelemetry{}, false
	}

	ut := campaign.UnitTelemetry{
		Unit:    w.Unit,
		Service: svc,
		Target:  w.Target,

		BaselineRate: d.store.RateOver(familyDuration+"_count", match, baseline),
		FaultRate:    d.store.RateOver(familyDuration+"_count", match, fault),

		BaselineErrorRatio: errorRatio(d.store, match, baseline),
		FaultErrorRatio:    errorRatio(d.store, match, fault),
	}
	if p, ok := d.store.QuantileOver(familyDuration, match, 0.50, baseline); ok {
		ut.BaselineP50Millis = 1000 * p
	}
	if p, ok := d.store.QuantileOver(familyDuration, match, 0.50, fault); ok {
		ut.FaultP50Millis = 1000 * p
	}
	basP99, basOK := d.store.QuantileOver(familyDuration, match, 0.99, baseline)
	if basOK {
		ut.BaselineP99Millis = 1000 * basP99
	}
	if p, ok := d.store.QuantileOver(familyDuration, match, 0.99, fault); ok {
		ut.FaultP99Millis = 1000 * p
	}

	// Drops are fleet-wide: the faulted edge's pressure can drop records
	// anywhere on the shipping path, including the store's fan-out.
	drops := d.store.Increase(familyLogDropped, nil, w.Start, w.End) +
		d.store.Increase(familySubDropped, nil, w.Start, w.End)
	ut.DropsDelta = int64(drops + 0.5)

	if basOK {
		ut.Recovered, ut.RecoveryMillis = d.recovery(w, match, basP99)
	}
	return ut, true
}

// baselineIntervals is everything scraped before the window, minus any
// other window that overlaps it and could plausibly pollute this
// service's baseline (parallel campaigns).
func (d *Differ) baselineIntervals(w Window, svc string) []Interval {
	first, _, ok := d.store.Bounds()
	if !ok {
		return nil
	}
	from := first.Add(-time.Millisecond)
	if !w.Start.After(from) {
		return nil
	}
	ivs := []Interval{{From: from, To: w.Start}}
	for _, other := range d.windows {
		if other.RunID == w.RunID {
			continue
		}
		end := other.End
		if other.Active() {
			end = w.Start
		}
		ivs = subtract(ivs, Interval{From: other.Start, To: end})
	}
	return ivs
}

// subtract removes cut from every interval in ivs.
func subtract(ivs []Interval, cut Interval) []Interval {
	if !cut.To.After(cut.From) {
		return ivs
	}
	var out []Interval
	for _, iv := range ivs {
		if !cut.From.Before(iv.To) || !cut.To.After(iv.From) {
			out = append(out, iv) // no overlap
			continue
		}
		if cut.From.After(iv.From) {
			out = append(out, Interval{From: iv.From, To: cut.From})
		}
		if cut.To.Before(iv.To) {
			out = append(out, Interval{From: cut.To, To: iv.To})
		}
	}
	return out
}

// errorRatio is the share of proxied requests aborted or severed over
// ivs.
func errorRatio(store *SeriesStore, match map[string]string, ivs []Interval) float64 {
	proxied := store.IncreaseOver(familyProxied, match, ivs)
	if proxied <= 0 {
		return 0
	}
	errs := store.IncreaseOver(familyAborted, match, ivs) +
		store.IncreaseOver(familySevered, match, ivs)
	return errs / proxied
}

// recovery steps through the scrape instants after the window closed,
// computing the p99 over (first, t] at each, where first is the first
// scrape after End, and reports the first instant the service is back
// inside the tolerance band of baseline. The scrape interval that spans
// End belongs to neither side: the window closes only after the unit's
// checks and revert, so the last scrape before End can predate the
// fault load's final exchanges, and counting from End would charge them
// to recovery. Scrapes that saw no new observations are skipped —
// recovery needs traffic to witness it.
func (d *Differ) recovery(w Window, match map[string]string, basP99 float64) (bool, int64) {
	band := basP99*(1+recoveryTolerance) + recoverySlack.Seconds()
	_, last, ok := d.store.Bounds()
	if !ok {
		return false, 0
	}
	stamps := d.store.Timestamps(familyDuration+"_count", match, w.End, last)
	if len(stamps) == 0 {
		return false, 0
	}
	for _, t := range stamps[1:] {
		iv := []Interval{{From: stamps[0], To: t}}
		if d.store.IncreaseOver(familyDuration+"_count", match, iv) <= 0 {
			continue
		}
		p, pok := d.store.QuantileOver(familyDuration, match, 0.99, iv)
		if !pok {
			continue
		}
		if p <= band {
			ms := t.Sub(w.End).Milliseconds()
			if ms <= 0 {
				ms = 1
			}
			return true, ms
		}
	}
	return false, 0
}
