package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/campaign"
	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/registry"
	"gremlin/internal/rules"
	"gremlin/internal/telemetry"
)

// runCampaign explores a deployment's fault space systematically: it
// enumerates scenario templates × targets × parameter grids from the
// application graph, executes the resulting recipes through a bounded
// worker pool (each run confined to its own request-ID namespace), prunes
// redundant scenarios by coverage signature, and folds the outcomes into
// an aggregate resilience scorecard.
//
// Progress appends to a JSONL journal, so an interrupted campaign (Ctrl-C,
// crash) resumes where it left off:
//
//	gremlin campaign \
//	    -graph graph.json -registry registry.json \
//	    -store http://127.0.0.1:9200 -load-url http://127.0.0.1:8080 \
//	    -parallelism 4 -journal campaign.jsonl -out scorecard.json
func runCampaign(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gremlin campaign", flag.ContinueOnError)
	d := deploymentFlags(fs, withLoad)
	var (
		requests     = fs.Int("requests", 20, "test requests per run")
		concurrency  = fs.Int("concurrency", 2, "load concurrency within one run")
		parallelism  = fs.Int("parallelism", 4, "concurrent campaign runs")
		id           = fs.String("id", "camp", "campaign ID (namespaces request IDs)")
		journalPath  = fs.String("journal", "", "JSONL journal for resume (optional)")
		outPath      = fs.String("out", "", "write the scorecard JSON here (optional)")
		mdPath       = fs.String("markdown", "", "write the Markdown scorecard here (default stdout)")
		skip         = fs.String("skip", "user", "comma-separated services to exclude as fault targets")
		templates    = fs.String("templates", "", "comma-separated scenario templates (default all: overload,crash,hang,partition,sever,delay)")
		chaos        = fs.Int("chaos", 0, "append this many randomized chaos draws to the plan")
		chaosSeed    = fs.Int64("chaos-seed", 1, "seed for the chaos draws")
		maxLatency   = fs.Duration("max-latency", 0, "per-request latency bound asserted on callers (default 10s)")
		keepLogs     = fs.Bool("keep-logs", false, "leave each run's records in the store instead of reclaiming them")
		lease        = fs.Duration("lease", 30*time.Second, "lease TTL for each run's staged faults (0 disables leasing): if the campaign dies, agents self-expire the rules after this long")
		liveAsserts  = fs.String("live-asserts", "", "JSON file of online assertions (checker specs); a live violation aborts that run's load early")
		telemetryOn  = fs.Bool("telemetry", false, "scrape fleet metrics and add fault-window differentials to the scorecard")
		scrapeEvery  = fs.Duration("scrape-interval", time.Second, "metric scrape interval (with -telemetry)")
		telListen    = fs.String("telemetry-listen", "", "serve live snapshots (JSON + SSE) on this address for gremlin top (implies -telemetry)")
		recoveryWait = fs.Duration("recovery-wait", 5*time.Second, "keep scraping this long after the last unit to measure recovery (with -telemetry)")
		htmlPath     = fs.String("html", "", "write a static HTML telemetry report here (implies -telemetry)")
		profileDir   = fs.String("profile-dir", "", "capture a CPU profile per run here, kept only for failed/error runs (<runID>.cpu.pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A bad spec file fails before the store is contacted.
	var specs []checker.Spec
	if *liveAsserts != "" {
		var err error
		if specs, err = loadSpecs(*liveAsserts); err != nil {
			return err
		}
	}
	if err := d.open(); err != nil {
		return err
	}

	units, err := campaign.Enumerate(d.graph, campaign.EnumerateOptions{
		Generate: core.GenerateOptions{
			SkipServices: splitComma(*skip),
			MaxLatency:   *maxLatency,
		},
		Templates: splitComma(*templates),
		Chaos:     *chaos,
		ChaosSeed: *chaosSeed,
	})
	if err != nil {
		return err
	}
	if len(units) == 0 {
		return fmt.Errorf("gremlin campaign: the graph yields no testable units")
	}
	fmt.Printf("campaign %s: %d units over %d edges, parallelism %d\n",
		*id, len(units), len(d.graph.Edges()), *parallelism)

	// Shipping health across the data plane: campaigns flag runs during
	// which any agent dropped observation records.
	agentURLs, err := registry.AllAgentURLs(d.registry)
	if err != nil {
		return err
	}
	var agents []*agentapi.Client
	for _, u := range agentURLs {
		agents = append(agents, agentapi.New(u, nil))
	}

	// Telemetry plane: out-of-band metric scraping plus fault-window
	// bookkeeping. It reads agent /metrics endpoints only — it never
	// touches the event log the assertions run on.
	if *telListen != "" || *htmlPath != "" {
		*telemetryOn = true
	}
	var (
		recorder *telemetry.Recorder
		scraper  *telemetry.Scraper
		series   *telemetry.SeriesStore
	)
	if *telemetryOn {
		targets, err := telemetry.FleetTargets(d.registry, d.storeURL)
		if err != nil {
			return err
		}
		recorder = telemetry.NewRecorder()
		series = telemetry.NewSeriesStore(0)
		scraper = telemetry.NewScraper(series, targets, telemetry.ScrapeOptions{Interval: *scrapeEvery})
		scrapeCtx, stopScraping := context.WithCancel(context.Background())
		defer stopScraping()
		go scraper.Run(scrapeCtx)
		if *telListen != "" {
			snap := func() telemetry.Snapshot {
				return telemetry.BuildSnapshot(series, recorder, scraper, 5*time.Second, 30*time.Second)
			}
			tsrv, err := telemetry.NewServer(*telListen, snap, telemetry.ServerOptions{
				Interval: *scrapeEvery,
				Metrics:  scraper.WriteMetrics,
			})
			if err != nil {
				return err
			}
			defer tsrv.Close()
			fmt.Printf("telemetry: serving snapshots at %s (gremlin top -attach %s)\n", tsrv.URL(), tsrv.URL())
		}
	}

	var observers []campaign.RunObserver
	if recorder != nil {
		observers = append(observers, recorder)
	}
	if *profileDir != "" {
		p, err := newProfiler(*profileDir)
		if err != nil {
			return err
		}
		observers = append(observers, p)
	}

	opts := campaign.Options{
		ID:          *id,
		Parallelism: *parallelism,
		JournalPath: *journalPath,
		LeaseTTL:    *lease,
		Load:        d.load(*requests, *concurrency),
		DroppedCount: func() int64 {
			var sum int64
			for _, a := range agents {
				info, err := a.Info(context.Background())
				if err != nil {
					continue // unreachable agent: counted as zero, not fatal
				}
				sum += info.Stats.LogDropped
			}
			return sum
		},
		OnEntry: func(e campaign.Entry) {
			fmt.Printf("  %-7s %-9s %s\n", e.Status, e.Kind, e.Unit)
		},
		RunObserver: campaign.CombineObservers(observers...),
	}
	if !*keepLogs {
		opts.Cleanup = d.reclaim
	}
	if *liveAsserts != "" {
		// Bounds are stateful, so each run builds its own set.
		opts.Observe = &campaign.ObserveOptions{
			Feed: checker.ClientFeed(d.store),
			Checks: func(campaign.Unit, string) []*checker.Bound {
				bounds, err := checker.BuildAll(specs)
				if err != nil {
					panic(err) // LoadSpecs accepted these specs, and Build is deterministic
				}
				return bounds
			},
		}
	}

	// Cancelling ctx (Ctrl-C) stops dispatching; in-flight runs drain and
	// are journalled, so a re-run with the same -journal resumes instead
	// of starting over.
	sc, runErr := campaign.Run(ctx, d.runner, units, opts)
	interrupted := errors.Is(runErr, context.Canceled)
	if runErr != nil && !interrupted {
		return runErr
	}

	if *telemetryOn && runErr == nil {
		// Let the scraper observe the post-fault tail, then diff each
		// window against its baseline.
		if *recoveryWait > 0 {
			fmt.Printf("telemetry: scraping %s more for recovery measurement\n", *recoveryWait)
			time.Sleep(*recoveryWait)
		}
		measured := telemetry.NewDiffer(series, recorder.Windows(), telemetry.DiffOptions{}).DiffAll()
		for _, ut := range measured {
			ut := ut
			entry := campaign.Entry{
				Campaign: *id, Unit: ut.Unit, Status: campaign.StatusTelemetry, Telemetry: &ut,
			}
			if err := campaign.AppendEntry(*journalPath, entry); err != nil {
				log.Printf("journal telemetry %s: %v", ut.Unit, err)
			}
		}
		stats := scraper.Stats()
		sc.Telemetry = &campaign.TelemetrySummary{
			Targets:       len(stats.Targets),
			Scrapes:       stats.Scrapes,
			ScrapeErrors:  stats.Errors,
			StaleTargets:  stats.StaleTargets,
			Series:        series.SeriesCount(),
			RingEvictions: series.Evictions(),
			Units:         measured,
		}
		if *htmlPath != "" {
			report := telemetry.HTMLReport("gremlin campaign "+*id, series, recorder.Windows(), measured)
			if err := os.WriteFile(*htmlPath, []byte(report), 0o644); err != nil {
				return err
			}
		}
	}

	if err := writeScorecard(sc, *mdPath, *outPath); err != nil {
		return err
	}
	if interrupted {
		return fmt.Errorf("gremlin campaign: interrupted with %d of %d units settled — rerun with the same -journal to resume",
			sc.Units, len(units))
	}
	if sc.Errors > 0 {
		return fmt.Errorf("gremlin campaign: %d units hit operational errors", sc.Errors)
	}
	if sc.Failed > 0 {
		return fmt.Errorf("gremlin campaign: %d of %d executed units failed assertions", sc.Failed, sc.Executed)
	}
	return nil
}

// profiler is a campaign.RunObserver that captures a CPU profile of the
// campaign process per run and keeps it only when the run fails (assertion
// violation or operational error), named <dir>/<runID>.cpu.pprof — a
// post-mortem of what the engine itself was doing while the unit went
// wrong. The Go runtime allows one CPU profile at a time, so with
// Parallelism > 1 overlapping runs are skipped rather than queued: the
// profile must cover the run it is named after, not some later window.
type profiler struct {
	dir string

	// profMu is held from StartCPUProfile to StopCPUProfile; TryLock in
	// RunStarted is what skips overlapping runs.
	profMu sync.Mutex

	mu     sync.Mutex // guards active, f
	active string
	f      *os.File
}

func newProfiler(dir string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &profiler{dir: dir}, nil
}

func (p *profiler) RunStarted(u campaign.Unit, runID string, _ []rules.Rule) {
	if !p.profMu.TryLock() {
		return // another run's profile is in flight
	}
	path := filepath.Join(p.dir, runID+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		p.profMu.Unlock()
		log.Printf("profile %s: %v", runID, err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		p.profMu.Unlock()
		log.Printf("profile %s: %v", runID, err)
		return
	}
	p.mu.Lock()
	p.active, p.f = runID, f
	p.mu.Unlock()
}

func (p *profiler) RunFinished(_ campaign.Unit, runID string, e campaign.Entry) {
	p.mu.Lock()
	if p.active != runID {
		p.mu.Unlock()
		return
	}
	f := p.f
	p.active, p.f = "", nil
	p.mu.Unlock()

	pprof.StopCPUProfile()
	path := f.Name()
	if err := f.Close(); err != nil {
		log.Printf("profile %s: %v", runID, err)
	}
	p.profMu.Unlock()
	if e.Status != campaign.StatusFailed && e.Status != campaign.StatusError {
		os.Remove(path) // healthy run: the profile is noise
	}
}
