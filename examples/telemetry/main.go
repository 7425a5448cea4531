// Command telemetry demonstrates — and self-verifies — the fleet
// telemetry plane end to end:
//
//  1. It builds a live user→web→db chain with sidecar Gremlin agents and
//     starts an out-of-band metric scraper over the agents' (and the
//     store's) /metrics endpoints.
//  2. Steady background load establishes a latency baseline.
//  3. A one-unit campaign injects a 150 ms delay on web→db; the telemetry
//     Recorder marks the fault window on the scraped series.
//  4. Post-fault load lets the Differ measure recovery; the program then
//     asserts the physics came out right: fault-window p99 strictly above
//     baseline p99, and a finite recovery time back into the tolerance
//     band.
//  5. It proves the plane is passive: a scrape-only quiet period adds
//     zero records to the event log the assertions run on.
//  6. The differentials round-trip through the campaign journal into the
//     scorecard's Telemetry section, render to a static HTML report with
//     SVG sparklines, and the gremlin top dashboard renders a frame
//     against the live fleet.
//
// Everything runs in this process tree on loopback TCP.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"gremlin/internal/campaign"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/loadgen"
	"gremlin/internal/microservice"
	"gremlin/internal/orchestrator"
	"gremlin/internal/registry"
	"gremlin/internal/telemetry"
	"gremlin/internal/topology"
)

const faultDelay = 150 * time.Millisecond

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== Gremlin telemetry plane: scrape, diff, recover ===")

	work, err := os.MkdirTemp("", "gremlin-telemetry-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	app, err := topology.Build(topology.Spec{
		Services: []topology.ServiceSpec{
			{Name: "web", DependsOn: []string{"db"},
				Handler: microservice.FanOutHandler(microservice.FailFast)},
			{Name: "db", Handler: microservice.LeafHandler("db-rows"),
				WorkTime: 2 * time.Millisecond},
		},
		RNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		return err
	}
	defer app.Close()

	// The store serves /metrics too; scraping it alongside the agents
	// exercises the multi-target path.
	storeSrv, err := eventlog.NewServer("127.0.0.1:0", app.Store)
	if err != nil {
		return err
	}
	defer storeSrv.Close()

	targets, err := telemetry.FleetTargets(app.Registry, storeSrv.URL())
	if err != nil {
		return err
	}
	fmt.Printf("\nscraping %d targets every 100ms:", len(targets))
	for _, t := range targets {
		fmt.Printf(" %s", t.Name)
	}
	fmt.Println()

	series := telemetry.NewSeriesStore(0)
	scraper := telemetry.NewScraper(series, targets, telemetry.ScrapeOptions{Interval: 100 * time.Millisecond})
	scrapeCtx, stopScraping := context.WithCancel(context.Background())
	defer stopScraping()
	go scraper.Run(scrapeCtx)

	load := func(prefix string, dur time.Duration) error {
		deadline := time.Now().Add(dur)
		for i := 0; time.Now().Before(deadline); i++ {
			if _, err := loadgen.Run(app.EntryURL(), loadgen.Options{
				N: 20, Concurrency: 4, IDPrefix: fmt.Sprintf("%s-%d", prefix, i),
				RNG: rand.New(rand.NewSource(int64(i))),
			}); err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Println("\n--- baseline: steady load, no faults ---")
	if err := load("baseline", 1500*time.Millisecond); err != nil {
		return err
	}

	fmt.Println("\n--- campaign: one 150ms delay unit on web->db ---")
	all, err := campaign.Enumerate(app.Graph, campaign.EnumerateOptions{
		Generate: core.GenerateOptions{
			SkipServices: []string{topology.EdgeService},
			MaxLatency:   5 * time.Second,
		},
		Templates:  []string{"delay"},
		EdgeDelays: []time.Duration{faultDelay},
	})
	if err != nil {
		return err
	}
	var units []campaign.Unit
	for _, u := range all {
		if u.Target == "web->db" {
			units = append(units, u)
		}
	}
	if len(units) != 1 {
		return fmt.Errorf("want exactly one web->db delay unit, got %d", len(units))
	}

	recorder := telemetry.NewRecorder()
	runner := core.NewRunner(app.Graph, orchestrator.New(app.Registry), app.Store, app.Store)
	journal := filepath.Join(work, "journal.jsonl")
	sc, err := campaign.Run(context.Background(), runner, units, campaign.Options{
		ID:          "telemetry-demo",
		JournalPath: journal,
		RunObserver: recorder,
		Load: func(ctx context.Context, idPrefix string) error {
			_, err := loadgen.Run(app.EntryURL(), loadgen.Options{
				N: 60, Concurrency: 4, IDPrefix: idPrefix,
				Context: ctx,
				RNG:     rand.New(rand.NewSource(99)),
			})
			return err
		},
		Cleanup: func(pat string) { _, _ = app.Store.ClearMatching(pat) },
		OnEntry: func(e campaign.Entry) {
			fmt.Printf("  %-7s %-9s %s\n", e.Status, e.Kind, e.Unit)
		},
	})
	if err != nil {
		return err
	}
	windows := recorder.Windows()
	if len(windows) != 1 || windows[0].Active() {
		return fmt.Errorf("recorder should hold one closed window, got %+v", windows)
	}

	fmt.Println("\n--- recovery: fault removed, load continues ---")
	if err := load("recovery", 1500*time.Millisecond); err != nil {
		return err
	}

	// The plane must be passive: with load stopped, scraping alone adds
	// nothing to the event log the assertions run on.
	before := app.Store.Appended()
	time.Sleep(600 * time.Millisecond) // several scrape sweeps
	if after := app.Store.Appended(); after != before {
		return fmt.Errorf("scraper wrote to the event log: %d records appeared during a scrape-only quiet period", after-before)
	}
	fmt.Println("\nquiet period: scraping added 0 event-log records (plane is out-of-band)")

	measured := telemetry.NewDiffer(series, windows, telemetry.DiffOptions{}).DiffAll()
	if len(measured) != 1 {
		return fmt.Errorf("want one measured unit, got %d", len(measured))
	}
	ut := measured[0]
	fmt.Printf("\nunit %s @ %s:\n", ut.Unit, ut.Service)
	fmt.Printf("  p99      %.1fms -> %.1fms\n", ut.BaselineP99Millis, ut.FaultP99Millis)
	fmt.Printf("  rate     %.1f/s -> %.1f/s\n", ut.BaselineRate, ut.FaultRate)
	fmt.Printf("  recovery %v (%dms)\n", ut.Recovered, ut.RecoveryMillis)

	// The physics the plane must measure: a 150ms delay on web->db shows
	// up at web (the caller's proxy serves the delay), and latency falls
	// back into the baseline band once the fault is removed.
	if ut.Service != "web" {
		return fmt.Errorf("latency signal should appear at web (the faulted edge's caller), got %q", ut.Service)
	}
	if ut.FaultP99Millis <= ut.BaselineP99Millis {
		return fmt.Errorf("fault p99 %.1fms not above baseline p99 %.1fms", ut.FaultP99Millis, ut.BaselineP99Millis)
	}
	if ut.FaultP99Millis < float64(faultDelay.Milliseconds()) {
		return fmt.Errorf("fault p99 %.1fms below the injected %s delay", ut.FaultP99Millis, faultDelay)
	}
	if !ut.Recovered || ut.RecoveryMillis <= 0 {
		return fmt.Errorf("expected finite recovery, got recovered=%v millis=%d", ut.Recovered, ut.RecoveryMillis)
	}

	// Round-trip: the differential journals as an annotation entry and
	// folds into the scorecard's Telemetry section on load.
	if err := campaign.AppendEntry(journal, campaign.Entry{
		Campaign: "telemetry-demo", Unit: ut.Unit, Status: campaign.StatusTelemetry, Telemetry: &ut,
	}); err != nil {
		return err
	}
	entries, err := campaign.LoadJournal(journal)
	if err != nil {
		return err
	}
	folded := campaign.BuildScorecard("telemetry-demo", app.Graph, entries)
	if folded.Telemetry == nil || len(folded.Telemetry.Units) != 1 {
		return fmt.Errorf("journaled telemetry entry did not fold into the scorecard")
	}
	if folded.Units != sc.Units {
		return fmt.Errorf("telemetry annotation polluted the unit count: %d != %d", folded.Units, sc.Units)
	}
	stats := scraper.Stats()
	folded.Telemetry.Targets = len(stats.Targets)
	folded.Telemetry.Scrapes = stats.Scrapes
	folded.Telemetry.Series = series.SeriesCount()
	md := folded.Markdown()
	if !strings.Contains(md, "## Telemetry") {
		return fmt.Errorf("scorecard markdown lacks the Telemetry section")
	}
	fmt.Println("\nscorecard Telemetry section:")
	if i := strings.Index(md, "## Telemetry"); i >= 0 {
		fmt.Println(md[i:])
	}

	// Static HTML report with SVG sparklines.
	report := telemetry.HTMLReport("telemetry demo", series, windows, measured)
	if !strings.Contains(report, "<svg") {
		return fmt.Errorf("HTML report lacks sparklines")
	}
	htmlPath := filepath.Join(work, "report.html")
	if err := os.WriteFile(htmlPath, []byte(report), 0o644); err != nil {
		return err
	}
	fmt.Printf("HTML report: %d bytes with inline SVG sparklines\n", len(report))

	// Finally, the live dashboard: gremlin top scrapes the same fleet and
	// renders one plain frame.
	fmt.Println("\n--- gremlin top: one dashboard frame over the live fleet ---")
	regPath := filepath.Join(work, "registry.json")
	if err := writeRegistry(regPath, app.Registry); err != nil {
		return err
	}
	bin := filepath.Join(work, "gremlin")
	build := exec.Command("go", "build", "-o", bin, "./cmd/gremlin")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build gremlin: %w", err)
	}
	top := exec.Command(bin, "top", "-registry", regPath, "-store", storeSrv.URL(),
		"-interval", "100ms", "-window", "10s", "-frames", "2", "-plain")
	frame, err := top.CombinedOutput()
	if err != nil {
		return fmt.Errorf("gremlin top: %w\n%s", err, frame)
	}
	fmt.Print(string(frame))
	for _, want := range []string{"SERVICE", "web"} {
		if !strings.Contains(string(frame), want) {
			return fmt.Errorf("gremlin top frame missing %q:\n%s", want, frame)
		}
	}

	fmt.Println("\n=== done: fault physics measured, recovery finite, plane fully out-of-band ===")
	return nil
}

// writeRegistry dumps the app's registry as the JSON instance list the
// CLI tools consume.
func writeRegistry(path string, reg registry.Registry) error {
	services, err := reg.Services()
	if err != nil {
		return err
	}
	var out []registry.Instance
	for _, svc := range services {
		ins, err := reg.Instances(svc)
		if err != nil {
			return err
		}
		out = append(out, ins...)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
