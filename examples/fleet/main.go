// Command fleet demonstrates — and self-verifies — the dynamic fleet
// plane at scale:
//
//  1. It generates a seeded 100-service layered DAG with 2–3 replicas per
//     service, builds it under a lease-based dynamic registry, and starts
//     active health checks plus the registry's expiry sweeper.
//  2. Open-loop Poisson load (arrivals fire on a schedule, not on
//     responses) establishes a clean baseline through the whole graph.
//  3. A one-unit delay campaign runs against the fleet with the telemetry
//     scraper watching every agent — the orchestrator locates and
//     configures all physical instances of the faulted service, per
//     replica (paper §4.2).
//  4. Replica-drain physics: killing one entry replica makes requests
//     routed to it fail, the health checker's fall threshold drains it
//     from every dependent's load-balancer pool, the registry records the
//     replica as down, and a post-drain open-loop window shows the error
//     ratio recovered.
//  5. Lease-lapse physics: a short-TTL "ghost" instance joins, the
//     discovery loop immediately targets its agent in a reconcile pass,
//     and once the lease lapses the reconciler stops targeting the dead
//     agent — no rules are pushed to it again.
//  6. gremlin fleet lists live membership against the registry server
//     and enforces an -expect floor, closing the loop from the operator's
//     seat.
//
// Everything runs in this process tree on loopback TCP.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"gremlin/internal/campaign"
	"gremlin/internal/core"
	"gremlin/internal/loadgen"
	"gremlin/internal/metrics"
	"gremlin/internal/orchestrator"
	"gremlin/internal/registry"
	"gremlin/internal/telemetry"
	"gremlin/internal/topology"
)

const (
	fleetServices = 100
	loadRate      = 25.0 // arrivals/sec; each arrival walks the whole DAG
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== Gremlin dynamic fleet: discovery, health, drain, open-loop load ===")

	work, err := os.MkdirTemp("", "gremlin-fleet-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// --- 1. generate and build the fleet under a dynamic registry ---
	spec := topology.Generate(topology.GenerateOptions{
		Services:    fleetServices,
		Layers:      5,
		MaxDegree:   2,
		MinReplicas: 2,
		MaxReplicas: 3,
		Seed:        42,
	})
	if len(spec.Services) != fleetServices {
		return fmt.Errorf("generator emitted %d services, want %d", len(spec.Services), fleetServices)
	}
	dyn := registry.NewDynamic(registry.DynamicOptions{DefaultTTL: 10 * time.Minute})
	spec.Registry = dyn
	spec.RNG = rand.New(rand.NewSource(1))

	app, err := topology.Build(spec)
	if err != nil {
		return err
	}
	defer app.Close()
	stopSweep := dyn.StartSweeper(100 * time.Millisecond)
	defer stopSweep()

	replicas := 0
	for _, s := range spec.Services {
		replicas += app.Replicas(s.Name)
	}
	members := dyn.Members()
	fmt.Printf("\nfleet: %d services, %d replicas, %d registry members (incl. edge), entry %s\n",
		len(spec.Services), replicas, len(members), app.Entry())
	if replicas < fleetServices*2 {
		return fmt.Errorf("multi-replica fleet expected ≥%d replicas, got %d", fleetServices*2, replicas)
	}
	if len(members) != replicas+1 { // every replica plus the edge agent
		return fmt.Errorf("registry holds %d members, want %d replicas + 1 edge", len(members), replicas)
	}

	hc := app.StartHealthChecks(topology.HealthOptions{
		Interval: 150 * time.Millisecond,
		Rise:     2,
		Fall:     3,
	})
	defer hc.Stop()

	// --- 2. baseline: open-loop Poisson load through the whole DAG ---
	fmt.Println("\n--- baseline: open-loop Poisson load ---")
	base, err := loadgen.RunOpenLoop(app.EntryURL(), loadgen.OpenLoopOptions{
		Arrival:  loadgen.Poisson{RatePerSec: loadRate},
		Duration: 1200 * time.Millisecond,
		RNG:      rand.New(rand.NewSource(2)),
	})
	if err != nil {
		return err
	}
	fmt.Printf("offered %.1f/s (%d arrivals, %d shed, peak in-flight %d), success %.3f\n",
		base.OfferedRate(), base.Arrivals, base.Shed, base.PeakInFlight, base.SuccessRate())
	if base.Arrivals == 0 || base.SuccessRate() < 0.995 {
		return fmt.Errorf("baseline unhealthy: %d arrivals, success %.3f", base.Arrivals, base.SuccessRate())
	}

	// --- 3. campaign + telemetry over the generated fleet ---
	var dep string
	for _, s := range spec.Services {
		if s.Name == app.Entry() && len(s.DependsOn) > 0 {
			dep = s.DependsOn[0]
		}
	}
	if dep == "" {
		return fmt.Errorf("entry %s has no dependencies to fault", app.Entry())
	}
	edgeName := app.Entry() + "->" + dep
	fmt.Printf("\n--- campaign: one 100ms delay unit on %s, telemetry scraping the fleet ---\n", edgeName)

	targets, err := telemetry.FleetTargets(dyn, "")
	if err != nil {
		return err
	}
	series := telemetry.NewSeriesStore(0)
	scraper := telemetry.NewScraper(series, targets, telemetry.ScrapeOptions{Interval: 500 * time.Millisecond})
	scrapeCtx, stopScraping := context.WithCancel(context.Background())
	defer stopScraping()
	go scraper.Run(scrapeCtx)

	all, err := campaign.Enumerate(app.Graph, campaign.EnumerateOptions{
		Generate: core.GenerateOptions{
			SkipServices: []string{topology.EdgeService},
			MaxLatency:   10 * time.Second,
		},
		Templates:  []string{"delay"},
		EdgeDelays: []time.Duration{100 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	var units []campaign.Unit
	for _, u := range all {
		if u.Target == edgeName {
			units = append(units, u)
		}
	}
	if len(units) != 1 {
		return fmt.Errorf("want exactly one %s delay unit, got %d of %d enumerated", edgeName, len(units), len(all))
	}

	orch := orchestrator.New(dyn)
	recorder := telemetry.NewRecorder()
	runner := core.NewRunner(app.Graph, orch, app.Store, app.Store)
	sc, err := campaign.Run(context.Background(), runner, units, campaign.Options{
		ID:          "fleet-demo",
		JournalPath: filepath.Join(work, "journal.jsonl"),
		RunObserver: recorder,
		Load: func(ctx context.Context, idPrefix string) error {
			_, err := loadgen.RunOpenLoop(app.EntryURL(), loadgen.OpenLoopOptions{
				Arrival:  loadgen.Poisson{RatePerSec: loadRate},
				Duration: 1200 * time.Millisecond,
				Context:  ctx,
				IDPrefix: idPrefix,
				RNG:      rand.New(rand.NewSource(3)),
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
	if sc.Failed != 0 || sc.Errors != 0 || sc.Passed < 1 {
		return fmt.Errorf("campaign did not pass cleanly: passed=%d failed=%d errors=%d", sc.Passed, sc.Failed, sc.Errors)
	}
	if ws := recorder.Windows(); len(ws) != 1 || ws[0].Active() {
		return fmt.Errorf("recorder should hold one closed fault window, got %+v", ws)
	}
	// §4.2: the faulted service's rules must have reached EVERY replica's
	// agent — the reconcile report carries one entry per physical instance.
	rep := orch.LastReport()
	if rep == nil {
		return fmt.Errorf("orchestrator kept no reconcile report")
	}
	agentTotal := 0
	for _, m := range members {
		if m.AgentControlURL != "" {
			agentTotal++
		}
	}
	if len(rep.Agents) != agentTotal {
		return fmt.Errorf("reconcile touched %d agents, want all %d physical instances", len(rep.Agents), agentTotal)
	}
	stats := scraper.Stats()
	fmt.Printf("campaign passed; orchestrator configured all %d physical instances; %d scrapes over %d targets, %d series\n",
		len(rep.Agents), stats.Scrapes, len(stats.Targets), series.SeriesCount())
	if stats.Scrapes == 0 || series.SeriesCount() == 0 {
		return fmt.Errorf("telemetry plane scraped nothing: %d scrapes, %d series", stats.Scrapes, series.SeriesCount())
	}
	stopScraping()

	// --- 4. replica-drain physics ---
	entry := app.Entry()
	edge := app.Agent(topology.EdgeService)
	pool, err := edge.RouteTargets(entry)
	if err != nil {
		return err
	}
	n := len(pool)
	fmt.Printf("\n--- drain: killing replica 1 of %s (pool of %d) ---\n", entry, n)
	if n < 2 {
		return fmt.Errorf("entry %s has %d replicas, need ≥2 to drain one", entry, n)
	}
	if err := app.KillReplica(entry, 1); err != nil {
		return err
	}

	// Requests keep landing on the dead replica until the fall threshold
	// trips: the error ratio must be visibly non-zero in this window.
	during, err := loadgen.RunOpenLoop(app.EntryURL(), loadgen.OpenLoopOptions{
		Arrival:  loadgen.Poisson{RatePerSec: 4 * loadRate},
		Duration: 350 * time.Millisecond,
		RNG:      rand.New(rand.NewSource(4)),
	})
	if err != nil {
		return err
	}
	fmt.Printf("kill window: %d arrivals, success %.3f\n", during.Arrivals, during.SuccessRate())
	if during.SuccessRate() >= 1 {
		return fmt.Errorf("killing a live replica produced zero errors — traffic never reached it")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		pool, err = edge.RouteTargets(entry)
		if err != nil {
			return err
		}
		if len(pool) == n-1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("health checker never drained the dead replica: pool still %v", pool)
		}
		time.Sleep(25 * time.Millisecond)
	}
	fmt.Printf("health checker drained the dead replica: pool %d -> %d\n", n, len(pool))

	ins, err := dyn.Instances(entry)
	if err != nil {
		return err
	}
	down := 0
	for _, in := range ins {
		if in.Health == "down" {
			down++
		}
	}
	if down != 1 {
		return fmt.Errorf("registry should record exactly 1 drained replica of %s as down, got %d", entry, down)
	}
	fmt.Println("registry records the drained replica as health=down")

	after, err := loadgen.RunOpenLoop(app.EntryURL(), loadgen.OpenLoopOptions{
		Arrival:  loadgen.Poisson{RatePerSec: loadRate},
		Duration: 1 * time.Second,
		RNG:      rand.New(rand.NewSource(5)),
	})
	if err != nil {
		return err
	}
	fmt.Printf("recovery window: %d arrivals, success %.3f\n", after.Arrivals, after.SuccessRate())
	if after.SuccessRate() < 0.995 {
		return fmt.Errorf("error ratio did not recover after drain: success %.3f", after.SuccessRate())
	}
	if after.SuccessRate() <= during.SuccessRate() {
		return fmt.Errorf("drain did not improve the error ratio: %.3f -> %.3f",
			during.SuccessRate(), after.SuccessRate())
	}

	// --- 5. lease-lapse physics through the discovery loop ---
	fmt.Println("\n--- lease lapse: short-TTL ghost instance joins and expires ---")
	stopDisc := orch.StartDiscovery(dyn, 5*time.Second)
	defer stopDisc()

	const ghostURL = "http://127.0.0.1:9"
	if err := dyn.Register(registry.Instance{
		Service: "ghost", Addr: "127.0.0.1:9", AgentControlURL: ghostURL,
	}, 400*time.Millisecond); err != nil {
		return err
	}
	targeted := func() bool {
		rep := orch.LastReport()
		if rep == nil {
			return false
		}
		for _, a := range rep.Agents {
			if a.URL == ghostURL {
				return true
			}
		}
		return false
	}
	deadline = time.Now().Add(5 * time.Second)
	for !targeted() {
		if time.Now().After(deadline) {
			return fmt.Errorf("discovery loop never reconciled toward the ghost agent")
		}
		time.Sleep(25 * time.Millisecond)
	}
	fmt.Println("join event: discovery-triggered reconcile targeted the ghost agent")

	deadline = time.Now().Add(5 * time.Second)
	for {
		svcs, err := dyn.Services()
		if err != nil {
			return err
		}
		gone := true
		for _, s := range svcs {
			if s == "ghost" {
				gone = false
			}
		}
		if gone && !targeted() {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("reconciler still targets the ghost after its lease lapsed")
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("lease lapsed: reconcile no longer targets the dead agent (no rules pushed to it)")

	mw := metrics.NewWriter()
	orch.WriteMetrics(mw)
	if !strings.Contains(mw.String(), "gremlin_reconciler_discovery_syncs_total") ||
		strings.Contains(mw.String(), "gremlin_reconciler_discovery_syncs_total 0\n") {
		return fmt.Errorf("discovery loop recorded no event-triggered reconcile passes")
	}

	// --- 6. the operator's view: gremlin fleet ---
	fmt.Println("\n--- gremlin fleet against the live registry server ---")
	srv, err := registry.NewServer("127.0.0.1:0", dyn)
	if err != nil {
		return err
	}
	defer srv.Close()

	bin := filepath.Join(work, "gremlin")
	build := exec.Command("go", "build", "-o", bin, "./cmd/gremlin")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build gremlin: %w", err)
	}
	live := len(dyn.Members())
	out, err := exec.Command(bin, "fleet", "-registry", srv.URL(), "-expect", fmt.Sprint(live)).CombinedOutput()
	if err != nil {
		return fmt.Errorf("gremlin fleet: %w\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	fmt.Printf("%s\n...\n%s\n", lines[0], lines[len(lines)-1])
	if !strings.Contains(string(out), fmt.Sprintf("%d live instances", live)) {
		return fmt.Errorf("fleet listing missed members:\n%s", out)
	}
	if !strings.Contains(string(out), "down") {
		return fmt.Errorf("fleet listing does not show the drained replica as down:\n%s", out)
	}
	if _, err := http.Get(srv.URL() + "/metrics"); err != nil {
		return err
	}

	fmt.Println("\n=== done: fleet discovered, drained, recovered, and observable end to end ===")
	return nil
}
