package campaign_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gremlin/internal/campaign"
	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/graph"
	"gremlin/internal/loadgen"
	"gremlin/internal/orchestrator"
	"gremlin/internal/rules"
	"gremlin/internal/topology"
)

// newHarness boots an in-process topology with real HTTP data and control
// planes, plus a runner wired to its shared event store.
func newHarness(t *testing.T, spec topology.Spec) (*topology.App, *core.Runner) {
	t.Helper()
	spec.RNG = rand.New(rand.NewSource(7))
	app, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := app.Close(); err != nil {
			t.Errorf("close app: %v", err)
		}
	})
	orch := orchestrator.New(app.Registry)
	return app, core.NewRunner(app.Graph, orch, app.Store, app.Store)
}

// campaignLoad builds a Load hook that drives the app's entry with the
// run's ID prefix, tracking how many loads ran and the peak overlap.
func campaignLoad(app *topology.App, loads, maxPar *atomic.Int64) func(context.Context, string) error {
	var inFlight atomic.Int64
	var seed atomic.Int64
	return func(ctx context.Context, idPrefix string) error {
		loads.Add(1)
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			m := maxPar.Load()
			if cur <= m || maxPar.CompareAndSwap(m, cur) {
				break
			}
		}
		_, err := loadgen.Run(app.EntryURL(), loadgen.Options{
			N: 6, Concurrency: 2, IDPrefix: idPrefix,
			Context: ctx,
			RNG:     rand.New(rand.NewSource(seed.Add(1))),
		})
		return err
	}
}

func enumOpts() campaign.EnumerateOptions {
	return campaign.EnumerateOptions{
		Generate: core.GenerateOptions{
			SkipServices: []string{topology.EdgeService},
			MaxLatency:   5 * time.Second,
		},
		HangInterval:  100 * time.Millisecond,
		EdgeDelays:    []time.Duration{20 * time.Millisecond},
		Chaos:         2,
		ChaosSeed:     1,
		ChaosMaxDelay: 30 * time.Millisecond,
	}
}

// TestCampaignSystematicSweep is the subsystem's acceptance test: a
// campaign over a 7-service binary tree runs 20+ generated recipes through
// a parallel worker pool, covers every graph edge, and prunes redundant
// scenarios via coverage signatures.
func TestCampaignSystematicSweep(t *testing.T) {
	app, runner := newHarness(t, topology.BinaryTree(2, 0))

	units, err := campaign.Enumerate(app.Graph, enumOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 20 {
		t.Fatalf("enumerated %d units, want >= 20", len(units))
	}

	// Enumeration is deterministic: same graph, same options, same plan.
	again, err := campaign.Enumerate(app.Graph, enumOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(units) {
		t.Fatalf("re-enumeration changed unit count: %d vs %d", len(again), len(units))
	}
	for i := range units {
		if units[i].Key != again[i].Key || units[i].Signature != again[i].Signature {
			t.Fatalf("unit %d differs across enumerations: %+v vs %+v", i, units[i], again[i])
		}
	}

	var loads, maxPar atomic.Int64
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	sc, err := campaign.Run(context.Background(), runner, units, campaign.Options{
		ID:          "sweep",
		Parallelism: 4,
		JournalPath: journal,
		Load:        campaignLoad(app, &loads, &maxPar),
		DroppedCount: func() int64 {
			var sum int64
			for _, svc := range app.Services() {
				if a := app.Agent(svc); a != nil {
					sum += a.Stats().LogDropped
				}
			}
			return sum
		},
		Cleanup: func(_ campaign.Unit, pat string) { _, _ = app.Store.ClearMatching(pat) },
	})
	if err != nil {
		t.Fatal(err)
	}

	if sc.Units != len(units) {
		t.Fatalf("scorecard settled %d units, want %d", sc.Units, len(units))
	}
	if sc.Errors != 0 {
		t.Fatalf("operational errors: %v", sc.ErrorUnits)
	}
	if sc.Executed < 20 {
		t.Fatalf("executed %d runs, want >= 20", sc.Executed)
	}
	if sc.Skipped < 1 {
		t.Fatal("no redundant scenario was pruned by signature")
	}
	if got := loads.Load(); got != int64(sc.Executed) {
		t.Fatalf("load ran %d times for %d executed units", got, sc.Executed)
	}
	if maxPar.Load() < 2 {
		t.Fatalf("peak load overlap = %d, want > 1 (worker pool not parallel)", maxPar.Load())
	}
	if !sc.Covered() {
		t.Fatalf("scorecard leaves edges untested:\n%s", sc.Markdown())
	}

	// The journal settled every unit, and each skip names an executed
	// unit with the same signature.
	entries, err := campaign.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(units) {
		t.Fatalf("journal has %d entries, want %d", len(entries), len(units))
	}
	executedSig := map[string]string{}
	for _, e := range entries {
		if e.Status == campaign.StatusPassed || e.Status == campaign.StatusFailed {
			executedSig[e.Signature] = e.Unit
		}
	}
	for _, e := range entries {
		if e.Status != campaign.StatusSkipped {
			continue
		}
		owner, ok := executedSig[e.Signature]
		if !ok {
			t.Fatalf("skipped unit %s has no executed twin for signature %s", e.Unit, e.Signature)
		}
		if !strings.Contains(e.Reason, owner) {
			t.Errorf("skip reason %q does not name owner %s", e.Reason, owner)
		}
	}

	md := sc.Markdown()
	if !strings.Contains(md, "Edge coverage: 100%") {
		t.Fatalf("markdown:\n%s", md)
	}
	if b, err := sc.JSON(); err != nil || len(b) == 0 {
		t.Fatalf("JSON render: %v", err)
	}

	// Executed runs staged faults on loaded flows, so their traces carry
	// fired rules and the journal records each run's blast radius.
	withBlast := 0
	for _, e := range entries {
		if len(e.BlastReached) > 0 {
			withBlast++
		}
	}
	if withBlast == 0 {
		t.Fatal("no journal entry recorded a blast radius")
	}
	if len(sc.Blast) != withBlast {
		t.Fatalf("scorecard has %d blast rows, journal has %d", len(sc.Blast), withBlast)
	}
	if !strings.Contains(md, "## Blast radius") {
		t.Fatalf("markdown missing blast radius section:\n%s", md)
	}
}

// TestCampaignResume kills a campaign midway and resumes it from the
// journal, asserting completed units are not re-executed.
func TestCampaignResume(t *testing.T) {
	app, runner := newHarness(t, topology.BinaryTree(1, 0))

	opts := enumOpts()
	opts.Chaos = 0
	units, err := campaign.Enumerate(app.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 8 {
		t.Fatalf("enumerated only %d units", len(units))
	}

	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var loads1, loads2, maxPar atomic.Int64
	var settled atomic.Int64
	_, err = campaign.Run(ctx, runner, units, campaign.Options{
		ID:          "resume",
		Parallelism: 2,
		JournalPath: journal,
		Load:        campaignLoad(app, &loads1, &maxPar),
		OnEntry: func(campaign.Entry) {
			// Kill the campaign after a few units settle; in-flight runs
			// drain, the rest stay pending.
			if settled.Add(1) == 3 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if loads1.Load() == 0 {
		t.Fatal("nothing executed before the kill; test is vacuous")
	}
	before, err := campaign.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || len(before) >= len(units) {
		t.Fatalf("journal settled %d of %d units before kill", len(before), len(units))
	}

	sc, err := campaign.Run(context.Background(), runner, units, campaign.Options{
		ID:          "resume",
		Parallelism: 2,
		JournalPath: journal,
		Load:        campaignLoad(app, &loads2, &maxPar),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Units != len(units) {
		t.Fatalf("resumed scorecard settled %d units, want %d", sc.Units, len(units))
	}
	if sc.Errors != 0 {
		t.Fatalf("errors after resume: %v", sc.ErrorUnits)
	}
	if !sc.Covered() {
		t.Fatalf("resumed campaign leaves edges untested:\n%s", sc.Markdown())
	}

	// Each executed unit ran in exactly one of the two sessions.
	if got, want := loads1.Load()+loads2.Load(), int64(sc.Executed); got != want {
		t.Fatalf("total loads %d != executed units %d (completed work re-ran)", got, want)
	}
	entries, err := campaign.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, e := range entries {
		seen[e.Unit]++
	}
	for unit, n := range seen {
		if n > 1 {
			t.Fatalf("unit %s settled %d times across sessions", unit, n)
		}
	}
	if len(entries) != len(units) {
		t.Fatalf("combined journal has %d entries for %d units", len(entries), len(units))
	}
}

// TestEnumerateHonorsSkipAndTemplates locks the enumeration contract on a
// plain graph: skipped services are never fault targets, template
// filtering works, and the crash/sever overlap is detectable by signature.
func TestEnumerateHonorsSkipAndTemplates(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{Src: "user", Dst: "web"},
		{Src: "web", Dst: "db"},
	})
	units, err := campaign.Enumerate(g, campaign.EnumerateOptions{
		Generate: core.GenerateOptions{SkipServices: []string{"user"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bySig := map[string][]string{}
	for _, u := range units {
		if u.Service == "user" {
			t.Fatalf("unit %s targets a skipped service", u.Key)
		}
		bySig[u.Signature] = append(bySig[u.Signature], u.Key)
	}
	// Crash(db) and sever(web->db) install identical rule sets.
	dupFound := false
	for _, keys := range bySig {
		if len(keys) > 1 {
			dupFound = true
		}
	}
	if !dupFound {
		t.Fatalf("no signature overlap in %v", bySig)
	}

	only, err := campaign.Enumerate(g, campaign.EnumerateOptions{
		Generate:  core.GenerateOptions{SkipServices: []string{"user"}},
		Templates: []string{"sever"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 2 {
		t.Fatalf("sever-only enumeration = %d units, want 2", len(only))
	}
	for _, u := range only {
		if u.Kind != "sever" {
			t.Fatalf("template filter leaked %s", u.Key)
		}
	}
}

// TestEnumerateRejectsUnknownTemplate: a misspelled template name is an
// error that lists the valid names, not an empty plan, even beside a
// valid name.
func TestEnumerateRejectsUnknownTemplate(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: "web", Dst: "db"}})
	for _, templates := range [][]string{{"dealy"}, {"delay", "dealy"}} {
		units, err := campaign.Enumerate(g, campaign.EnumerateOptions{Templates: templates})
		if err == nil || !strings.Contains(err.Error(), `"dealy"`) || !strings.Contains(err.Error(), strings.Join(campaign.TemplateNames, ", ")) {
			t.Fatalf("Enumerate(%v) = %d units, %v; want an error naming \"dealy\" and the valid templates", templates, len(units), err)
		}
	}
	for _, name := range campaign.TemplateNames {
		if _, err := campaign.Enumerate(g, campaign.EnumerateOptions{Templates: []string{name}}); err != nil {
			t.Fatalf("template %q: %v", name, err)
		}
	}
}

// TestCampaignLiveViolationAbortsLoad wires online assertions into a
// campaign: a crash unit's failure replies trip a live CheckStatus bound
// long before the load finishes, which cancels the run's load context,
// journals the violation, and forces the entry to failed.
func TestCampaignLiveViolationAbortsLoad(t *testing.T) {
	app, runner := newHarness(t, topology.BinaryTree(1, 0))

	units, err := campaign.Enumerate(app.Graph, campaign.EnumerateOptions{
		Generate: core.GenerateOptions{
			SkipServices: []string{topology.EdgeService},
			MaxLatency:   5 * time.Second,
		},
		Templates: []string{"crash"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One unit is enough: crashing tree-1 makes the fan-out at tree-0 fail
	// fast, so every injected request yields failure replies.
	var picked []campaign.Unit
	for _, u := range units {
		if u.Kind == "crash" && u.Service == "tree-1" {
			picked = append(picked, u)
			break
		}
	}
	if len(picked) == 0 {
		t.Fatalf("no crash unit for tree-1 in %d units", len(units))
	}

	// Online bound: more than 3 failure replies in the run's namespace is a
	// violation. Built here (test goroutine) since the single unit uses the
	// stateful evaluator exactly once.
	live, err := checker.Build(checker.Spec{Type: "checkStatus", Pattern: "camp-live-0-*", Status: -1, Max: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Paced so an un-aborted run would take seconds; the violation should
	// cut it after a handful of requests.
	const totalRequests = 200
	var completed atomic.Int64
	var entry campaign.Entry
	sc, err := campaign.Run(context.Background(), runner, picked, campaign.Options{
		ID:          "live",
		Parallelism: 1,
		Load: func(ctx context.Context, idPrefix string) error {
			res, err := loadgen.Run(app.EntryURL(), loadgen.Options{
				N: totalRequests, Concurrency: 1, IDPrefix: idPrefix,
				Interval: 10 * time.Millisecond,
				Context:  ctx,
				RNG:      rand.New(rand.NewSource(99)),
			})
			if res != nil {
				completed.Store(int64(len(res.Samples)))
			}
			return err
		},
		Observe: &campaign.ObserveOptions{
			Feed: checker.StoreFeed(app.Store),
			Checks: func(_ campaign.Unit, idPattern string) []*checker.Bound {
				if idPattern != "camp-live-0-*" {
					t.Errorf("checks got pattern %q", idPattern)
				}
				return []*checker.Bound{live}
			},
		},
		OnEntry: func(e campaign.Entry) { entry = e },
	})
	if err != nil {
		t.Fatal(err)
	}

	if sc.Failed != 1 {
		t.Fatalf("scorecard: %d failed, want 1 (passed %d, errors %v)", sc.Failed, sc.Passed, sc.ErrorUnits)
	}
	if entry.Status != campaign.StatusFailed {
		t.Fatalf("entry status %q, want failed (reason %q)", entry.Status, entry.Reason)
	}
	if entry.LiveViolation == "" {
		t.Fatal("entry records no live violation")
	}
	if !strings.Contains(entry.LiveViolation, "failure replies") {
		t.Fatalf("violation %q does not describe failure replies", entry.LiveViolation)
	}
	if got := completed.Load(); got == 0 || got >= totalRequests {
		t.Fatalf("load completed %d of %d requests; the live violation should abort it partway", got, totalRequests)
	}
}

// TestCampaignLeaseRenewalOutlivesTTL runs a campaign whose per-run lease
// TTL is far shorter than the load phase. The background renewal must keep
// the staged faults alive for the whole run — if it didn't, the agents
// would self-expire the rules mid-load and the revert would go stale — and
// the orchestrator must hold no leases once the campaign settles.
func TestCampaignLeaseRenewalOutlivesTTL(t *testing.T) {
	app, runner := newHarness(t, topology.TwoServices(3, time.Millisecond))

	units, err := campaign.Enumerate(app.Graph, campaign.EnumerateOptions{
		Generate: core.GenerateOptions{
			SkipServices: []string{topology.EdgeService},
			MaxLatency:   5 * time.Second,
		},
		Templates: []string{"overload"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("no units enumerated")
	}

	sc, err := campaign.Run(context.Background(), runner, units, campaign.Options{
		ID:          "leased",
		Parallelism: 2,
		LeaseTTL:    40 * time.Millisecond,
		Load: func(ctx context.Context, idPrefix string) error {
			// Three lease TTLs of load: only renewal can carry the run.
			time.Sleep(120 * time.Millisecond)
			_, err := loadgen.Run(app.EntryURL(), loadgen.Options{
				N: 4, IDPrefix: idPrefix, Context: ctx,
				RNG: rand.New(rand.NewSource(1)),
			})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Errors > 0 {
		t.Fatalf("campaign hit %d operational errors:\n%s", sc.Errors, sc.Markdown())
	}
	if owners := runner.Orchestrator().Owners(); len(owners) != 0 {
		t.Fatalf("campaign left leases behind: %v", owners)
	}
}

// TestEnumerateStreamGrid: a protocol:tcp edge yields the stream fault
// grid (sever, halfopen, refuse, throttle per rate) and is excluded from
// the http sever/delay grids, while http edges get no stream units.
func TestEnumerateStreamGrid(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{Src: "user", Dst: "web"},
		{Src: "web", Dst: "db", Protocol: graph.ProtocolTCP},
	})
	units, err := campaign.Enumerate(g, campaign.EnumerateOptions{
		Generate: core.GenerateOptions{SkipServices: []string{"user"}},
		L4Rates:  []int64{1024, 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]campaign.Unit{}
	for _, u := range units {
		byKey[u.Key] = u
		if u.Kind == "sever" || u.Kind == "delay" {
			if strings.Contains(u.Target, "web->db") {
				t.Fatalf("http grid unit %s targets the tcp edge", u.Key)
			}
		}
	}
	for _, want := range []string{
		"l4-sever-web-db", "l4-halfopen-web-db", "l4-refuse-web-db",
		"l4-throttle-web-db-1024", "l4-throttle-web-db-4096",
	} {
		u, ok := byKey[want]
		if !ok {
			t.Fatalf("missing stream unit %s in %v", want, byKey)
		}
		if u.Kind != "stream" || u.Service != "db" {
			t.Fatalf("unit = %+v", u)
		}
		r := u.Recipe
		r.Pattern = "camp-1-*"
		rs, err := r.Translate(g)
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		for _, rule := range rs {
			if rule.Layer != rules.LayerL4 {
				t.Fatalf("%s produced non-l4 rule %+v", want, rule)
			}
			// Stream rules keep matching relay-minted conn IDs even when
			// the campaign confines the recipe to its run pattern.
			if rule.Pattern != core.L4Pattern {
				t.Fatalf("%s rule pattern = %q", want, rule.Pattern)
			}
		}
	}

	// Stream units over distinct faults have distinct signatures; the two
	// throttle rates must not collapse into one.
	if byKey["l4-throttle-web-db-1024"].Signature == byKey["l4-throttle-web-db-4096"].Signature {
		t.Fatal("throttle rates share a signature")
	}
	if byKey["l4-sever-web-db"].Signature == byKey["l4-halfopen-web-db"].Signature {
		t.Fatal("sever and halfopen share a signature")
	}

	// The stream template alone selects only stream units.
	only, err := campaign.Enumerate(g, campaign.EnumerateOptions{
		Generate:  core.GenerateOptions{SkipServices: []string{"user"}},
		Templates: []string{"stream"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(only) == 0 {
		t.Fatal("stream template enumerated nothing")
	}
	for _, u := range only {
		if u.Kind != "stream" {
			t.Fatalf("template filter leaked %s", u.Key)
		}
	}

	// An all-http graph enumerates no stream units at all.
	httpOnly, err := campaign.Enumerate(graph.FromEdges([]graph.Edge{
		{Src: "user", Dst: "web"}, {Src: "web", Dst: "db"},
	}), campaign.EnumerateOptions{
		Generate: core.GenerateOptions{SkipServices: []string{"user"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range httpOnly {
		if u.Kind == "stream" {
			t.Fatalf("stream unit %s on an http-only graph", u.Key)
		}
	}
}
