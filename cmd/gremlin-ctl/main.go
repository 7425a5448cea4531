// Command gremlin-ctl is the operator's CLI for the Gremlin control plane:
// it installs, lists and clears fault-injection rules on agents, inspects
// agents, and queries the event-log store.
//
// Usage:
//
//	gremlin-ctl info    -agent http://127.0.0.1:9001
//	gremlin-ctl rules   -agent http://127.0.0.1:9001
//	gremlin-ctl install -agent http://127.0.0.1:9001 -file rules.json
//	gremlin-ctl remove  -agent http://127.0.0.1:9001 -id rule-1
//	gremlin-ctl clear   -agent http://127.0.0.1:9001
//	gremlin-ctl flush   -agent http://127.0.0.1:9001
//	gremlin-ctl status  -registry registry.json [-scorecard scorecard.json]
//	gremlin-ctl fleet   -registry http://127.0.0.1:9300 [-expect 5]
//	gremlin-ctl drift   -registry registry.json [-file rules.json] [-repair]
//	gremlin-ctl query   -store http://127.0.0.1:9200 -src a -dst b -kind reply -pattern 'test-*'
//	gremlin-ctl stats   -store http://127.0.0.1:9200
//	gremlin-ctl wipe    -store http://127.0.0.1:9200
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/campaign"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/graph"
	"gremlin/internal/loadgen"
	"gremlin/internal/orchestrator"
	"gremlin/internal/registry"
	"gremlin/internal/rules"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		usage()
		return fmt.Errorf("gremlin-ctl: missing subcommand")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "info", "rules", "install", "remove", "clear", "flush":
		return agentCommand(sub, rest)
	case "query", "stats", "wipe":
		return storeCommand(sub, rest)
	case "status":
		return statusCommand(rest)
	case "fleet":
		return fleetCommand(rest)
	case "drift":
		return driftCommand(rest)
	case "run":
		return runCommand(rest)
	case "autorun":
		return autorunCommand(rest)
	case "chaos":
		return chaosCommand(rest)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("gremlin-ctl: unknown subcommand %q", sub)
	}
}

// runCommand executes a recipe file against a live deployment: translate
// over the graph, install rules via the registry's agents, optionally
// inject load, evaluate assertions against the store, revert.
func runCommand(args []string) error {
	fs := flag.NewFlagSet("gremlin-ctl run", flag.ContinueOnError)
	var (
		recipePath   = fs.String("recipe", "", "recipe JSON file (required)")
		graphPath    = fs.String("graph", "", "application graph JSON file: [{\"src\":..,\"dst\":..}] (required)")
		registryPath = fs.String("registry", "", "registry JSON file: [{\"service\":..,\"addr\":..,\"agentControlUrl\":..}] (required)")
		storeURL     = fs.String("store", "", "event store URL (required)")
		loadURL      = fs.String("load-url", "", "URL to inject test load at (optional)")
		requests     = fs.Int("requests", 100, "number of test requests when -load-url is set")
		concurrency  = fs.Int("concurrency", 1, "load concurrency")
		keep         = fs.Bool("keep", false, "leave the fault rules installed after the run")
		clearLogs    = fs.Bool("clear-logs", true, "wipe the store before injecting load")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for name, v := range map[string]string{
		"-recipe": *recipePath, "-graph": *graphPath, "-registry": *registryPath, "-store": *storeURL,
	} {
		if v == "" {
			return fmt.Errorf("gremlin-ctl run: %s is required", name)
		}
	}

	recipeRaw, err := os.ReadFile(*recipePath)
	if err != nil {
		return err
	}
	recipe, err := core.ParseRecipe(recipeRaw)
	if err != nil {
		return err
	}

	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	reg, err := registry.LoadFile(*registryPath)
	if err != nil {
		return err
	}

	storeClient := eventlog.NewClient(*storeURL, nil)
	if !storeClient.Healthy() {
		return fmt.Errorf("gremlin-ctl run: event store %s not reachable", *storeURL)
	}
	runner := core.NewRunner(g, orchestrator.New(reg), storeClient, core.ClearerFunc(func() int {
		n, err := storeClient.Clear()
		if err != nil {
			log.Printf("clear store: %v", err)
		}
		return n
	}))

	// Ctrl-C stops the load early; the runner still reverts rules and
	// evaluates assertions on whatever was collected. The run itself gets a
	// fresh context so the cancelled one cannot abort the revert.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := core.RunOptions{KeepRules: *keep, ClearLogs: *clearLogs}
	if *loadURL != "" {
		opts.Load = func() error {
			res, err := loadgen.Run(*loadURL, loadgen.Options{
				N: *requests, Concurrency: *concurrency, Context: ctx,
			})
			if err != nil {
				return err
			}
			fmt.Printf("load: %s\n", res)
			return nil
		}
	}
	report, err := runner.Run(context.Background(), recipe, opts)
	if err != nil {
		return err
	}
	fmt.Print(report)
	if !report.Passed() {
		return fmt.Errorf("gremlin-ctl run: %d assertions failed", len(report.Failed()))
	}
	return nil
}

// autorunCommand generates a systematic test plan from the application
// graph (an Overload and a Crash recipe per service with dependents) and
// executes it as a chain, stopping at the first failing recipe.
func autorunCommand(args []string) error {
	fs := flag.NewFlagSet("gremlin-ctl autorun", flag.ContinueOnError)
	var (
		graphPath    = fs.String("graph", "", "application graph JSON file (required)")
		registryPath = fs.String("registry", "", "registry JSON file (required)")
		storeURL     = fs.String("store", "", "event store URL (required)")
		loadURL      = fs.String("load-url", "", "URL to inject test load at (required)")
		requests     = fs.Int("requests", 10, "test requests per recipe")
		skip         = fs.String("skip", "user", "comma-separated services to exclude as fault targets")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for name, v := range map[string]string{
		"-graph": *graphPath, "-registry": *registryPath, "-store": *storeURL, "-load-url": *loadURL,
	} {
		if v == "" {
			return fmt.Errorf("gremlin-ctl autorun: %s is required", name)
		}
	}

	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	reg, err := registry.LoadFile(*registryPath)
	if err != nil {
		return err
	}

	recipes, err := core.GenerateRecipes(g, core.GenerateOptions{
		SkipServices: splitComma(*skip),
	})
	if err != nil {
		return err
	}
	if len(recipes) == 0 {
		return fmt.Errorf("gremlin-ctl autorun: the graph yields no testable services")
	}
	fmt.Printf("generated %d recipes\n", len(recipes))

	storeClient := eventlog.NewClient(*storeURL, nil)
	runner := core.NewRunner(g, orchestrator.New(reg), storeClient, core.ClearerFunc(func() int {
		n, err := storeClient.Clear()
		if err != nil {
			log.Printf("clear store: %v", err)
		}
		return n
	}))
	// Ctrl-C winds down the in-flight recipe's load; the chain then stops
	// at its (failing or interrupted) report instead of running all recipes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reports, err := runner.RunChain(context.Background(), core.RunOptions{
		ClearLogs: true,
		Load: func() error {
			_, err := loadgen.Run(*loadURL, loadgen.Options{N: *requests, Context: ctx})
			return err
		},
	}, recipes...)
	for _, rep := range reports {
		fmt.Print(rep)
	}
	if err != nil {
		return err
	}
	if len(reports) > 0 && !reports[len(reports)-1].Passed() {
		return fmt.Errorf("gremlin-ctl autorun: stopped at failing recipe %s (%d of %d run)",
			reports[len(reports)-1].Recipe, len(reports), len(recipes))
	}
	fmt.Printf("all %d recipes passed\n", len(reports))
	return nil
}

// chaosCommand runs the randomized baseline (the paper's §8.1 Chaos
// Monkey comparison): stage a random fault, hold it for -duration, revert,
// repeat -rounds times. No assertions are evaluated — faithfully
// reproducing the baseline's limitation that "manual validation that the
// microservices survived the failure is still required."
func chaosCommand(args []string) error {
	fs := flag.NewFlagSet("gremlin-ctl chaos", flag.ContinueOnError)
	var (
		graphPath    = fs.String("graph", "", "application graph JSON file (required)")
		registryPath = fs.String("registry", "", "registry JSON file (required)")
		rounds       = fs.Int("rounds", 3, "number of random faults to stage")
		duration     = fs.Duration("duration", 5*time.Second, "how long each fault stays active")
		seed         = fs.Int64("seed", 0, "random seed (0 = nondeterministic)")
		allTraffic   = fs.Bool("all-traffic", false, "hit every request, Chaos Monkey style (default: test traffic only)")
		skip         = fs.String("skip", "user", "comma-separated services to exclude")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *registryPath == "" {
		return fmt.Errorf("gremlin-ctl chaos: -graph and -registry are required")
	}

	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	reg, err := registry.LoadFile(*registryPath)
	if err != nil {
		return err
	}
	orch := orchestrator.New(reg)

	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(*seed))
	fmt.Printf("chaos mode: %d rounds, %s each, seed %d\n", *rounds, *duration, *seed)

	// Ctrl-C mid-round reverts the active fault before exiting — dying
	// inside the hold would leave its rules installed on the agents.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for round := 1; round <= *rounds; round++ {
		scenario, err := core.RandomScenario(g, rng, core.ChaosOptions{
			SkipServices: splitComma(*skip),
			AllTraffic:   *allTraffic,
		})
		if err != nil {
			return err
		}
		recipe := core.Recipe{Name: fmt.Sprintf("chaos-%d", round), Scenarios: []core.Scenario{scenario}}
		ruleset, err := recipe.Translate(g)
		if err != nil {
			return err
		}
		applied, err := orch.Apply(context.Background(), ruleset)
		if err != nil {
			return err
		}
		fmt.Printf("round %d: %s active for %s (%d rules on %d agents)\n",
			round, scenario.Describe(), *duration, len(ruleset), applied.AgentCount())
		interrupted := false
		select {
		case <-time.After(*duration):
		case <-ctx.Done():
			interrupted = true
		}
		// Revert with a fresh context: after Ctrl-C the signal context is
		// already cancelled, and the whole point is to withdraw the fault.
		if err := applied.Revert(context.Background()); err != nil {
			return err
		}
		fmt.Printf("round %d: reverted\n", round)
		if interrupted {
			return fmt.Errorf("gremlin-ctl chaos: interrupted during round %d (fault reverted)", round)
		}
	}
	fmt.Println("chaos complete — note: no assertions were evaluated; use 'run' or 'autorun' for systematic verdicts")
	return nil
}

func splitComma(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func agentCommand(sub string, args []string) error {
	fs := flag.NewFlagSet("gremlin-ctl "+sub, flag.ContinueOnError)
	agentURL := fs.String("agent", "", "agent control URL (required)")
	file := fs.String("file", "", "rules JSON file (install)")
	id := fs.String("id", "", "rule ID (remove)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *agentURL == "" {
		return fmt.Errorf("gremlin-ctl %s: -agent is required", sub)
	}
	ctx := context.Background()
	client := agentapi.New(*agentURL, nil)

	switch sub {
	case "info":
		info, err := client.Info(ctx)
		if err != nil {
			return err
		}
		return printJSON(info)
	case "rules":
		set, err := client.GetRuleSet(ctx)
		if err != nil {
			return err
		}
		for _, r := range set.Rules {
			fmt.Println(r)
		}
		fmt.Printf("%d rules installed at generation %d\n", len(set.Rules), set.Generation)
		return nil
	case "install":
		if *file == "" {
			return fmt.Errorf("gremlin-ctl install: -file is required")
		}
		raw, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		var batch []rules.Rule
		if err := json.Unmarshal(raw, &batch); err != nil {
			return fmt.Errorf("parse %s: %w", *file, err)
		}
		// The agent rejects a set with duplicate IDs, so an ID already
		// installed fails the whole batch.
		gen, err := editRules(ctx, client, func(cur []rules.Rule) ([]rules.Rule, error) {
			return append(cur, batch...), nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("installed %d rules at generation %d\n", len(batch), gen)
		return nil
	case "remove":
		if *id == "" {
			return fmt.Errorf("gremlin-ctl remove: -id is required")
		}
		gen, err := editRules(ctx, client, func(cur []rules.Rule) ([]rules.Rule, error) {
			n := len(cur)
			if cur = slices.DeleteFunc(cur, func(r rules.Rule) bool { return r.ID == *id }); len(cur) == n {
				return nil, fmt.Errorf("rule %q not installed", *id)
			}
			return cur, nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("removed rule %s at generation %d\n", *id, gen)
		return nil
	case "clear":
		n, err := client.ClearRules(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("removed %d rules\n", n)
		return nil
	case "flush":
		if err := client.Flush(ctx); err != nil {
			return err
		}
		fmt.Println("flushed")
		return nil
	}
	return nil
}

// editRules replaces an agent's rule set with edit(installed rules) at the
// next generation, compare-and-swapped on the generation it read, and
// returns the new generation. A leased rule set is refused: its owner
// renews it, and a PUT without a TTL would disarm the lease.
func editRules(ctx context.Context, client *agentapi.Client, edit func([]rules.Rule) ([]rules.Rule, error)) (uint64, error) {
	cur, err := client.GetRuleSet(ctx)
	if err != nil {
		return 0, err
	}
	if cur.Leased {
		return 0, fmt.Errorf("agent %s holds a leased rule set (generation %d); editing it would disarm its owner's lease",
			client.BaseURL(), cur.Generation)
	}
	next, err := edit(cur.Rules)
	if err != nil {
		return 0, err
	}
	st, err := client.PutRuleSet(ctx, rules.RuleSet{Generation: cur.Generation + 1, Rules: next}, cur.Generation)
	return st.Generation, err
}

// statusCommand prints each agent's rule-set status — generation, content
// hash, rule count, and whether a self-expiry lease is armed — either for
// one agent (-agent) or for every agent in a registry file (-registry).
func statusCommand(args []string) error {
	fs := flag.NewFlagSet("gremlin-ctl status", flag.ContinueOnError)
	var (
		agentURL      = fs.String("agent", "", "agent control URL")
		registryPath  = fs.String("registry", "", "registry JSON file (all agents)")
		storeURL      = fs.String("store", "", "event store URL (also report store topology and WAL durability)")
		scorecardPath = fs.String("scorecard", "", "campaign scorecard JSON; reports explore point coverage when present")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var urls []string
	switch {
	case *agentURL != "":
		urls = []string{*agentURL}
	case *registryPath != "":
		reg, err := registry.LoadFile(*registryPath)
		if err != nil {
			return err
		}
		urls, err = registry.AllAgentURLs(reg)
		if err != nil {
			return err
		}
	default:
		if *storeURL == "" && *scorecardPath == "" {
			return fmt.Errorf("gremlin-ctl status: -agent, -registry, -store or -scorecard is required")
		}
	}

	if *scorecardPath != "" {
		if err := printScorecardStatus(*scorecardPath); err != nil {
			return err
		}
	}

	ctx := context.Background()
	failed := 0
	if *storeURL != "" {
		info, err := eventlog.NewClient(*storeURL, nil).Info()
		if err != nil {
			fmt.Printf("store %s: UNREACHABLE (%v)\n", *storeURL, err)
			failed++
		} else {
			fmt.Printf("store %s: records=%d shards=%d subscribers=%d subscriberDropped=%d %s\n",
				*storeURL, info.Records, info.Shards,
				info.Subscribers, info.SubscriberDropped, describeDurability(info))
		}
	}
	for _, url := range urls {
		body, err := agentapi.New(url, nil).GetRuleSet(ctx)
		if err != nil {
			fmt.Printf("%s: UNREACHABLE (%v)\n", url, err)
			failed++
			continue
		}
		lease := "permanent"
		if body.Leased {
			lease = "leased"
		}
		// Drop counters ride along from /v1/info: truncated execution
		// indexes and shed log records silently skew every downstream
		// verdict, so status must show them.
		drops := ""
		if info, ierr := agentapi.New(url, nil).Info(ctx); ierr == nil {
			drops = fmt.Sprintf(" eiTruncated=%d logDropped=%d",
				info.Stats.EITruncated, info.Stats.LogDropped)
		}
		fmt.Printf("%s: generation=%d rules=%d %s hash=%s%s\n",
			url, body.Generation, len(body.Rules), lease, body.Hash, drops)
	}
	if failed > 0 {
		return fmt.Errorf("gremlin-ctl status: %d of %d agents unreachable", failed, len(urls))
	}
	return nil
}

// printScorecardStatus summarizes a campaign scorecard file: the pass/fail
// headline, and — when the campaign was an exploration — the point-coverage
// counters the explore plane journalled (discovered, exercised, revealed
// only under fault, pruned as EI-equivalent, rounds, convergence).
func printScorecardStatus(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("gremlin-ctl status: %w", err)
	}
	var sc campaign.Scorecard
	if err := json.Unmarshal(data, &sc); err != nil {
		return fmt.Errorf("gremlin-ctl status: parse %s: %w", path, err)
	}
	fmt.Printf("campaign %s: units=%d passed=%d failed=%d errors=%d skipped=%d\n",
		sc.Campaign, sc.Units, sc.Passed, sc.Failed, sc.Errors, sc.Skipped)
	if x := sc.Explore; x != nil {
		state := "frontier not yet dry"
		if x.Converged {
			state = "converged"
		}
		fmt.Printf("explore: points discovered=%d exercised=%d revealed=%d pruned=%d rounds=%d (%s)\n",
			x.PointsDiscovered, x.PointsExercised, x.PointsRevealed, x.PointsPruned, x.Rounds, state)
	}
	return nil
}

// fleetCommand lists the live members of a dynamic registry server: one
// line per instance with service, replica index, health state, lease age,
// and the agent's current rule-set generation. With -expect N the command
// exits non-zero when fewer than N instances are live — a scriptable
// membership check for CI smoke tests and deploy gates.
func fleetCommand(args []string) error {
	fs := flag.NewFlagSet("gremlin-ctl fleet", flag.ContinueOnError)
	var (
		regURL = fs.String("registry", "", "dynamic registry server URL (required)")
		expect = fs.Int("expect", 0, "exit non-zero unless at least this many instances are live")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *regURL == "" {
		return fmt.Errorf("gremlin-ctl fleet: -registry is required")
	}
	members, err := registry.NewClient(*regURL, nil).Members()
	if err != nil {
		return fmt.Errorf("gremlin-ctl fleet: list members: %w", err)
	}

	ctx := context.Background()
	now := time.Now()
	for _, m := range members {
		health := m.Health
		if health == "" {
			health = "unknown"
		}
		gen := "-"
		if m.AgentControlURL != "" {
			if body, err := agentapi.New(m.AgentControlURL, nil).GetRuleSet(ctx); err == nil {
				gen = fmt.Sprintf("%d", body.Generation)
			} else {
				gen = "unreachable"
			}
		}
		fmt.Printf("%-24s replica=%-3d %-24s %-8s lease=%-8s gen=%s\n",
			m.Service, m.Replica, m.Addr, health,
			m.LeaseAge(now).Round(time.Millisecond), gen)
	}
	fmt.Printf("%d live instances\n", len(members))
	if *expect > 0 && len(members) < *expect {
		return fmt.Errorf("gremlin-ctl fleet: %d live instances, expected at least %d", len(members), *expect)
	}
	return nil
}

// driftCommand compares every agent's installed rule set against declared
// desired state — the rules in -file, or "no faults anywhere" when -file is
// omitted — and reports which agents have drifted. It is read-only unless
// -repair is set, in which case a reconcile pass converges the drifted
// agents. A non-converged fleet is a non-zero exit.
func driftCommand(args []string) error {
	fs := flag.NewFlagSet("gremlin-ctl drift", flag.ContinueOnError)
	var (
		registryPath = fs.String("registry", "", "registry JSON file (required)")
		file         = fs.String("file", "", "desired rules JSON file (default: empty — no faults expected)")
		repair       = fs.Bool("repair", false, "converge drifted agents instead of only reporting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *registryPath == "" {
		return fmt.Errorf("gremlin-ctl drift: -registry is required")
	}
	reg, err := registry.LoadFile(*registryPath)
	if err != nil {
		return err
	}
	orch := orchestrator.New(reg)
	if *file != "" {
		raw, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		var batch []rules.Rule
		if err := json.Unmarshal(raw, &batch); err != nil {
			return fmt.Errorf("parse %s: %w", *file, err)
		}
		if err := orch.StageOwner("gremlin-ctl", batch, 0); err != nil {
			return err
		}
	}

	ctx := context.Background()
	var rep *orchestrator.Report
	if *repair {
		rep, err = orch.Reconcile(ctx)
	} else {
		rep, err = orch.Drift(ctx)
	}
	if err != nil {
		return err
	}
	fmt.Print(rep.Describe())
	if !rep.Converged() {
		return fmt.Errorf("gremlin-ctl drift: fleet has not converged")
	}
	fmt.Println("converged")
	return nil
}

// loadGraph reads an application-graph JSON file ([{"src":..,"dst":..}]).
func loadGraph(path string) (*graph.Graph, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var edges []graph.Edge
	if err := json.Unmarshal(raw, &edges); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return graph.FromEdges(edges), nil
}

func storeCommand(sub string, args []string) error {
	fs := flag.NewFlagSet("gremlin-ctl "+sub, flag.ContinueOnError)
	var (
		storeURL = fs.String("store", "", "event store URL (required)")
		src      = fs.String("src", "", "filter by source service")
		dst      = fs.String("dst", "", "filter by destination service")
		kind     = fs.String("kind", "", "filter by kind: request|reply")
		pat      = fs.String("pattern", "", "filter by request-ID pattern")
		limit    = fs.Int("limit", 100, "maximum records to print")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeURL == "" {
		return fmt.Errorf("gremlin-ctl %s: -store is required", sub)
	}
	client := eventlog.NewClient(*storeURL, nil)

	switch sub {
	case "query":
		recs, err := client.Select(eventlog.Query{
			Src: *src, Dst: *dst, Kind: eventlog.Kind(*kind), IDPattern: *pat, Limit: *limit,
		})
		if err != nil {
			return err
		}
		for _, r := range recs {
			fmt.Printf("%s %-8s %s->%s id=%s status=%d latency=%.1fms fault=%q\n",
				r.Timestamp.Format(time.RFC3339Nano), r.Kind, r.Src, r.Dst,
				r.RequestID, r.Status, r.LatencyMillis, r.FaultAction)
		}
		fmt.Printf("%d records\n", len(recs))
		return nil
	case "stats":
		info, err := client.Info()
		if err != nil {
			return err
		}
		fmt.Printf("%d records across %d shards, %s\n",
			info.Records, info.Shards, describeDurability(info))
		return nil
	case "wipe":
		n, err := client.Clear()
		if err != nil {
			return err
		}
		fmt.Printf("dropped %d records\n", n)
		return nil
	}
	return nil
}

// describeDurability renders a StoreInfo's WAL configuration for humans.
func describeDurability(info eventlog.StoreInfo) string {
	if !info.Persistent {
		return "volatile"
	}
	s := "wal fsync=" + info.Fsync
	if info.FsyncIntervalMillis > 0 {
		s += fmt.Sprintf("/%dms", info.FsyncIntervalMillis)
	}
	return s + " dir=" + info.DataDir
}

func printJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `gremlin-ctl — Gremlin control-plane CLI

agent commands (-agent <control URL>):
  info      show agent identity, routes and rule-set generation
  rules     list installed rules and their generation
  install   add rules from -file <rules.json> at the next generation
            (refused while the agent holds a leased rule set)
  remove    remove one rule by -id, likewise
  clear     remove all rules
  flush     flush buffered observations to the store

fleet commands:
  fleet     list live instances of a dynamic registry (-registry <url>):
            service, replica, health, lease age, agent generation;
            -expect N exits non-zero when membership is short
  status    per-agent rule-set generation/hash/lease (-agent or -registry);
            -store <url> also reports store shards and WAL fsync policy;
            -scorecard <file> summarizes a campaign scorecard, including
            explore point coverage when the campaign was an exploration
  drift     compare agents against desired state (-registry, optional
            -file <rules.json>, -repair to converge); non-zero exit on drift

store commands (-store <store URL>):
  query     print records (-src -dst -kind -pattern -limit)
  stats     record count, shard count and WAL durability
  wipe      drop all records

recipe execution:
  run       execute a recipe file end to end
  autorun   generate a test plan from the graph and run it as a chain
  chaos     randomized fault injection (the Chaos Monkey baseline; no assertions)
            -recipe recipe.json -graph graph.json -registry registry.json
            -store <url> [-load-url <url> -requests 100] [-keep]`)
}
