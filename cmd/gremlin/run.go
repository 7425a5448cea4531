package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"gremlin/internal/core"
	"gremlin/internal/loadgen"
	"gremlin/internal/orchestrator"
)

// runRecipe executes a recipe file against a live deployment: translate
// over the graph, install rules via the registry's agents, optionally
// inject load, evaluate assertions against the store, revert.
func runRecipe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gremlin run", flag.ContinueOnError)
	d := deploymentFlags(fs, withStore)
	var (
		recipePath  = fs.String("recipe", "", "recipe JSON file (required)")
		requests    = fs.Int("requests", 100, "number of test requests when -load-url is set")
		concurrency = fs.Int("concurrency", 1, "load concurrency")
		keep        = fs.Bool("keep", false, "leave the fault rules installed after the run")
		clearLogs   = fs.Bool("clear-logs", true, "wipe the store before injecting load")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *recipePath == "" {
		return fmt.Errorf("gremlin run: -recipe is required")
	}
	recipeRaw, err := os.ReadFile(*recipePath)
	if err != nil {
		return err
	}
	recipe, err := core.ParseRecipe(recipeRaw)
	if err != nil {
		return err
	}
	if err := d.open(); err != nil {
		return err
	}

	// Cancelling ctx (Ctrl-C) stops the load early; the runner still
	// reverts rules and evaluates assertions on whatever was collected.
	// The run itself gets a fresh context so the cancelled one cannot
	// abort the revert.
	opts := core.RunOptions{KeepRules: *keep, ClearLogs: *clearLogs}
	if d.loadURL != "" {
		opts.Load = func() error {
			res, err := loadgen.Run(d.loadURL, loadgen.Options{
				N: *requests, Concurrency: *concurrency, Context: ctx,
			})
			if err != nil {
				return err
			}
			fmt.Printf("load: %s\n", res)
			return nil
		}
	}
	report, err := d.runner.Run(context.Background(), recipe, opts)
	if err != nil {
		return err
	}
	fmt.Print(report)
	if !report.Passed() {
		return fmt.Errorf("gremlin run: %d assertions failed", len(report.Failed()))
	}
	return nil
}

// runAutorun generates a systematic test plan from the application graph
// (an Overload and a Crash recipe per service with dependents) and
// executes it as a chain, stopping at the first failing recipe.
func runAutorun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gremlin autorun", flag.ContinueOnError)
	d := deploymentFlags(fs, withLoad)
	var (
		requests = fs.Int("requests", 10, "test requests per recipe")
		skip     = fs.String("skip", "user", "comma-separated services to exclude as fault targets")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := d.open(); err != nil {
		return err
	}

	recipes, err := core.GenerateRecipes(d.graph, core.GenerateOptions{
		SkipServices: splitComma(*skip),
	})
	if err != nil {
		return err
	}
	if len(recipes) == 0 {
		return fmt.Errorf("gremlin autorun: the graph yields no testable services")
	}
	fmt.Printf("generated %d recipes\n", len(recipes))

	// Cancelling ctx (Ctrl-C) winds down the in-flight recipe's load; the
	// chain then stops at its (failing or interrupted) report instead of
	// running all recipes.
	reports, err := d.runner.RunChain(context.Background(), core.RunOptions{
		ClearLogs: true,
		Load: func() error {
			_, err := loadgen.Run(d.loadURL, loadgen.Options{N: *requests, Context: ctx})
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
		return fmt.Errorf("gremlin autorun: stopped at failing recipe %s (%d of %d run)",
			reports[len(reports)-1].Recipe, len(reports), len(recipes))
	}
	fmt.Printf("all %d recipes passed\n", len(reports))
	return nil
}

// runChaos runs the randomized baseline (the paper's §8.1 Chaos Monkey
// comparison): stage a random fault, hold it for -duration, revert,
// repeat -rounds times. No assertions are evaluated — faithfully
// reproducing the baseline's limitation that "manual validation that the
// microservices survived the failure is still required."
func runChaos(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gremlin chaos", flag.ContinueOnError)
	d := deploymentFlags(fs, graphOnly)
	var (
		rounds     = fs.Int("rounds", 3, "number of random faults to stage")
		duration   = fs.Duration("duration", 5*time.Second, "how long each fault stays active")
		seed       = fs.Int64("seed", 0, "random seed (0 = nondeterministic)")
		allTraffic = fs.Bool("all-traffic", false, "hit every request, Chaos Monkey style (default: test traffic only)")
		skip       = fs.String("skip", "user", "comma-separated services to exclude")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := d.open(); err != nil {
		return err
	}
	orch := orchestrator.New(d.registry)

	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(*seed))
	fmt.Printf("chaos mode: %d rounds, %s each, seed %d\n", *rounds, *duration, *seed)

	// Cancelling ctx (Ctrl-C) mid-round reverts the active fault before
	// exiting — dying inside the hold would leave its rules installed on
	// the agents.
	for round := 1; round <= *rounds; round++ {
		scenario, err := core.RandomScenario(d.graph, rng, core.ChaosOptions{
			SkipServices: splitComma(*skip),
			AllTraffic:   *allTraffic,
		})
		if err != nil {
			return err
		}
		recipe := core.Recipe{Name: fmt.Sprintf("chaos-%d", round), Scenarios: []core.Scenario{scenario}}
		ruleset, err := recipe.Translate(d.graph)
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
			return fmt.Errorf("gremlin chaos: interrupted during round %d (fault reverted)", round)
		}
	}
	fmt.Println("chaos complete — note: no assertions were evaluated; use 'run' or 'autorun' for systematic verdicts")
	return nil
}
