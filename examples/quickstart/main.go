// Command quickstart reproduces the paper's §3.2 Example 1 on a live
// two-service application:
//
//	Overload(ServiceB)
//	HasBoundedRetries(ServiceA, ServiceB, 5)
//
// and then the §4.2 chained variant: if bounded retries hold, stage a
// Crash of ServiceB and check ServiceA for a circuit breaker.
//
// Everything — services, sidecar Gremlin agents, control plane — runs in
// this process on loopback TCP.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"gremlin"
	"gremlin/internal/loadgen"
	"gremlin/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== Gremlin quickstart: ServiceA -> ServiceB ===")
	fmt.Println("ServiceA retries failed calls up to 5 times with backoff.")

	// Build the application: serviceA (bounded retries) -> serviceB, each
	// call flowing through serviceA's sidecar Gremlin agent.
	app, err := topology.Build(topology.TwoServices(5, 2*time.Millisecond))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := app.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "close:", cerr)
		}
	}()

	runner := gremlin.NewRunner(app.Graph, gremlin.NewOrchestrator(app.Registry), app.Store, app.Store)
	load := func() error {
		res, err := loadgen.Run(app.EntryURL(), loadgen.Options{N: 1})
		if err != nil {
			return err
		}
		fmt.Printf("  injected load: %s\n", res)
		return nil
	}

	// --- Example 1: Overload(ServiceB); HasBoundedRetries(A, B, 5) ---
	overload := gremlin.Recipe{
		Name: "example1",
		Scenarios: []gremlin.Scenario{
			gremlin.Overload{Service: "serviceB", AbortFraction: 1},
		},
		Checks: []gremlin.Check{
			gremlin.ExpectBoundedRetries("serviceA", "serviceB", 5),
		},
	}
	fmt.Println("\n--- step 1: Overload(serviceB) + HasBoundedRetries(serviceA, serviceB, 5) ---")
	report, err := runner.Run(context.Background(), overload, gremlin.RunOptions{Load: load, ClearLogs: true})
	if err != nil {
		return err
	}
	fmt.Print(report)

	// --- Chained failure (§4.2): only proceed when retries are bounded ---
	if !report.Passed() {
		fmt.Println("no bounded retries — stopping (the paper raises here)")
		return nil
	}
	crash := gremlin.Recipe{
		Name: "chained-crash",
		Scenarios: []gremlin.Scenario{
			gremlin.Crash{Service: "serviceB"},
		},
		Checks: []gremlin.Check{
			gremlin.ExpectCircuitBreaker("serviceA", "serviceB", 5, 10*time.Second),
		},
	}
	fmt.Println("\n--- step 2: Crash(serviceB) + HasCircuitBreaker(serviceA, serviceB, ...) ---")
	report2, err := runner.Run(context.Background(), crash, gremlin.RunOptions{Load: load, ClearLogs: true})
	if err != nil {
		return err
	}
	fmt.Print(report2)
	if !report2.Passed() {
		fmt.Println("\nfinding: serviceA has bounded retries but NO circuit breaker —")
		fmt.Println("under a sustained crash of serviceB it will keep burning its retry")
		fmt.Println("budget on every user request instead of failing fast.")
	}

	// --- Bonus: the same plan, generated automatically from the graph ---
	fmt.Println("\n--- bonus: GenerateRecipes derives the same plan from the graph alone ---")
	recipes, err := gremlin.GenerateRecipes(app.Graph, gremlin.GenerateOptions{
		SkipServices: []string{"user"},
	})
	if err != nil {
		return err
	}
	for _, r := range recipes {
		fmt.Printf("  %s (%d checks)\n", r.Name, len(r.Checks))
	}
	fmt.Println("run them as a chain with runner.RunChain(...) or `gremlin autorun`.")
	return nil
}
