// Command watch demonstrates the live observability plane on the
// quickstart topology (serviceA -> serviceB):
//
//  1. The in-process event store is exposed over HTTP, including the
//     /v1/stream SSE endpoint and /metrics.
//  2. An online monitor (the engine behind gremlin watch) tails the
//     stream with a failure-reply bound while a Crash(serviceB) recipe
//     runs paced load through the faulted deployment.
//  3. The first violation aborts the load early — the live verdict lands
//     while the batch Assertion Checker is still waiting for the run to
//     finish — and the Prometheus endpoints show what the plane counted.
//
// Everything runs in this process on loopback TCP.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"gremlin"
	"gremlin/internal/agentapi"
	"gremlin/internal/checker"
	"gremlin/internal/eventlog"
	"gremlin/internal/loadgen"
	"gremlin/internal/registry"
	"gremlin/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== Gremlin live observability: watch a run fail in flight ===")

	app, err := topology.Build(topology.TwoServices(5, 2*time.Millisecond))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := app.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "close:", cerr)
		}
	}()

	// Expose the store over HTTP: the stream the monitor tails is the same
	// SSE endpoint `gremlin watch -store <url>` would consume.
	srv, err := eventlog.NewServer("127.0.0.1:0", app.Store)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("event store at %s (SSE: /v1/stream, metrics: /metrics)\n", srv.URL())

	// Online assertion: more than 3 failure replies anywhere in the test
	// namespace is a violation. The monitor cancels the load context the
	// moment it fires.
	live, err := checker.Build(checker.Spec{Type: "checkStatus", Pattern: "test-*", Status: -1, Max: 3})
	if err != nil {
		return err
	}
	loadCtx, cancelLoad := context.WithCancel(context.Background())
	defer cancelLoad()
	monitor := checker.NewMonitor([]*checker.Bound{live}, func(v checker.Violation) {
		fmt.Printf("\n  LIVE VIOLATION: %s\n", v)
		cancelLoad()
	})

	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	watchDone := make(chan error, 1)
	client := eventlog.NewClient(srv.URL(), nil)
	go func() {
		watchDone <- checker.Watch(watchCtx, checker.ClientFeed(client), "test-*", monitor, true)
	}()

	// Crash serviceB and drive paced load: 40 requests that would take
	// ~2 s, except the live bound cuts the run after the 4th failure.
	const planned = 40
	crash := gremlin.Recipe{
		Name:      "crash-watched",
		Scenarios: []gremlin.Scenario{gremlin.Crash{Service: "serviceB"}},
		Checks:    []gremlin.Check{gremlin.ExpectCircuitBreaker("serviceA", "serviceB", 5, 10*time.Second)},
	}
	runner := gremlin.NewRunner(app.Graph, gremlin.NewOrchestrator(app.Registry), app.Store, app.Store)
	agentURLs, err := registry.AllAgentURLs(app.Registry)
	if err != nil {
		return err
	}
	var sent int
	var agentMetrics []string
	report, err := runner.Run(context.Background(), crash, gremlin.RunOptions{
		ClearLogs: true,
		Load: func() error {
			res, lerr := loadgen.Run(app.EntryURL(), loadgen.Options{
				N: planned, Concurrency: 1, Interval: 50 * time.Millisecond,
				Context: loadCtx,
			})
			if res != nil {
				sent = len(res.Samples)
			}
			// Scrape the agents now, while the crash rules are still
			// installed: per-rule counters live with the rules and vanish
			// when the runner reverts them.
			for _, u := range agentURLs {
				body, merr := agentapi.New(u, nil).Metrics(context.Background())
				if merr != nil {
					return merr
				}
				agentMetrics = append(agentMetrics, body)
			}
			if monitor.Violated() {
				return nil // cut short on purpose; the violation is the verdict
			}
			return lerr
		},
	})
	if err != nil {
		return err
	}

	fmt.Printf("\nload stopped after %d of %d planned requests; monitor saw %d records\n",
		sent, planned, monitor.Observed())
	fmt.Println("\nthe batch checker still evaluates the partial run afterwards:")
	fmt.Print(report)

	stopWatch()
	<-watchDone

	// The same plane, as scrapeable metrics: the store counts what it
	// streamed, each agent counts which rules fired on its hop.
	fmt.Println("\n--- /metrics excerpts ---")
	storeBody, err := client.Metrics()
	if err != nil {
		return err
	}
	printMetrics("store", storeBody)
	for i, body := range agentMetrics {
		printMetrics("agent "+agentURLs[i], body)
	}
	return nil
}

// printMetrics dumps the interesting gremlin_* lines of one exposition.
func printMetrics(name, body string) {
	shown := 0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "gremlin_rule_") ||
			strings.HasPrefix(line, "gremlin_store_published_total") ||
			strings.HasPrefix(line, "gremlin_store_appended_total") ||
			strings.HasPrefix(line, "gremlin_agent_severed_total") {
			fmt.Printf("  [%s] %s\n", name, line)
			shown++
		}
	}
	if shown == 0 {
		fmt.Printf("  [%s] (no matching series)\n", name)
	}
}
