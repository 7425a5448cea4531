// Command wordpress reproduces the paper's WordPress/ElasticPress case
// study (§7.1, Figures 5 and 6) on a simulated stack: WordPress with an
// ElasticPress-style plugin that queries Elasticsearch and falls back to
// MySQL on error — but ships with no timeout and no circuit breaker.
//
// The program:
//  1. verifies the fallback works under an Elasticsearch crash,
//  2. prints Figure 5 (experiments.Figure5): response-time CDFs under
//     injected delays, offset by exactly the delay (no timeout),
//  3. prints Figure 6 (experiments.Figure6): after a run of aborts, no
//     delayed request returns early (no circuit breaker), and
//  4. re-runs the delay test against a *fixed* plugin (with a timeout) to
//     show the assertions pass once the pattern is implemented.
//
// Figures 5 and 6 run at a tenth of the paper's delays (100–400 ms and
// 300 ms).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"gremlin"
	"gremlin/internal/experiments"
	"gremlin/internal/loadgen"
	"gremlin/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== Case study: WordPress + ElasticPress + Elasticsearch + MySQL ===")

	// 1. The fallback path: crash Elasticsearch, expect MySQL to serve.
	fmt.Println("\n--- 1. Crash(elasticsearch): does the plugin fall back to MySQL? ---")
	if err := withStack(0, func(runner *gremlin.Runner, app *topology.App) error {
		report, err := runner.Run(context.Background(), gremlin.Recipe{
			Name:      "es-crash-fallback",
			Scenarios: []gremlin.Scenario{gremlin.Crash{Service: topology.ElasticsearchService}},
			Checks:    []gremlin.Check{gremlin.ExpectFallback(topology.WordPressService, 0.99)},
		}, gremlin.RunOptions{ClearLogs: true, Load: func() error {
			_, err := loadgen.Run(app.EntryURL(), loadgen.Options{N: 20, Concurrency: 4})
			return err
		}})
		if err != nil {
			return err
		}
		fmt.Print(report)
		return nil
	}); err != nil {
		return err
	}

	opts := experiments.Options{Scale: 0.1}
	fmt.Println("\n--- 2. Figure 5: delayed Elasticsearch, WordPress response-time CDFs ---")
	series, err := experiments.Figure5(opts)
	if err != nil {
		return err
	}
	experiments.PrintFigure5(os.Stdout, series)

	fmt.Println("\n--- 3. Figure 6: aborts then delayed requests (circuit breaker?) ---")
	fig6, err := experiments.Figure6(opts)
	if err != nil {
		return err
	}
	experiments.PrintFigure6(os.Stdout, fig6)

	// 4. The fix: give the plugin a 50 ms search timeout and re-run the
	// delay scenario — the HasTimeouts assertion now passes.
	fmt.Println("\n--- 4. Fixed plugin (50 ms search timeout), same delay fault ---")
	return withStack(50*time.Millisecond, func(runner *gremlin.Runner, app *topology.App) error {
		const delay = 300 * time.Millisecond
		var res *loadgen.Result
		report, err := runner.Run(context.Background(), gremlin.Recipe{
			Name: "fixed-plugin-delay",
			Scenarios: []gremlin.Scenario{gremlin.Delay{
				Src: topology.WordPressService, Dst: topology.ElasticsearchService, Interval: delay,
			}},
			Checks: []gremlin.Check{gremlin.ExpectTimeouts(topology.WordPressService, delay/2)},
		}, gremlin.RunOptions{ClearLogs: true, Load: func() error {
			var err error
			res, err = loadgen.Run(app.EntryURL(), loadgen.Options{N: 50, Concurrency: 4})
			return err
		}})
		if err != nil {
			return err
		}
		max, _ := res.CDF().Max()
		verdict := "FAIL"
		if report.Passed() {
			verdict = "PASS"
		}
		fmt.Printf("  slowest response %.0f ms with a %s injected delay (timeout check: %s)\n",
			max*1000, delay, verdict)
		return nil
	})
}

// withStack builds the WordPress stack with the given plugin search
// timeout (0 = none, as ElasticPress ships), hands fn a runner over it and
// tears the stack down.
func withStack(searchTimeout time.Duration, fn func(*gremlin.Runner, *topology.App) error) error {
	app, err := topology.Build(topology.WordPress(topology.WordPressOptions{
		BackendWorkTime: 5 * time.Millisecond,
		SearchTimeout:   searchTimeout,
	}))
	if err != nil {
		return err
	}
	defer func() {
		if err := app.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "close:", err)
		}
	}()
	return fn(gremlin.NewRunner(app.Graph, gremlin.NewOrchestrator(app.Registry), app.Store, app.Store), app)
}
