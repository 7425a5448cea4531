// Package experiments is the one implementation of the paper's evaluation
// (§7): the outage replays (Table 1), the WordPress delay CDFs (Figure 5),
// the abort-then-delay circuit breaker test (Figure 6),
// orchestration/assertion time vs. application size (Figure 7), and the
// proxy rule-matching overhead CDFs (Figure 8).
//
// Each experiment returns structured series that gremlin-bench, the
// outages and wordpress examples and this package's shape tests all read.
// Absolute numbers differ from the paper's (their data plane was measured
// on a 2016 container testbed); the reproduction target is the *shape* of
// each result, documented in EXPERIMENTS.md. The repository benchmark
// (bench/) measures the data and control planes; it does not reproduce
// these figures.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"gremlin/internal/core"
	"gremlin/internal/loadgen"
	"gremlin/internal/orchestrator"
	"gremlin/internal/stats"
	"gremlin/internal/topology"
)

// Options tunes experiment scale so the suite runs both as a quick
// benchmark and at paper scale.
type Options struct {
	// Scale multiplies the paper's injected delays (1.0 = the paper's 1–4 s
	// for Figure 5 and 3 s for Figure 6). Default 0.1 for laptop runs.
	Scale float64

	// Requests is the per-point request count (paper: 100 for Figures 5–7,
	// 10000 for Figure 8). Default: the paper's counts scaled to stay fast;
	// set explicitly for paper scale.
	Requests int

	// Seed fixes all randomness.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) rng() *rand.Rand { return rand.New(rand.NewSource(o.Seed)) }

func (o Options) requests(def int) int {
	if o.Requests > 0 {
		return o.Requests
	}
	return def
}

// newRunner wires a runner over a freshly built app.
func newRunner(app *topology.App) *core.Runner {
	return core.NewRunner(app.Graph, orchestrator.New(app.Registry), app.Store, app.Store)
}

// DelaySeries is one CDF of Figure 5: WordPress response times under one
// injected delay.
type DelaySeries struct {
	// InjectedDelay is the delay staged between WordPress and
	// Elasticsearch.
	InjectedDelay time.Duration

	// CDF is the distribution of WordPress response times (seconds).
	CDF *stats.CDF

	// TimeoutCheckPassed is the HasTimeouts assertion outcome (the paper's
	// finding: always false for the unmodified plugin).
	TimeoutCheckPassed bool
}

// Figure5 sweeps injected delays between WordPress and Elasticsearch and
// measures WordPress response-time CDFs at the edge. The paper's delays
// are 1, 2, 3, 4 s; they are multiplied by opts.Scale.
func Figure5(opts Options) ([]DelaySeries, error) {
	o := opts.withDefaults()
	app, err := topology.Build(wordpressSpec(o))
	if err != nil {
		return nil, err
	}
	defer app.Close()
	runner := newRunner(app)

	n := o.requests(100)
	var out []DelaySeries
	for _, base := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second} {
		d := time.Duration(float64(base) * o.Scale)
		var res *loadgen.Result
		report, err := runner.Run(context.Background(), core.Recipe{
			Name: fmt.Sprintf("fig5-%s", d),
			Scenarios: []core.Scenario{core.Delay{
				Src: topology.WordPressService, Dst: topology.ElasticsearchService, Interval: d,
			}},
			Checks: []core.Check{core.ExpectTimeouts(topology.WordPressService, d/2)},
		}, core.RunOptions{ClearLogs: true, Load: func() error {
			var lerr error
			res, lerr = loadgen.Run(app.EntryURL(), loadgen.Options{N: n, Concurrency: 4, RNG: o.rng()})
			return lerr
		}})
		if err != nil {
			return nil, err
		}
		out = append(out, DelaySeries{
			InjectedDelay:      d,
			CDF:                res.CDF(),
			TimeoutCheckPassed: report.Passed(),
		})
	}
	return out, nil
}

// Figure6Result holds the two CDFs of Figure 6.
type Figure6Result struct {
	// InjectedDelay is the delay applied to the second batch (paper: 3 s).
	InjectedDelay time.Duration

	// Aborted is the response-time CDF of the first 100 requests, during
	// which calls to Elasticsearch were aborted (fallback answers).
	Aborted *stats.CDF

	// Delayed is the CDF of the next 100 requests, delayed by
	// InjectedDelay.
	Delayed *stats.CDF

	// BreakerCheckPassed is the HasCircuitBreaker outcome (paper: false —
	// no delayed request returned early).
	BreakerCheckPassed bool
}

// Figure6 aborts 100 consecutive WordPress→Elasticsearch requests, then
// immediately delays the next 100, and reports both response-time CDFs. A
// correct circuit breaker would answer part of the delayed batch
// immediately; ElasticPress has none, so every delayed request waits out
// the full delay.
func Figure6(opts Options) (*Figure6Result, error) {
	o := opts.withDefaults()
	app, err := topology.Build(wordpressSpec(o))
	if err != nil {
		return nil, err
	}
	defer app.Close()
	runner := newRunner(app)

	n := o.requests(100)
	delay := time.Duration(float64(3*time.Second) * o.Scale)
	result := &Figure6Result{InjectedDelay: delay}

	// Batch 1: aborted.
	_, err = runner.Run(context.Background(), core.Recipe{
		Name: "fig6-abort",
		Scenarios: []core.Scenario{core.Disconnect{
			From: topology.WordPressService, To: topology.ElasticsearchService,
		}},
	}, core.RunOptions{ClearLogs: true, Load: func() error {
		res, lerr := loadgen.RunSequential(app.EntryURL(), n, "/search")
		if lerr != nil {
			return lerr
		}
		result.Aborted = res.CDF()
		return nil
	}})
	if err != nil {
		return nil, err
	}

	// Batch 2: delayed, immediately after; the breaker check runs over the
	// union of both batches' observations (no ClearLogs).
	report, err := runner.Run(context.Background(), core.Recipe{
		Name: "fig6-delay",
		Scenarios: []core.Scenario{core.Delay{
			Src: topology.WordPressService, Dst: topology.ElasticsearchService, Interval: delay,
		}},
		Checks: []core.Check{core.ExpectCircuitBreaker(
			topology.WordPressService, topology.ElasticsearchService, n, delay,
		)},
	}, core.RunOptions{Load: func() error {
		res, lerr := loadgen.RunSequential(app.EntryURL(), n, "/search")
		if lerr != nil {
			return lerr
		}
		result.Delayed = res.CDF()
		return nil
	}})
	if err != nil {
		return nil, err
	}
	result.BreakerCheckPassed = report.Passed()
	return result, nil
}

func wordpressSpec(o Options) topology.Spec {
	spec := topology.WordPress(topology.WordPressOptions{BackendWorkTime: 2 * time.Millisecond})
	spec.RNG = o.rng()
	return spec
}

// Figure7Row is one point of Figure 7: control-plane timings for one
// application size.
type Figure7Row struct {
	// Depth is the binary tree depth.
	Depth int

	// Services is the number of microservices (1, 3, 7, 15, 31).
	Services int

	// Orchestration is the time to install the outage's rules on every
	// agent.
	Orchestration time.Duration

	// Assertion is the time to flush logs and run one assertion per
	// service.
	Assertion time.Duration

	// AssertionScan and AssertionIndexed re-time one assertion pass per
	// service over the run's observations with the event store's
	// posting-list index off ("before", the paper-era full scan) and on
	// ("after"). The run itself — and Assertion above — uses the index.
	AssertionScan    time.Duration
	AssertionIndexed time.Duration

	// Load is the time to inject the test requests (reported for context;
	// the paper keeps it separate from the orchestration/assertion bars).
	Load time.Duration

	// Total is the whole test duration (paper: "the test was completed in
	// under one second").
	Total time.Duration
}

// Figure7 measures the time to orchestrate an outage and run assertions as
// a function of application size: binary trees of depth 0–4 (1–31
// services), a Delay fault impacting every service, 100 injected test
// requests, and one assertion per service (§7.2).
func Figure7(opts Options) ([]Figure7Row, error) {
	o := opts.withDefaults()
	n := o.requests(100)
	var out []Figure7Row
	for depth := 0; depth <= 4; depth++ {
		row, err := figure7Point(o, depth, n)
		if err != nil {
			return nil, err
		}
		out = append(out, *row)
	}
	return out, nil
}

func figure7Point(o Options, depth, n int) (*Figure7Row, error) {
	spec := topology.BinaryTree(depth, 0)
	spec.RNG = o.rng()
	app, err := topology.Build(spec)
	if err != nil {
		return nil, err
	}
	defer app.Close()
	runner := newRunner(app)

	// An outage that impacts all services: a Delay fault on every edge of
	// the application graph (including the user→root edge so even a
	// 1-service app has a fault to install).
	scenarios := []core.Scenario{core.DegradeNetwork{Interval: time.Millisecond}}
	// One assertion per service.
	var checks []core.Check
	for _, svc := range app.Services() {
		checks = append(checks, core.ExpectTimeouts(svc, time.Minute))
	}

	report, err := runner.Run(context.Background(), core.Recipe{
		Name:      fmt.Sprintf("fig7-depth%d", depth),
		Scenarios: scenarios,
		Checks:    checks,
	}, core.RunOptions{ClearLogs: true, Load: func() error {
		_, lerr := loadgen.Run(app.EntryURL(), loadgen.Options{N: n, Concurrency: 8, RNG: o.rng()})
		return lerr
	}})
	if err != nil {
		return nil, err
	}

	// Before/after series: the same assertion pass with the store's
	// posting-list index off (the pre-index full scan) and on.
	app.Store.UseLinearScan(true)
	scanT, err := timeAssertionPass(runner, app)
	if err != nil {
		return nil, err
	}
	app.Store.UseLinearScan(false)
	indexedT, err := timeAssertionPass(runner, app)
	if err != nil {
		return nil, err
	}

	return &Figure7Row{
		Depth:            depth,
		Services:         topology.TreeServiceCount(depth),
		Orchestration:    report.OrchestrationTime,
		Assertion:        report.AssertionTime,
		AssertionScan:    scanT,
		AssertionIndexed: indexedT,
		Load:             report.LoadTime,
		Total:            report.TotalTime(),
	}, nil
}

// timeAssertionPass runs one HasTimeouts assertion per service over the
// app's current observations and returns the wall time.
func timeAssertionPass(runner *core.Runner, app *topology.App) (time.Duration, error) {
	c := runner.Checker()
	start := time.Now()
	for _, svc := range app.Services() {
		if _, err := c.HasTimeouts(svc, time.Minute, "test-*"); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// PrintFigure5 renders Figure 5 series as text.
func PrintFigure5(w io.Writer, series []DelaySeries) {
	fmt.Fprintln(w, "Figure 5: WordPress response-time CDFs under injected wordpress->elasticsearch delays")
	fmt.Fprintln(w, "(paper: every CDF is offset by the injected delay — no timeout pattern)")
	for _, s := range series {
		min, _ := s.CDF.Min()
		p50, _ := s.CDF.Quantile(0.5)
		p99, _ := s.CDF.Quantile(0.99)
		fmt.Fprintf(w, "  delay=%-7s min=%8.1fms p50=%8.1fms p99=%8.1fms timeout-check=%s\n",
			s.InjectedDelay, min*1000, p50*1000, p99*1000, passFail(s.TimeoutCheckPassed))
		for _, p := range s.CDF.Points(5) {
			fmt.Fprintf(w, "      cdf %5.2f -> %8.1f ms\n", p.P, p.Value*1000)
		}
	}
}

// PrintFigure6 renders the Figure 6 result as text.
func PrintFigure6(w io.Writer, r *Figure6Result) {
	fmt.Fprintf(w, "Figure 6: aborted then delayed (by %s) request CDFs\n", r.InjectedDelay)
	fmt.Fprintln(w, "(paper: no delayed request returns before the injected delay — no circuit breaker)")
	aMax, _ := r.Aborted.Max()
	dMin, _ := r.Delayed.Min()
	fmt.Fprintf(w, "  aborted: %d samples, slowest %8.1f ms (fast fallback)\n", r.Aborted.Len(), aMax*1000)
	fmt.Fprintf(w, "  delayed: %d samples, fastest %8.1f ms (injected %s)\n", r.Delayed.Len(), dMin*1000, r.InjectedDelay)
	fmt.Fprintf(w, "  circuit-breaker check: %s\n", passFail(r.BreakerCheckPassed))
	for _, p := range r.Delayed.Points(5) {
		fmt.Fprintf(w, "      delayed cdf %5.2f -> %8.1f ms\n", p.P, p.Value*1000)
	}
}

// PrintFigure7 renders Figure 7 rows as text.
func PrintFigure7(w io.Writer, rows []Figure7Row) {
	fmt.Fprintln(w, "Figure 7: time to orchestrate an outage and run assertions vs. application size")
	fmt.Fprintln(w, "(paper: both components well under a second at 31 services)")
	fmt.Fprintf(w, "  %-9s %-9s %-14s %-14s %-14s %-14s %-12s %-12s\n",
		"services", "depth", "orchestration", "assertion", "assert-scan", "assert-index", "load(100rq)", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9d %-9d %-14s %-14s %-14s %-14s %-12s %-12s\n",
			r.Services, r.Depth,
			r.Orchestration.Round(time.Microsecond),
			r.Assertion.Round(time.Microsecond),
			r.AssertionScan.Round(time.Microsecond),
			r.AssertionIndexed.Round(time.Microsecond),
			r.Load.Round(time.Millisecond),
			r.Total.Round(time.Millisecond))
	}
	fmt.Fprintln(w, "  (assert-scan / assert-index: the same per-service assertion pass with the")
	fmt.Fprintln(w, "   event store's posting-list index off and on)")
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
