package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"gremlin/internal/core"
	"gremlin/internal/loadgen"
	"gremlin/internal/resilience"
	"gremlin/internal/topology"
)

// Table1Row is one cell of the outage-replay matrix: an outage recipe run
// against one deployment variant.
type Table1Row struct {
	// Outage names the historical incident class being replayed.
	Outage string

	// Deployment is "fragile" or "hardened".
	Deployment string

	// Passed reports whether the deployment's failure handling satisfied
	// the recipe's assertions (false predicts the outage).
	Passed bool

	// Detail is the first failing assertion (or a pass summary).
	Detail string
}

// Table1 replays the paper's Table 1 outage classes (§5) as recipes
// against fragile and hardened deployments.
//
// Middleware cascade (Stackdriver 2013, Parse.ly 2015): "Data published by
// various services into a message bus was being forwarded to the Cassandra
// cluster. When the cluster failed, the failure percolated to the message
// bus, filling the queues and blocking the publishers." The hardened
// deployment gives the publisher a 200 ms timeout and a breaker. Paper
// recipe:
//
//	Crash('cassandra')
//	for s in dependents('messagebus'):
//	    if not HasTimeouts(s, '1s') and not HasCircuitBreaker(s, 'messagebus', ...):
//	        raise 'Will block on message bus'
//
// Datastore overload (BBC 2014, CircleCI 2015, Joyent 2015): "When the
// database backend was overloaded, it started to throttle requests from
// various services. Services that had not cached the database responses
// locally began timing out and eventually failed completely." Elasticsearch
// plays the throttling store, rejecting every request with 503; the
// hardened deployment puts a breaker on WordPress's search path. Paper
// recipe:
//
//	Overload('database')
//	for s in dependents('database'):
//	    if not HasCircuitBreaker(s, 'database', ...):
//	        raise 'Will overload database'
//
// The expected shape, which CheckTable1 enforces: every fragile cell fails
// (Gremlin predicts the outage in seconds) and every hardened cell passes.
func Table1(opts Options) ([]Table1Row, error) {
	o := opts.withDefaults()
	var rows []Table1Row

	cascade := func(hardened bool) (Table1Row, error) {
		mbOpts := topology.MessageBusOptions{}
		label := "fragile"
		if hardened {
			label = "hardened"
			mbOpts.PublisherTimeout = 200 * time.Millisecond
			mbOpts.PublisherBreaker = &resilience.BreakerConfig{
				FailureThreshold: 5, OpenTimeout: 10 * time.Second,
			}
		}
		spec := topology.MessageBus(mbOpts)
		spec.RNG = o.rng()
		app, err := topology.Build(spec)
		if err != nil {
			return Table1Row{}, err
		}
		defer app.Close()
		runner := newRunner(app)

		var checks []core.Check
		deps, err := app.Graph.Dependents(topology.MessageBusService)
		if err != nil {
			return Table1Row{}, err
		}
		for _, s := range deps {
			checks = append(checks,
				core.ExpectTimeouts(s, time.Second),
				core.ExpectCircuitBreaker(s, topology.MessageBusService, 5, 5*time.Second),
			)
		}
		report, err := runner.Run(context.Background(), core.Recipe{
			Name:      "cassandra-crash",
			Scenarios: []core.Scenario{core.Crash{Service: topology.CassandraService}},
			Checks:    checks,
		}, core.RunOptions{ClearLogs: true, Load: func() error {
			_, lerr := loadgen.Run(app.EntryURL(), loadgen.Options{N: o.requests(30), RNG: o.rng()})
			return lerr
		}})
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			Outage:     "middleware cascade (Stackdriver'13, Parse.ly'15)",
			Deployment: label,
			Passed:     report.Passed(),
			Detail:     verdictDetail(report),
		}, nil
	}

	overload := func(hardened bool) (Table1Row, error) {
		wpOpts := topology.WordPressOptions{}
		label := "fragile"
		if hardened {
			label = "hardened"
			wpOpts.SearchBreaker = &resilience.BreakerConfig{
				FailureThreshold: 10,
				OpenTimeout:      10 * time.Second,
				Fallback:         resilience.StaticFallback(503, "breaker open"),
			}
		}
		spec := topology.WordPress(wpOpts)
		spec.RNG = o.rng()
		app, err := topology.Build(spec)
		if err != nil {
			return Table1Row{}, err
		}
		defer app.Close()
		runner := newRunner(app)

		var checks []core.Check
		deps, err := app.Graph.Dependents(topology.ElasticsearchService)
		if err != nil {
			return Table1Row{}, err
		}
		for _, s := range deps {
			checks = append(checks,
				core.ExpectCircuitBreaker(s, topology.ElasticsearchService, 10, 2*time.Second))
		}
		report, err := runner.Run(context.Background(), core.Recipe{
			Name: "database-overload",
			Scenarios: []core.Scenario{core.Overload{
				Service: topology.ElasticsearchService, AbortFraction: 1, ErrorCode: 503,
			}},
			Checks: checks,
		}, core.RunOptions{ClearLogs: true, Load: func() error {
			_, lerr := loadgen.Run(app.EntryURL(), loadgen.Options{N: o.requests(40), RNG: o.rng()})
			return lerr
		}})
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			Outage:     "datastore overload (BBC'14, CircleCI'15, Joyent'15)",
			Deployment: label,
			Passed:     report.Passed(),
			Detail:     verdictDetail(report),
		}, nil
	}

	for _, fn := range []func(bool) (Table1Row, error){cascade, overload} {
		for _, hardened := range []bool{false, true} {
			row, err := fn(hardened)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// CheckTable1 reports whether rows have Table 1's shape: two outages by two
// deployments, every "fragile" row failing and every "hardened" row
// passing.
func CheckTable1(rows []Table1Row) error {
	if len(rows) != 4 {
		return fmt.Errorf("table 1: %d rows, want 4 (2 outages x 2 deployments)", len(rows))
	}
	for _, r := range rows {
		switch {
		case r.Deployment == "fragile" && r.Passed:
			return fmt.Errorf("table 1: fragile deployment passed %q; the outage should be predicted", r.Outage)
		case r.Deployment == "hardened" && !r.Passed:
			return fmt.Errorf("table 1: hardened deployment failed %q: %s", r.Outage, r.Detail)
		case r.Deployment != "fragile" && r.Deployment != "hardened":
			return fmt.Errorf("table 1: unknown deployment %q", r.Deployment)
		}
	}
	return nil
}

func verdictDetail(r *core.Report) string {
	if failed := r.Failed(); len(failed) > 0 {
		return failed[0].Details
	}
	return fmt.Sprintf("all %d assertions held", len(r.Results))
}

// PrintTable1 renders the outage matrix as text.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: historical outages replayed as recipes (fragile should FAIL, hardened PASS)")
	for _, r := range rows {
		verdict := "FAIL (outage predicted)"
		if r.Passed {
			verdict = "PASS"
		}
		fmt.Fprintf(w, "  %-52s %-9s %s\n", r.Outage, r.Deployment, verdict)
		fmt.Fprintf(w, "  %52s           %s\n", "", truncate(r.Detail, 100))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
