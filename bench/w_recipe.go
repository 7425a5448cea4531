package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/orchestrator"
	"gremlin/internal/topology"
	"gremlin/internal/trace"
)

// recipe_cycle is the tester's turnaround (paper Fig. 7): one recipe run
// from translation to revert over a 15-service binary tree, with the
// rules travelling over the agents' real control APIs. The data path
// carries two requests per run; the control plane does the work.

const (
	recipeDepth = 3
	// recipeRequests is the test load of one run. Each request is up to
	// 15 sequential hops, so more of them would make the data path, not
	// the control plane, decide the op's latency.
	recipeRequests = 2
)

// benchRecipe is a recipe plus what the oracle knows about it under any
// seed: each check's verdict and, where the faults are deterministic,
// the status the edge sees and the records one run must leave.
type benchRecipe struct {
	recipe   core.Recipe
	verdicts []bool
	status   int // 0 = depends on probability sampling
	// records is 0 where the count is not the recipe's alone to decide:
	// probability sampling, or a severed keep-alive connection, which
	// net/http may retry once.
	records int
}

// benchRecipes are the recipes the workload rotates through, in this
// order under every seed (the seed drives the agents' probability
// sampling and the request IDs): a seeded order would make the run's
// first op — part of setup_s — a different recipe per seed. There are
// five, each a fifth of the ops and each with its own typical latency,
// so the median op sits inside one recipe's ops and not on the edge
// between two. Tree services are tree-0 (root) .. tree-14.
func benchRecipes() []benchRecipe {
	left := []string{"tree-0", "tree-1", "tree-3", "tree-4", "tree-7", "tree-8", "tree-9", "tree-10"}
	right := []string{"tree-2", "tree-5", "tree-6", "tree-11", "tree-12", "tree-13", "tree-14"}
	return []benchRecipe{
		{
			// A rule on all 15 edges, every request served. One hop in ten is
			// delayed: the rules cost the control plane the same, and the run
			// does not spend its time asleep.
			recipe: core.Recipe{Name: "delay-all",
				Scenarios: []core.Scenario{core.DegradeNetwork{Interval: time.Millisecond, Probability: 0.1}},
				Checks: []core.Check{
					core.ExpectTimeouts("tree-0", time.Second),
					core.ExpectTimeouts("tree-1", time.Microsecond),
				}},
			verdicts: []bool{true, false}, status: http.StatusOK, records: recipeRequests * 2 * 15,
		},
		{
			// Abort a quarter, delay the rest: which requests fail is the
			// agents' seeded coin, so only the verdict is pinned.
			recipe: core.Recipe{Name: "overload",
				Scenarios: []core.Scenario{core.Overload{Service: "tree-1", Delay: time.Millisecond}},
				Checks:    []core.Check{core.ExpectBoundedRetries("tree-0", "tree-1", 3)}},
			verdicts: []bool{true},
		},
		{
			// tree-1 loses tree-3 and fails fast; the root fails fast in turn
			// and never reaches tree-2.
			recipe: core.Recipe{Name: "crash",
				Scenarios: []core.Scenario{core.Crash{Service: "tree-3"}},
				Checks:    []core.Check{core.ExpectNoCalls("tree-0", "tree-2")}},
			verdicts: []bool{true}, status: http.StatusBadGateway,
		},
		{
			// The left subtree answers, the cut edge to tree-2 is severed, the
			// root has no fallback.
			recipe: core.Recipe{Name: "partition",
				Scenarios: []core.Scenario{core.Partition{SideA: left, SideB: right}},
				Checks:    []core.Check{core.ExpectFallback("tree-0", 0.5)}},
			verdicts: []bool{false}, status: http.StatusBadGateway,
		},
		{
			// tree-2's replies reach the root rewritten but still 200: the
			// buffered reply path, every hop travelled.
			recipe: core.Recipe{Name: "fake-success",
				Scenarios: []core.Scenario{core.FakeSuccess{Service: "tree-2", Search: "tree", Replace: "TREE"}},
				Checks:    []core.Check{core.ExpectFallback("tree-0", 0.9)}},
			verdicts: []bool{true}, status: http.StatusOK, records: recipeRequests * 2 * 15,
		},
	}
}

type recipeDeployment struct {
	cfg     runConfig
	tr      *tracer
	app     *topology.App
	store   *eventlog.Store
	sink    *eventlog.BufferedSink
	source  *tracedSource // nil unless traced
	runner  *core.Runner
	recipes []benchRecipe
	client  *http.Client

	controlCalls atomic.Int64
	assertNs     int64 // time inside the current op's checks (one client: no lock)

	expected, found int64 // record pairs, since the last settle
	// per recipe, over traced ops: runs, control-API calls, checker reads.
	traced [5]struct{ ops, control, selects, records int64 }
}

func buildRecipe(cfg runConfig, tr *tracer) (deployment, error) {
	d := &recipeDeployment{cfg: cfg, tr: tr, client: newHTTPClient(), recipes: benchRecipes()}
	// Time the checks from inside, so the flush and the assertions — one
	// figure in core.Report — can be told apart.
	for i := range d.recipes {
		for j, check := range d.recipes[i].recipe.Checks {
			check := check
			d.recipes[i].recipe.Checks[j] = func(c *checker.Checker) (checker.Result, error) {
				t0 := time.Now()
				res, err := check(c)
				d.assertNs += int64(time.Since(t0))
				return res, err
			}
		}
	}

	d.store = eventlog.NewStore()
	d.sink = eventlog.NewBufferedSink(d.store, 0)
	spec := topology.BinaryTree(recipeDepth, 0)
	spec.Sink = d.sink
	spec.RNG = rand.New(rand.NewSource(cfg.seed))
	var err error
	if d.app, err = topology.Build(spec); err != nil {
		_ = d.sink.Close()
		return nil, err
	}
	var (
		opts   []orchestrator.Option
		source eventlog.Source = d.store
	)
	if tr != nil {
		opts = append(opts, orchestrator.WithDialer(func(url string) orchestrator.AgentControl {
			return &tracedControl{inner: agentapi.New(url, nil), tr: tr, calls: &d.controlCalls}
		}))
		d.source = &tracedSource{src: d.store, tr: tr}
		source = d.source
	}
	d.runner = core.NewRunner(d.app.Graph, orchestrator.New(d.app.Registry, opts...), source, d.store)
	return d, nil
}

// load sends the run's test requests and checks the status the edge
// sees, where the recipe's faults make it certain.
func (d *recipeDeployment) load(br *benchRecipe, n uint64) error {
	for i := 0; i < recipeRequests; i++ {
		req, err := http.NewRequest(http.MethodGet, d.app.EntryURL()+"/r", nil)
		if err != nil {
			return err
		}
		req.Header.Set(trace.HeaderRequestID, requestID("test", d.cfg.seed, n*recipeRequests+uint64(i)))
		resp, err := d.client.Do(req)
		if err != nil {
			return err
		}
		var buf [4096]byte
		if _, err := readSmall(resp, buf[:]); err != nil {
			return err
		}
		if br.status != 0 && resp.StatusCode != br.status {
			return fmt.Errorf("%s: request answered %d, want %d", br.recipe.Name, resp.StatusCode, br.status)
		}
	}
	return nil
}

func (d *recipeDeployment) op(_ side, _ int, n uint64) error {
	idx := int((n - 1) % uint64(len(d.recipes)))
	br := &d.recipes[idx]
	currentOp.Store(n)
	d.assertNs = 0
	t0, traced := d.tr.begin()
	var calls0, sel0, rec0 int64
	if traced {
		defer d.tr.release()
		calls0 = d.controlCalls.Load()
		sel0, rec0 = d.source.calls.Load(), d.source.records.Load()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := d.runner.Run(ctx, br.recipe, core.RunOptions{
		ClearLogs: true,
		Load:      func() error { return d.load(br, n) },
	})
	if err != nil {
		return fmt.Errorf("op %d: %w", n, err)
	}

	if traced {
		// core.Report gives each phase's duration; the phases run back to
		// back, so laying them end to end from the op's start places them.
		at := t0
		for _, ph := range []struct {
			kind spanKind
			dur  int64
		}{
			{kTranslate, int64(rep.TranslateTime)},
			{kApply, int64(rep.OrchestrationTime)},
			{kLoad, int64(rep.LoadTime)},
			{kFlushAll, int64(rep.AssertionTime) - d.assertNs},
			{kAssert, d.assertNs},
			{kRevert, int64(rep.RevertTime)},
		} {
			d.tr.put(ph.kind, n, at, at+ph.dur)
			at += ph.dur
		}
		t := &d.traced[idx]
		t.ops++
		t.control += d.controlCalls.Load() - calls0
		t.selects += d.source.calls.Load() - sel0
		t.records += d.source.records.Load() - rec0
	}

	// Oracle: verdicts as pinned, records in request/reply pairs (and in
	// the exact number where the faults are deterministic), no rule left
	// on any agent.
	if len(rep.Results) != len(br.verdicts) {
		return fmt.Errorf("op %d: %s returned %d results, want %d", n, br.recipe.Name, len(rep.Results), len(br.verdicts))
	}
	for i, res := range rep.Results {
		if res.Passed != br.verdicts[i] {
			return fmt.Errorf("op %d: %s check %q passed=%t, pinned %t (%s)", n, br.recipe.Name, res.Check, res.Passed, br.verdicts[i], res.Details)
		}
	}
	requests, err := d.store.Count(eventlog.Query{Kind: eventlog.KindRequest})
	if err != nil {
		return err
	}
	total := d.store.Len()
	d.expected += 2 * int64(requests)
	d.found += int64(total)
	if br.records != 0 && total != br.records {
		return fmt.Errorf("op %d: %s left %d records, want %d", n, br.recipe.Name, total, br.records)
	}
	for _, svc := range append(d.app.Services(), topology.EdgeService) {
		for _, a := range d.app.Agents(svc) {
			if left := a.Matcher().Len(); left != 0 {
				return fmt.Errorf("op %d: %d rules left on %s's agent after revert", n, left, svc)
			}
		}
	}
	return nil
}

func (d *recipeDeployment) settle(side) (expected, found int64, err error) {
	expected, found = d.expected, d.found
	d.expected, d.found = 0, 0
	if d.sink.Dropped() != 0 {
		err = fmt.Errorf("buffered sink dropped %d records", d.sink.Dropped())
	}
	return expected, found, err
}

func (d *recipeDeployment) close() {
	d.client.CloseIdleConnections()
	_ = d.app.Close()
	_ = d.sink.Close()
}

func recipeLayers(dep deployment, tv *traceView, m map[string]float64) {
	d := dep.(*recipeDeployment)
	phase := func(kind spanKind) float64 {
		return tv.median(tv.agent, nil, func(t *opTree) int64 { return t.dur[kind] }) / 1e3
	}
	m["core.translate_us"] = phase(kTranslate)
	m["orchestrator.apply_us"] = phase(kApply)
	m["orchestrator.flush_all_us"] = phase(kFlushAll)
	m["checker.assert_us"] = phase(kAssert)
	m["orchestrator.revert_us"] = phase(kRevert)
	call := func(kind spanKind) float64 {
		return tv.median(tv.agent, func(t *opTree) bool { return t.count[kind] > 0 },
			func(t *opTree) int64 { return t.dur[kind] / int64(t.count[kind]) }) / 1e3
	}
	m["agentapi.put_ruleset_us"] = call(kPutRuleSet)
	m["agentapi.flush_us"] = call(kAgentFlush)
	m["bench.span_coverage_ratio"] = float64(tv.median(tv.agent, nil, func(t *opTree) int64 {
		sum := t.dur[kTranslate] + t.dur[kApply] + t.dur[kLoad] + t.dur[kFlushAll] + t.dur[kAssert] + t.dur[kRevert]
		return 1000 * sum / max(t.dur[kOp], 1)
	})) / 1000
	// The recipes differ in how many agents they touch and how much they
	// read; weighting those that ran equally makes the per-op counts exact
	// whatever recipe the run happened to stop on.
	var control, selects, records, k float64
	for _, t := range d.traced {
		if t.ops == 0 {
			continue
		}
		k++
		control += float64(t.control) / float64(t.ops)
		selects += float64(t.selects) / float64(t.ops)
		records += float64(t.records) / float64(t.ops)
	}
	if k == 0 {
		return
	}
	m["orchestrator.control_calls_op"] = control / k
	m["checker.select_calls_op"] = selects / k
	m["checker.records_read_op"] = records / k
}
