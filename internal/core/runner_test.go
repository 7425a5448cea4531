package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/graph"
	"gremlin/internal/loadgen"
	"gremlin/internal/orchestrator"
	"gremlin/internal/registry"
	"gremlin/internal/topology"
)

// harness bundles a running app with a recipe runner wired over real HTTP
// control channels.
type harness struct {
	app    *topology.App
	runner *core.Runner
}

func newHarness(t *testing.T, spec topology.Spec) *harness {
	t.Helper()
	if spec.RNG == nil {
		spec.RNG = rand.New(rand.NewSource(7))
	}
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
	runner := core.NewRunner(app.Graph, orch, app.Store, app.Store)
	return &harness{app: app, runner: runner}
}

func (h *harness) load(t *testing.T, n int) func() error {
	return func() error {
		_, err := loadgen.Run(h.app.EntryURL(), loadgen.Options{N: n, RNG: rand.New(rand.NewSource(2))})
		return err
	}
}

// TestExample1BoundedRetries reproduces the paper's §3.2 Example 1: stage a
// degradation of ServiceB and assert ServiceA retries at most 5 times.
func TestExample1BoundedRetries(t *testing.T) {
	h := newHarness(t, topology.TwoServices(5, time.Millisecond))

	recipe := core.Recipe{
		Name:      "example1",
		Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
		Checks: []core.Check{
			core.ExpectBoundedRetriesOpts("serviceA", "serviceB", 5,
				checker.BoundedRetriesOptions{FailureThreshold: 5, Window: time.Minute}),
		},
	}
	report, err := h.runner.Run(context.Background(), recipe, core.RunOptions{Load: h.load(t, 1), ClearLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("bounded-retry service failed the check:\n%s", report)
	}
	if report.AgentCount != 1 || len(report.Rules) != 1 {
		t.Fatalf("report = %+v", report)
	}
	if report.OrchestrationTime <= 0 || report.AssertionTime <= 0 || report.LoadTime <= 0 {
		t.Fatalf("timings missing: %+v", report)
	}

	// Rules are reverted after the run: traffic flows normally again.
	res, err := loadgen.Run(h.app.EntryURL(), loadgen.Options{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate() != 1 {
		t.Fatalf("post-run success rate = %v, rules were not reverted", res.SuccessRate())
	}
}

// TestExample1UnboundedRetriesFails is the negative: a service retrying 20
// times fails the 5-retry expectation.
func TestExample1UnboundedRetriesFails(t *testing.T) {
	h := newHarness(t, topology.TwoServices(20, time.Millisecond))
	recipe := core.Recipe{
		Name:      "example1-negative",
		Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
		Checks:    []core.Check{core.ExpectBoundedRetries("serviceA", "serviceB", 5)},
	}
	report, err := h.runner.Run(context.Background(), recipe, core.RunOptions{Load: h.load(t, 1), ClearLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Passed() {
		t.Fatalf("20-retry service passed the 5-retry check:\n%s", report)
	}
	if len(report.Failed()) != 1 {
		t.Fatalf("failed = %v", report.Failed())
	}
}

// TestRecipePatternScopesChecks: a recipe's pattern confines its checks as
// well as its faults. The same JSON recipe, run once on the default
// pattern with test- traffic and once on "load-*" with load- traffic,
// must reach the same verdicts: each check sees the flows its recipe
// faulted.
func TestRecipePatternScopesChecks(t *testing.T) {
	verdicts := func(pattern, idPrefix string) []checker.Result {
		h := newHarness(t, topology.TwoServices(20, time.Millisecond))
		recipe, err := core.ParseRecipe([]byte(`{
			"name": "scoped", "pattern": "` + pattern + `",
			"scenarios": [{"type": "disconnect", "from": "serviceA", "to": "serviceB"}],
			"checks": [
				{"type": "boundedRetries", "src": "serviceA", "dst": "serviceB", "maxTries": 5},
				{"type": "timeouts", "service": "serviceA", "maxLatencyMillis": 2000},
				{"type": "noCalls", "src": "serviceA", "dst": "serviceB"},
				{"type": "fallback", "service": "serviceA", "okFraction": 0.5}
			]}`))
		if err != nil {
			t.Fatal(err)
		}
		load := func() error {
			_, err := loadgen.Run(h.app.EntryURL(), loadgen.Options{N: 1, IDPrefix: idPrefix, RNG: rand.New(rand.NewSource(2))})
			return err
		}
		report, err := h.runner.Run(context.Background(), recipe, core.RunOptions{Load: load, ClearLogs: true})
		if err != nil {
			t.Fatal(err)
		}
		return report.Results
	}
	want := verdicts("", "test-")
	got := verdicts("load-*", "load-")
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Check != want[i].Check || got[i].Passed != want[i].Passed {
			t.Errorf("load-* check %d = %s, default pattern gave %s", i, got[i], want[i])
		}
	}
	// The 20-retry caller breaks the retry bound and calls the faulted
	// edge: both verdicts need the run's flows in view.
	if want[0].Passed || want[2].Passed {
		t.Fatalf("default-pattern run did not see its flows: %v", want)
	}
}

// TestChainedFailures reproduces §4.2's chained test: stage an Overload
// first; only if bounded retries hold, stage a Crash and check for a
// circuit breaker. Our serviceA has bounded retries but no breaker, so the
// chain runs both steps and the second fails.
func TestChainedFailures(t *testing.T) {
	h := newHarness(t, topology.TwoServices(3, time.Millisecond))
	overload := core.Recipe{
		Name:      "step1-overload",
		Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
		Checks:    []core.Check{core.ExpectBoundedRetries("serviceA", "serviceB", 5)},
	}
	crash := core.Recipe{
		Name:      "step2-crash",
		Scenarios: []core.Scenario{core.Crash{Service: "serviceB"}},
		Checks:    []core.Check{core.ExpectCircuitBreaker("serviceA", "serviceB", 3, 10*time.Second)},
	}
	reports, err := h.runner.RunChain(context.Background(), core.RunOptions{Load: h.load(t, 1), ClearLogs: true}, overload, crash)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	if !reports[0].Passed() {
		t.Fatalf("step 1 should pass:\n%s", reports[0])
	}
	if reports[1].Passed() {
		t.Fatalf("step 2 should fail (no circuit breaker):\n%s", reports[1])
	}
}

// TestChainStopsOnFailure: a failing first step prevents the second from
// running.
func TestChainStopsOnFailure(t *testing.T) {
	h := newHarness(t, topology.TwoServices(20, time.Millisecond))
	failing := core.Recipe{
		Name:      "failing",
		Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
		Checks:    []core.Check{core.ExpectBoundedRetries("serviceA", "serviceB", 5)},
	}
	never := core.Recipe{
		Name:      "never-runs",
		Scenarios: []core.Scenario{core.Crash{Service: "serviceB"}},
		Checks:    []core.Check{core.ExpectCircuitBreaker("serviceA", "serviceB", 3, time.Second)},
	}
	reports, err := h.runner.RunChain(context.Background(), core.RunOptions{Load: h.load(t, 1), ClearLogs: true}, failing, never)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("chain ran %d steps, want 1", len(reports))
	}
}

func TestRunChainEmpty(t *testing.T) {
	h := newHarness(t, topology.TwoServices(0, 0))
	if _, err := h.runner.RunChain(context.Background(), core.RunOptions{}); err == nil {
		t.Fatal("want error")
	}
}

// TestCrashCascades: crashing the leaf makes the edge see errors — and a
// fallback check against the entry service fails.
func TestCrashCascades(t *testing.T) {
	h := newHarness(t, topology.TwoServices(-1, 0))
	recipe := core.Recipe{
		Name:      "crash-leaf",
		Scenarios: []core.Scenario{core.Crash{Service: "serviceB"}},
		Checks:    []core.Check{core.ExpectFallback("serviceA", 0.9)},
	}
	report, err := h.runner.Run(context.Background(), recipe, core.RunOptions{Load: h.load(t, 5), ClearLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Passed() {
		t.Fatalf("serviceA has no fallback; check should fail:\n%s", report)
	}
}

// TestWordPressFallbackRecipe: the ElasticPress behaviour — Crash of
// elasticsearch is survived via the MySQL fallback.
func TestWordPressFallbackRecipe(t *testing.T) {
	h := newHarness(t, topology.WordPress(topology.WordPressOptions{BackendWorkTime: time.Millisecond}))
	recipe := core.Recipe{
		Name:      "es-crash",
		Scenarios: []core.Scenario{core.Crash{Service: topology.ElasticsearchService}},
		Checks: []core.Check{
			core.ExpectFallback(topology.WordPressService, 0.99),
			core.ExpectTimeouts(topology.WordPressService, time.Second),
		},
	}
	report, err := h.runner.Run(context.Background(), recipe, core.RunOptions{Load: h.load(t, 10), ClearLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("fallback should survive an ES crash:\n%s", report)
	}
}

// TestWordPressNoTimeoutDetected: delaying elasticsearch exposes the
// missing timeout (the §7.1 finding behind Figure 5).
func TestWordPressNoTimeoutDetected(t *testing.T) {
	h := newHarness(t, topology.WordPress(topology.WordPressOptions{BackendWorkTime: time.Millisecond}))
	recipe := core.Recipe{
		Name: "es-slow",
		Scenarios: []core.Scenario{
			core.Delay{Src: topology.WordPressService, Dst: topology.ElasticsearchService, Interval: 300 * time.Millisecond},
		},
		Checks: []core.Check{core.ExpectTimeouts(topology.WordPressService, 100*time.Millisecond)},
	}
	report, err := h.runner.Run(context.Background(), recipe, core.RunOptions{Load: h.load(t, 5), ClearLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Passed() {
		t.Fatalf("missing timeout should be detected:\n%s", report)
	}
	if !strings.Contains(report.String(), "no effective timeout") {
		t.Fatalf("report = %s", report)
	}
}

func TestKeepRules(t *testing.T) {
	h := newHarness(t, topology.TwoServices(-1, 0))
	recipe := core.Recipe{
		Name:      "keep",
		Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
	}
	_, err := h.runner.Run(context.Background(), recipe, core.RunOptions{Load: h.load(t, 1), KeepRules: true, ClearLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	// Rules still active: traffic keeps failing.
	res, err := loadgen.Run(h.app.EntryURL(), loadgen.Options{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate() != 0 {
		t.Fatalf("rules should still be installed; success rate = %v", res.SuccessRate())
	}
}

func TestClearLogs(t *testing.T) {
	h := newHarness(t, topology.TwoServices(-1, 0))
	// Pre-existing noise in the store.
	if err := h.app.Store.Log(eventlog.Record{Src: "noise", Dst: "noise", Kind: eventlog.KindRequest}); err != nil {
		t.Fatal(err)
	}
	recipe := core.Recipe{
		Name:      "clear",
		Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
	}
	if _, err := h.runner.Run(context.Background(), recipe, core.RunOptions{Load: h.load(t, 1), ClearLogs: true}); err != nil {
		t.Fatal(err)
	}
	recs, err := h.app.Store.Select(eventlog.Query{Src: "noise"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatal("ClearLogs should have wiped pre-existing records")
	}
}

// TestWholeTestUnderOneSecond mirrors the §7.2 claim that a complete test
// (orchestrate + 100 requests + assertions) finishes quickly. We allow a
// generous bound for loaded CI machines.
func TestWholeTestUnderOneSecond(t *testing.T) {
	h := newHarness(t, topology.BinaryTree(2, 0))
	recipe := core.Recipe{
		Name:      "tree-delay",
		Scenarios: []core.Scenario{core.Delay{Src: "tree-0", Dst: "tree-1", Interval: 5 * time.Millisecond}},
		Checks:    []core.Check{core.ExpectTimeouts("tree-0", time.Second)},
	}
	report, err := h.runner.Run(context.Background(), recipe, core.RunOptions{Load: h.load(t, 100), ClearLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("report:\n%s", report)
	}
	if report.TotalTime() > 3*time.Second {
		t.Fatalf("whole test took %s; the paper reports well under a second", report.TotalTime())
	}
}

func TestReportString(t *testing.T) {
	h := newHarness(t, topology.TwoServices(3, time.Millisecond))
	recipe := core.Recipe{
		Name:      "render",
		Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
		Checks:    []core.Check{core.ExpectBoundedRetries("serviceA", "serviceB", 5)},
	}
	report, err := h.runner.Run(context.Background(), recipe, core.RunOptions{Load: h.load(t, 1), ClearLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	s := report.String()
	for _, frag := range []string{"recipe render", "timings:", "HasBoundedRetries"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("report missing %q:\n%s", frag, s)
		}
	}
}

// TestExponentialBackoffEndToEnd observes the demo retry client's real
// backoff through the full stack: the retry gaps recorded by the agent
// satisfy the exponential-backoff check, and a fixed-interval retrier
// fails it.
func TestExponentialBackoffEndToEnd(t *testing.T) {
	// TwoServices uses BaseBackoff with multiplier 2 capped at 4x: gaps of
	// roughly 20, 40, 80, 80 ms. Growth factor 1.5 accommodates the cap.
	h := newHarness(t, topology.TwoServices(3, 20*time.Millisecond))
	recipe := core.Recipe{
		Name:      "backoff",
		Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
		Checks:    []core.Check{core.ExpectExponentialBackoff("serviceA", "serviceB", 1.5)},
	}
	report, err := h.runner.Run(context.Background(), recipe, core.RunOptions{Load: h.load(t, 1), ClearLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("exponential backoff should be detected:\n%s", report)
	}
}

// TestRunOperationalFailures covers the runner's error paths: unreachable
// agents, failing load injection, and translation failures must surface as
// errors (never as bogus verdicts) and must not leave rules behind.
func TestRunOperationalFailures(t *testing.T) {
	t.Run("unreachable agents", func(t *testing.T) {
		reg := registry.NewStatic(registry.Instance{
			Service: "serviceA", Addr: "x:1", AgentControlURL: "http://127.0.0.1:1",
		})
		g := graph.New()
		g.AddEdge("serviceA", "serviceB")
		runner := core.NewRunner(g, orchestrator.New(reg), eventlog.NewStore(), nil)
		_, err := runner.Run(context.Background(), core.Recipe{
			Name:      "x",
			Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
		}, core.RunOptions{})
		if err == nil {
			t.Fatal("want orchestration error")
		}
	})

	t.Run("load failure reverts rules", func(t *testing.T) {
		h := newHarness(t, topology.TwoServices(0, 0))
		_, err := h.runner.Run(context.Background(), core.Recipe{
			Name:      "x",
			Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
		}, core.RunOptions{Load: func() error { return errors.New("generator crashed") }})
		if err == nil {
			t.Fatal("want load error")
		}
		if n := h.app.Agent("serviceA").Matcher().Len(); n != 0 {
			t.Fatalf("%d rules left installed after failed load", n)
		}
	})

	t.Run("translate failure", func(t *testing.T) {
		h := newHarness(t, topology.TwoServices(0, 0))
		_, err := h.runner.Run(context.Background(), core.Recipe{
			Name:      "x",
			Scenarios: []core.Scenario{core.Crash{Service: "ghost"}},
		}, core.RunOptions{})
		if err == nil {
			t.Fatal("want translation error")
		}
	})

	t.Run("check error reverts rules", func(t *testing.T) {
		h := newHarness(t, topology.TwoServices(0, 0))
		_, err := h.runner.Run(context.Background(), core.Recipe{
			Name:      "x",
			Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
			Checks: []core.Check{func(c *checker.Checker) (checker.Result, error) {
				return checker.Result{}, errors.New("assertion machinery broke")
			}},
		}, core.RunOptions{})
		if err == nil {
			t.Fatal("want check error")
		}
		if n := h.app.Agent("serviceA").Matcher().Len(); n != 0 {
			t.Fatalf("%d rules left installed after failed check", n)
		}
	})
}

// TestReportJSONSerializable pins the Report wire form used by tooling.
func TestReportJSONSerializable(t *testing.T) {
	h := newHarness(t, topology.TwoServices(0, 0))
	report, err := h.runner.Run(context.Background(), core.Recipe{
		Name:      "json",
		Scenarios: []core.Scenario{core.Disconnect{From: "serviceA", To: "serviceB"}},
		Checks:    []core.Check{core.ExpectNoCalls("serviceA", "serviceB")},
	}, core.RunOptions{Load: h.load(t, 1), ClearLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"recipe", "rules", "agentCount", "results", "orchestrationTimeNs"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("report JSON missing %q: %s", key, b)
		}
	}
}
