package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/checker"
	"gremlin/internal/eventlog"
	"gremlin/internal/graph"
	"gremlin/internal/orchestrator"
	"gremlin/internal/rules"
)

// Runner executes recipes against a deployment: it owns the three
// control-plane components (translator via Recipe.Translate, the Failure
// Orchestrator, and the Assertion Checker over the event store).
type Runner struct {
	graph  *graph.Graph
	orch   *orchestrator.Orchestrator
	source eventlog.Source
	check  *checker.Checker
	store  Clearer

	// loads is the load generation: Run bumps it as each run's load
	// ends. flushed holds, by service, the generation that was current
	// when its agents' last successful flush began; they are flushed
	// again only once a load has ended since (flushOnRead).
	loads   atomic.Uint64
	flushMu sync.Mutex
	flushed map[string]uint64
}

// Clearer optionally lets the runner wipe the event store between test
// steps so each step's assertions see only its own observations.
// *eventlog.Store implements it directly; eventlog.Client's Clear has a
// different signature and is adapted via ClearerFunc.
type Clearer interface {
	Clear() int
}

// ClearerFunc adapts a function to Clearer.
type ClearerFunc func() int

// Clear implements Clearer.
func (f ClearerFunc) Clear() int { return f() }

var _ Clearer = (*eventlog.Store)(nil)

// NewRunner builds a Runner. store may be nil if recipes never need log
// clearing between steps.
func NewRunner(g *graph.Graph, orch *orchestrator.Orchestrator, source eventlog.Source, store Clearer) *Runner {
	r := &Runner{
		graph:   g,
		orch:    orch,
		source:  source,
		store:   store,
		flushed: make(map[string]uint64),
	}
	// Generation 1 is the state before any run: an agent never flushed is
	// behind it.
	r.loads.Store(1)
	r.check = checker.New(&flushOnRead{r: r, ctx: context.Background()})
	return r
}

// Graph returns the runner's application graph.
func (r *Runner) Graph() *graph.Graph { return r.graph }

// Checker returns the runner's assertion checker, for ad-hoc queries
// between recipe steps. Like a run's checks, it reads through the
// runner's flush-on-read source: a query first flushes the agents whose
// records it can return, unless they were flushed after the latest run's
// load ended.
func (r *Runner) Checker() *checker.Checker { return r.check }

// Orchestrator returns the runner's failure orchestrator, for drift
// inspection and lease renewal while a recipe is staged.
func (r *Runner) Orchestrator() *orchestrator.Orchestrator { return r.orch }

// Report is the outcome of one recipe run. Timings separate the
// orchestration, load, and assertion phases — the breakdown the paper
// reports in Figure 7.
type Report struct {
	// Recipe is the recipe name.
	Recipe string `json:"recipe"`

	// Rules are the fault-injection rules the recipe translated into.
	Rules []rules.Rule `json:"rules"`

	// AgentCount is how many agents received rules.
	AgentCount int `json:"agentCount"`

	// Results holds one entry per check, in recipe order.
	Results []checker.Result `json:"results"`

	// TranslateTime is the time to decompose scenarios into rules.
	TranslateTime time.Duration `json:"translateTimeNs"`

	// OrchestrationTime is the time to install rules on all agents.
	OrchestrationTime time.Duration `json:"orchestrationTimeNs"`

	// LoadTime is the time spent injecting test traffic.
	LoadTime time.Duration `json:"loadTimeNs"`

	// AssertionTime is the time to evaluate all checks, including the
	// flushes of the agents their queries read (flushOnRead).
	AssertionTime time.Duration `json:"assertionTimeNs"`

	// RevertTime is the time to remove the rules again.
	RevertTime time.Duration `json:"revertTimeNs"`
}

// Passed reports whether every check passed.
func (r *Report) Passed() bool {
	for _, res := range r.Results {
		if !res.Passed {
			return false
		}
	}
	return true
}

// Failed returns the failed check results.
func (r *Report) Failed() []checker.Result {
	var out []checker.Result
	for _, res := range r.Results {
		if !res.Passed {
			out = append(out, res)
		}
	}
	return out
}

// TotalTime sums all phases.
func (r *Report) TotalTime() time.Duration {
	return r.TranslateTime + r.OrchestrationTime + r.LoadTime + r.AssertionTime + r.RevertTime
}

// String renders a multi-line human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	state := "PASSED"
	if !r.Passed() {
		state = "FAILED"
	}
	fmt.Fprintf(&b, "recipe %s: %s (%d rules on %d agents)\n", r.Recipe, state, len(r.Rules), r.AgentCount)
	fmt.Fprintf(&b, "  timings: translate=%s orchestrate=%s load=%s assert=%s revert=%s\n",
		r.TranslateTime.Round(time.Microsecond),
		r.OrchestrationTime.Round(time.Microsecond),
		r.LoadTime.Round(time.Millisecond),
		r.AssertionTime.Round(time.Microsecond),
		r.RevertTime.Round(time.Microsecond))
	for _, res := range r.Results {
		fmt.Fprintf(&b, "  %s\n", res)
	}
	return b.String()
}

// RunOptions tunes recipe execution.
type RunOptions struct {
	// Load injects test traffic while the failure is staged. Nil runs the
	// recipe against traffic generated elsewhere (e.g. an ambient load
	// generator).
	Load func() error

	// KeepRules leaves the fault-injection rules installed after the run
	// (for interactive exploration). The default reverts them.
	KeepRules bool

	// ClearLogs wipes the event store before injecting load so assertions
	// evaluate only this run's observations. Campaigns leave this false and
	// instead namespace each run's request-ID pattern, so concurrent runs
	// sharing one store don't erase each other's evidence.
	ClearLogs bool

	// AfterTranslate, when non-nil, observes the translated rule set before
	// it is installed. Campaigns record the edges each run actually faults
	// here, feeding coverage-driven scheduling.
	AfterTranslate func(ruleset []rules.Rule)

	// Owner names the desired-state owner the rules are registered under
	// in the orchestrator. Empty picks an anonymous per-run owner.
	// Campaigns set this so a run's rules are attributable and leasable.
	Owner string

	// LeaseTTL, when positive, leases the staged rules: if the run's
	// process dies without reverting, the orchestrator withdraws them
	// after the TTL — and the agents themselves expire them even if the
	// whole control plane died. Zero stages permanent rules (reverted
	// explicitly, as before).
	LeaseTTL time.Duration
}

// Run executes a recipe: translate → orchestrate → load → assert → revert.
// The checks read through a flush-on-read source: a query first flushes
// the agents whose records it can return and that have not been flushed
// since this run's load ended, so a run calls only the agents its checks
// read, each once. A failed flush fails the check; Run then reverts and
// returns the error.
func (r *Runner) Run(ctx context.Context, recipe Recipe, opts RunOptions) (*Report, error) {
	report := &Report{Recipe: recipe.name()}

	t0 := time.Now()
	ruleset, err := recipe.Translate(r.graph)
	if err != nil {
		return nil, err
	}
	report.Rules = ruleset
	report.TranslateTime = time.Since(t0)
	if opts.AfterTranslate != nil {
		opts.AfterTranslate(ruleset)
	}

	if opts.ClearLogs && r.store != nil {
		r.store.Clear()
	}

	t1 := time.Now()
	applied, err := r.orch.ApplyOwned(ctx, opts.Owner, opts.LeaseTTL, ruleset)
	if err != nil {
		return nil, fmt.Errorf("core: orchestrate %s: %w", recipe.name(), err)
	}
	report.OrchestrationTime = time.Since(t1)
	report.AgentCount = applied.AgentCount()

	revert := func() error {
		t := time.Now()
		err := applied.Revert(ctx)
		report.RevertTime = time.Since(t)
		return err
	}

	if opts.Load != nil {
		t2 := time.Now()
		if err := opts.Load(); err != nil {
			_ = revert()
			return nil, fmt.Errorf("core: load injection for %s: %w", recipe.name(), err)
		}
		report.LoadTime = time.Since(t2)
	}

	load := r.loads.Add(1)
	t3 := time.Now()
	scoped := checker.New(&flushOnRead{r: r, ctx: ctx, load: load}).Scoped(recipe.pattern())
	for _, check := range recipe.Checks {
		res, err := check(scoped)
		if err != nil {
			_ = revert()
			return nil, fmt.Errorf("core: assertion in %s: %w", recipe.name(), err)
		}
		report.Results = append(report.Results, res)
	}
	report.AssertionTime = time.Since(t3)

	if !opts.KeepRules {
		if err := revert(); err != nil {
			return report, fmt.Errorf("core: revert %s: %w", recipe.name(), err)
		}
	}
	return report, nil
}

// RunChain executes recipes in order, stopping at the first recipe whose
// checks fail (paper §4.2 "Chained failures": later, more intrusive
// failures are only staged when earlier expectations held). It returns all
// reports produced; err is non-nil only for operational failures.
func (r *Runner) RunChain(ctx context.Context, opts RunOptions, recipes ...Recipe) ([]*Report, error) {
	if len(recipes) == 0 {
		return nil, errors.New("core: RunChain needs at least one recipe")
	}
	var reports []*Report
	for _, recipe := range recipes {
		rep, err := r.Run(ctx, recipe, opts)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
		if !rep.Passed() {
			break
		}
	}
	return reports, nil
}
