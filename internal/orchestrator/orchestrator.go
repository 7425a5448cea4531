// Package orchestrator implements Gremlin's Failure Orchestrator: the
// control-plane component that programs fault-injection rules into every
// physical Gremlin agent they concern, over an out-of-band control channel
// (paper §4.2).
//
// The orchestrator is declarative: callers register *desired state* — a set
// of logical rules per owner (a recipe run, a campaign, a manual session) —
// and the orchestrator reconciles the fleet toward it. Each reconcile pass
// resolves logical services to physical agents through the registry,
// computes the union rule set each agent should hold, and converges agents
// that differ with versioned compare-and-swap PUTs (bounded retries with
// backoff). Agents the pass cannot reach are reported, not fatal.
//
// Passes come in two kinds. A targeted pass — SetOwner, RemoveOwner, and
// so Apply and Revert — trusts each agent's last confirmed state (the
// status its last PUT returned or its last GET read): it skips agents
// already holding their desired set and PUTs the rest at the remembered
// generation with If-Match, reading none of them first. A stale memory
// costs one rejected PUT, whose reply carries the agent's current
// generation. Anti-entropy passes (Reconcile, the periodic loop and
// discovery) and Drift read every agent instead, so they find restarted
// agents, which come back empty at generation zero, and out-of-band
// edits. A targeted pass therefore does not repair drift on an agent
// whose desired set it did not change; the next anti-entropy or discovery
// pass does.
//
// Owners may hold a lease: desired state that expires unless renewed, so a
// killed campaign process can never leak faults into the mesh. Leased rule
// sets are additionally shipped with an agent-side TTL as a second line of
// defence — the agent clears them itself even if the whole control plane
// dies with the campaign.
package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/proxy"
	"gremlin/internal/registry"
	"gremlin/internal/rules"
)

// AgentControl is the slice of the agent control API the orchestrator
// needs. *agentapi.Client implements it; tests may substitute fakes.
//
// When an agent rejects a PutRuleSet (a stale generation or a failed
// If-Match), the call returns the agent's current status beside the error,
// as the 409/412 body and rules.Matcher do; the orchestrator retries the
// PUT on that generation without a read. A status with an empty Hash means
// the agent never judged the set (a transport or validation failure).
type AgentControl interface {
	GetRuleSet(ctx context.Context) (proxy.RuleSetBody, error)
	PutRuleSet(ctx context.Context, set rules.RuleSet, ifMatch uint64) (rules.RuleSetStatus, error)
	ClearRules(ctx context.Context) (int, error)
	Flush(ctx context.Context) error
}

var _ AgentControl = (*agentapi.Client)(nil)

// Option configures an Orchestrator.
type Option interface {
	apply(*Orchestrator)
}

type optionFunc func(*Orchestrator)

func (f optionFunc) apply(o *Orchestrator) { f(o) }

// WithDialer overrides how the orchestrator connects to an agent control
// URL. Used by tests and embedded (in-process) deployments.
func WithDialer(dial func(url string) AgentControl) Option {
	return optionFunc(func(o *Orchestrator) { o.dial = dial })
}

// WithRetry bounds the per-agent convergence loop: attempts tries per
// reconcile pass. A try that follows a failed call sleeps backoff,
// 2*backoff, ... and reads the agent again; one that follows a rejected
// PUT goes at once. The default is 3 attempts starting at 25 ms.
func WithRetry(attempts int, backoff time.Duration) Option {
	return optionFunc(func(o *Orchestrator) {
		if attempts > 0 {
			o.attempts = attempts
		}
		o.backoff = backoff
	})
}

// Orchestrator reconciles agents toward the registered desired state.
type Orchestrator struct {
	reg      registry.Registry
	dial     func(url string) AgentControl
	attempts int
	backoff  time.Duration
	now      func() time.Time

	// syncMu serializes reconcile passes. Each pass recomputes desired
	// state after acquiring it, so a pass can never overwrite the effects
	// of a pass that started later.
	syncMu sync.Mutex

	mu     sync.Mutex
	owners map[string]*owner // desired state, by owner name
	// seen is each agent's last confirmed state, by control URL, as of the
	// last pass that reached it. It is replaced whole, never mutated, so a
	// pass reads the map it snapshotted without holding mu.
	seen       map[string]agentState
	version    uint64  // bumped whenever desired state changes
	nextApply  int     // anonymous owner names for Apply
	lastReport *Report // most recent reconcile/drift outcome, for metrics

	nRepairs     int64 // content pushes made by anti-entropy passes
	nExpiries    int64 // owner leases lapsed
	nDiscoveries int64 // reconcile passes triggered by membership events
}

// owner is one registered slice of desired state.
type owner struct {
	rules   []rules.Rule
	expires time.Time // zero: no lease
}

// New creates an orchestrator over the given registry.
func New(reg registry.Registry, opts ...Option) *Orchestrator {
	o := &Orchestrator{
		reg: reg,
		dial: func(url string) AgentControl {
			return agentapi.New(url, nil)
		},
		attempts: 3,
		backoff:  25 * time.Millisecond,
		now:      time.Now,
		owners:   make(map[string]*owner),
	}
	for _, opt := range opts {
		opt.apply(o)
	}
	return o
}

// Registry returns the registry the orchestrator resolves services in.
func (o *Orchestrator) Registry() registry.Registry { return o.reg }

// Applied is a handle to a successfully applied rule set.
type Applied struct {
	orch *Orchestrator
	name string
	// perAgent maps agent control URL to the IDs of rules desired there,
	// for counts.
	perAgent map[string][]string
}

// AgentCount reports how many distinct agents received rules.
func (a *Applied) AgentCount() int { return len(a.perAgent) }

// RuleCount reports the total number of (rule, agent) installations.
func (a *Applied) RuleCount() int {
	n := 0
	for _, ids := range a.perAgent {
		n += len(ids)
	}
	return n
}

// Apply validates the rule set, registers it as an anonymous owner, and
// reconciles the fleet so every targeted agent holds the rules. On any
// failure it withdraws the owner again (converging agents back) and
// returns the error. The Applied handle's Revert withdraws it explicitly.
func (o *Orchestrator) Apply(ctx context.Context, ruleset []rules.Rule) (*Applied, error) {
	return o.ApplyOwned(ctx, "", 0, ruleset)
}

// ApplyOwned is Apply with an explicit owner name and an optional lease:
// when ttl is positive the rules are withdrawn automatically unless the
// lease is renewed (RenewLease), and ship to agents with a self-expiry TTL
// so even a dead control plane cannot leak them. An empty name picks an
// anonymous per-call owner.
func (o *Orchestrator) ApplyOwned(ctx context.Context, name string, ttl time.Duration, ruleset []rules.Rule) (*Applied, error) {
	if len(ruleset) == 0 {
		return &Applied{orch: o, perAgent: map[string][]string{}}, nil
	}
	if err := rules.ValidateAll(ruleset); err != nil {
		return nil, fmt.Errorf("orchestrator: %w", err)
	}

	// Resolve up front so unknown or agent-less services fail fast, and so
	// the handle can report exact per-agent counts.
	perAgent := make(map[string][]string)
	for _, r := range ruleset {
		urls, err := registry.AgentURLs(o.reg, r.Src)
		if err != nil {
			return nil, fmt.Errorf("orchestrator: resolve agents for %q: %w", r.Src, err)
		}
		if len(urls) == 0 {
			return nil, fmt.Errorf("orchestrator: service %q has no gremlin agents", r.Src)
		}
		for _, u := range urls {
			perAgent[u] = append(perAgent[u], r.ID)
		}
	}

	if name == "" {
		o.mu.Lock()
		o.nextApply++
		name = fmt.Sprintf("apply-%d", o.nextApply)
		o.mu.Unlock()
	}

	rep, err := o.SetOwner(ctx, name, ruleset, ttl)
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		// Withdraw and converge back whatever partial state landed.
		_, _ = o.RemoveOwner(ctx, name)
		return nil, fmt.Errorf("orchestrator: apply failed: %w", err)
	}
	return &Applied{orch: o, name: name, perAgent: perAgent}, nil
}

// Revert withdraws the applied rules: the owner is removed from desired
// state and every agent is reconciled back. It is idempotent.
func (a *Applied) Revert(ctx context.Context) error {
	if a.name == "" {
		return nil
	}
	name := a.name
	a.name = ""
	a.perAgent = map[string][]string{}
	rep, err := a.orch.RemoveOwner(ctx, name)
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		return fmt.Errorf("orchestrator: revert failed: %w", err)
	}
	return nil
}

// ClearAll drops all registered desired state and removes every rule from
// every agent of the named services (all registered services when none are
// named). It is the operator's big hammer — owners registered by live
// recipe runs are withdrawn too. It returns the number of rules removed.
// DELETE /v1/rules goes around the generation CAS, so ClearAll runs between
// reconcile passes and forgets every agent's confirmed state.
func (o *Orchestrator) ClearAll(ctx context.Context, services ...string) (int, error) {
	o.syncMu.Lock()
	defer o.syncMu.Unlock()
	o.mu.Lock()
	if len(o.owners) > 0 {
		o.owners = make(map[string]*owner)
		o.version++
	}
	o.seen = nil
	o.mu.Unlock()

	urls, err := o.resolveAgents(services)
	if err != nil {
		return 0, err
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int
		errs  []error
	)
	for _, url := range urls {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			n, err := o.dial(url).ClearRules(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("agent %s: %w", url, err))
				return
			}
			total += n
		}(url)
	}
	wg.Wait()
	if len(errs) > 0 {
		return total, fmt.Errorf("orchestrator: clear failed: %w", errors.Join(errs...))
	}
	return total, nil
}

// FlushAll asks every agent of the named services (all services when none
// are named) to flush buffered observations to the event store, so the
// Assertion Checker sees a complete log.
func (o *Orchestrator) FlushAll(ctx context.Context, services ...string) error {
	urls, err := o.resolveAgents(services)
	if err != nil {
		return err
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for _, url := range urls {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			if err := o.dial(url).Flush(ctx); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("agent %s: %w", url, err))
				mu.Unlock()
			}
		}(url)
	}
	wg.Wait()
	if len(errs) > 0 {
		return fmt.Errorf("orchestrator: flush failed: %w", errors.Join(errs...))
	}
	return nil
}

func (o *Orchestrator) resolveAgents(services []string) ([]string, error) {
	if len(services) == 0 {
		urls, err := registry.AllAgentURLs(o.reg)
		if err != nil {
			return nil, fmt.Errorf("orchestrator: resolve all agents: %w", err)
		}
		return urls, nil
	}
	seen := make(map[string]bool)
	for _, svc := range services {
		urls, err := registry.AgentURLs(o.reg, svc)
		if err != nil {
			return nil, fmt.Errorf("orchestrator: resolve agents for %q: %w", svc, err)
		}
		for _, u := range urls {
			seen[u] = true
		}
	}
	out := make([]string, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out, nil
}
