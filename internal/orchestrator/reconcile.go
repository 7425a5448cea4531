package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gremlin/internal/metrics"
	"gremlin/internal/registry"
	"gremlin/internal/rules"
)

// AgentReport is one agent's slice of a reconcile or drift pass.
type AgentReport struct {
	URL      string              `json:"url"`
	Desired  rules.RuleSetStatus `json:"desired"`
	Observed rules.RuleSetStatus `json:"observed"` // state after the pass (as observed before it, for Drift)
	InSync   bool                `json:"inSync"`
	Pushed   bool                `json:"pushed"`   // a content-changing PUT landed
	Attempts int                 `json:"attempts"` // round trips spent on this agent
	Error    string              `json:"error,omitempty"`

	err    error
	leased bool // the agent's TTL timer is armed, as of Observed
}

// agentState is what the orchestrator last confirmed about one agent: the
// status a PUT returned or a GET read, and whether its TTL timer is armed.
type agentState struct {
	status rules.RuleSetStatus
	leased bool
}

// settled reports whether an agent in state st needs no PUT to hold want:
// the content matches, no lease must be (re)armed, and no stale
// agent-side lease would expire rules we now want kept.
func (st agentState) settled(hash string, want desiredAgent) bool {
	return st.status.Hash == hash && want.ttl == 0 && !st.leased
}

// confirmed collects the agent state a pass's reports confirm: every agent
// the pass reached, and none it did not — failed agents and agents no
// longer registered are forgotten.
func confirmed(reports []AgentReport) map[string]agentState {
	seen := make(map[string]agentState, len(reports))
	for _, a := range reports {
		if a.err == nil {
			st := a.Observed
			st.Changed = false
			seen[a.URL] = agentState{status: st, leased: a.leased}
		}
	}
	return seen
}

// Report is the structured outcome of a reconcile or drift pass: one entry
// per agent, plus services whose rules could not be placed and owners whose
// leases lapsed during the pass. Partial failure is first-class — callers
// inspect the entries or collapse them with Err.
type Report struct {
	Agents     []AgentReport `json:"agents"`
	Unresolved []string      `json:"unresolved,omitempty"` // services with desired rules but no agents
	Expired    []string      `json:"expired,omitempty"`    // owners whose leases lapsed this pass
	Version    uint64        `json:"version"`              // desired-state version the pass converged toward
}

// Converged reports whether every agent matched (or was brought to) its
// desired rule set.
func (r *Report) Converged() bool {
	if len(r.Unresolved) > 0 {
		return false
	}
	for _, a := range r.Agents {
		if !a.InSync {
			return false
		}
	}
	return true
}

// Repaired counts agents that took a content-changing push this pass.
func (r *Report) Repaired() int {
	n := 0
	for _, a := range r.Agents {
		if a.Pushed {
			n++
		}
	}
	return n
}

// Err collapses the report into a single error: nil when the pass
// converged, otherwise the per-agent failures (and unresolved services)
// joined.
func (r *Report) Err() error {
	var errs []error
	for _, svc := range r.Unresolved {
		errs = append(errs, fmt.Errorf("service %q has no gremlin agents", svc))
	}
	for _, a := range r.Agents {
		if a.err != nil {
			errs = append(errs, fmt.Errorf("agent %s: %w", a.URL, a.err))
		}
	}
	return errors.Join(errs...)
}

// Describe renders the report for tool output: one line per agent.
func (r *Report) Describe() string {
	var b []byte
	for _, a := range r.Agents {
		state := "IN SYNC"
		switch {
		case a.err != nil:
			state = "ERROR " + a.Error
		case a.Pushed:
			state = "REPAIRED"
		case !a.InSync:
			state = "DRIFTED"
		}
		b = fmt.Appendf(b, "%-40s gen=%-4d rules=%-3d %s\n", a.URL, a.Observed.Generation, a.Observed.Rules, state)
	}
	for _, svc := range r.Unresolved {
		b = fmt.Appendf(b, "service %q: no agents\n", svc)
	}
	for _, name := range r.Expired {
		b = fmt.Appendf(b, "owner %q: lease expired\n", name)
	}
	if len(b) == 0 {
		return "no agents registered\n"
	}
	return string(b)
}

// SetOwner registers (or replaces) one owner's desired rules and runs a
// targeted reconcile pass (see the package doc). A non-zero ttl attaches a
// lease: unless renewed (by a later SetOwner or RenewLease) the owner is
// withdrawn after ttl and its rules converge away on the next pass — and,
// as a second line of defence, the rules are shipped to agents with a
// matching self-expiry TTL.
func (o *Orchestrator) SetOwner(ctx context.Context, name string, rs []rules.Rule, ttl time.Duration) (*Report, error) {
	if err := o.StageOwner(name, rs, ttl); err != nil {
		return nil, err
	}
	return o.reconcile(ctx, false)
}

// StageOwner registers desired state without reconciling: the next
// Reconcile, Drift, or anti-entropy pass acts on it. SetOwner is
// StageOwner followed by an immediate reconcile.
func (o *Orchestrator) StageOwner(name string, rs []rules.Rule, ttl time.Duration) error {
	if name == "" {
		return errors.New("orchestrator: owner name must not be empty")
	}
	if err := rules.ValidateAll(rs); err != nil {
		return fmt.Errorf("orchestrator: owner %q: %w", name, err)
	}
	ow := &owner{rules: append([]rules.Rule(nil), rs...)}
	if ttl > 0 {
		ow.expires = o.now().Add(ttl)
	}
	o.mu.Lock()
	o.owners[name] = ow
	o.version++
	o.mu.Unlock()
	return nil
}

// RemoveOwner withdraws an owner's desired rules and runs a targeted
// reconcile pass. Removing an unknown owner is a pass that changes nothing.
func (o *Orchestrator) RemoveOwner(ctx context.Context, name string) (*Report, error) {
	o.mu.Lock()
	if _, ok := o.owners[name]; ok {
		delete(o.owners, name)
		o.version++
	}
	o.mu.Unlock()
	return o.reconcile(ctx, false)
}

// RenewLease extends a leased owner's expiry to now+ttl without touching
// its rules. Renewing cheaply re-arms the agent-side TTLs on the next
// reconcile pass.
func (o *Orchestrator) RenewLease(name string, ttl time.Duration) error {
	if ttl <= 0 {
		return fmt.Errorf("orchestrator: renew %q: ttl must be positive", name)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	ow, ok := o.owners[name]
	if !ok {
		return fmt.Errorf("orchestrator: renew %q: no such owner (lease already expired?)", name)
	}
	if ow.expires.IsZero() {
		return fmt.Errorf("orchestrator: renew %q: owner holds no lease", name)
	}
	ow.expires = o.now().Add(ttl)
	return nil
}

// Owners lists the registered owner names, sorted.
func (o *Orchestrator) Owners() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	names := make([]string, 0, len(o.owners))
	for n := range o.owners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reconcile runs one anti-entropy pass: lapsed leases are withdrawn, then
// every registered agent is read and converged to its desired rule set —
// restarted agents get their rules back, orphaned rules and out-of-band
// edits are removed. Content pushes made here count as drift repairs.
func (o *Orchestrator) Reconcile(ctx context.Context) (*Report, error) {
	return o.reconcile(ctx, true)
}

// StartAntiEntropy reconciles every interval until the returned stop
// function is called. Pass failures are carried in the reports (visible
// via Metrics and the next Drift), never fatal to the loop.
func (o *Orchestrator) StartAntiEntropy(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				_, _ = o.Reconcile(ctx)
				cancel()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-stopped
		})
	}
}

// Drift reads every registered agent and compares it against desired state
// without pushing anything: a read-only convergence check for operators
// (`gremlin-ctl drift`) and tests. What it reads becomes the agents'
// confirmed state, so it runs between reconcile passes.
func (o *Orchestrator) Drift(ctx context.Context) (*Report, error) {
	o.syncMu.Lock()
	defer o.syncMu.Unlock()
	o.mu.Lock()
	desired, unresolved := o.desiredLocked()
	version := o.version
	o.mu.Unlock()

	urls, err := registry.AllAgentURLs(o.reg)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: resolve all agents: %w", err)
	}
	rep := &Report{Unresolved: unresolved, Version: version}
	type slot struct {
		i int
		a AgentReport
	}
	results := make(chan slot, len(urls))
	for i, url := range urls {
		go func(i int, url string) {
			want := desired[url]
			ar := AgentReport{URL: url, Desired: desiredStatus(version, want.rules), Attempts: 1}
			body, err := o.dial(url).GetRuleSet(ctx)
			if err != nil {
				ar.err = err
				ar.Error = err.Error()
			} else {
				ar.Observed = rules.RuleSetStatus{Generation: body.Generation, Hash: body.Hash, Rules: len(body.Rules)}
				ar.InSync = body.Hash == ar.Desired.Hash
				ar.leased = body.Leased
			}
			results <- slot{i, ar}
		}(i, url)
	}
	rep.Agents = make([]AgentReport, len(urls))
	for range urls {
		s := <-results
		rep.Agents[s.i] = s.a
	}
	o.setLastReport(rep)
	return rep, nil
}

// desiredAgent is one agent's computed desired state.
type desiredAgent struct {
	rules []rules.Rule
	ttl   time.Duration // agent-side self-expiry; 0 = permanent
}

// desiredLocked computes each registered agent's desired rule set from the
// live owners: the union of every owner's rules whose source service
// resolves to that agent, sorted by rule ID for deterministic hashes.
// Agents no owner targets get an explicit empty entry so orphaned rules are
// swept. When every owner contributing to an agent is leased, the set is
// shipped with a TTL covering the longest remaining lease; one permanent
// contributor makes the whole set permanent (the agent-side timer clears
// all rules at once, so it must never outrun a permanent owner).
func (o *Orchestrator) desiredLocked() (map[string]desiredAgent, []string) {
	desired := make(map[string]desiredAgent)
	if urls, err := registry.AllAgentURLs(o.reg); err == nil {
		for _, u := range urls {
			desired[u] = desiredAgent{}
		}
	}

	now := o.now()
	var unresolved []string
	seenUnresolved := make(map[string]bool)
	names := make([]string, 0, len(o.owners))
	for n := range o.owners {
		names = append(names, n)
	}
	sort.Strings(names)

	type agg struct {
		rules     []rules.Rule
		permanent bool
		maxLease  time.Duration
	}
	perURL := make(map[string]*agg)
	for _, name := range names {
		ow := o.owners[name]
		var remaining time.Duration
		if !ow.expires.IsZero() {
			remaining = ow.expires.Sub(now)
		}
		for _, r := range ow.rules {
			urls, err := registry.AgentURLs(o.reg, r.Src)
			if err != nil || len(urls) == 0 {
				if !seenUnresolved[r.Src] {
					seenUnresolved[r.Src] = true
					unresolved = append(unresolved, r.Src)
				}
				continue
			}
			for _, u := range urls {
				a := perURL[u]
				if a == nil {
					a = &agg{}
					perURL[u] = a
				}
				a.rules = append(a.rules, r)
				if ow.expires.IsZero() {
					a.permanent = true
				} else if remaining > a.maxLease {
					a.maxLease = remaining
				}
			}
		}
	}
	for u, a := range perURL {
		d := desiredAgent{rules: rules.NormalizeRules(a.rules)}
		if !a.permanent && a.maxLease > 0 {
			d.ttl = a.maxLease
		}
		desired[u] = d
	}
	sort.Strings(unresolved)
	return desired, unresolved
}

// expireLocked withdraws owners whose lease has lapsed, returning their
// names.
func (o *Orchestrator) expireLocked() []string {
	now := o.now()
	var expired []string
	for name, ow := range o.owners {
		if !ow.expires.IsZero() && now.After(ow.expires) {
			delete(o.owners, name)
			expired = append(expired, name)
		}
	}
	if len(expired) > 0 {
		sort.Strings(expired)
		o.version++
		o.nExpiries += int64(len(expired))
	}
	return expired
}

// reconcile runs one convergence pass. An antiEntropy pass reads every
// agent and counts its pushes as drift repairs; any other pass was caused
// by a desired-state change and trusts the agents' confirmed state.
func (o *Orchestrator) reconcile(ctx context.Context, antiEntropy bool) (*Report, error) {
	// Serialize passes; each recomputes desired state after acquiring the
	// lock, so a queued pass always pushes the newest state.
	o.syncMu.Lock()
	defer o.syncMu.Unlock()

	o.mu.Lock()
	expired := o.expireLocked()
	desired, unresolved := o.desiredLocked()
	version := o.version
	var seen map[string]agentState
	if !antiEntropy {
		seen = o.seen
	}
	o.mu.Unlock()

	urls := make([]string, 0, len(desired))
	for u := range desired {
		urls = append(urls, u)
	}
	sort.Strings(urls)

	rep := &Report{Unresolved: unresolved, Expired: expired, Version: version}
	type slot struct {
		i int
		a AgentReport
	}
	// A settled agent is reported inline: it costs neither a call nor a
	// goroutine. Only the agents a pass must call are fanned out.
	rep.Agents = make([]AgentReport, len(urls))
	results := make(chan slot, len(urls))
	calls := 0
	for i, url := range urls {
		want := desired[url]
		prev, known := seen[url]
		ar := AgentReport{URL: url, Desired: desiredStatus(version, want.rules)}
		if known && prev.settled(ar.Desired.Hash, want) {
			ar.Observed = prev.status
			ar.InSync = true
			rep.Agents[i] = ar
			continue
		}
		calls++
		go func(i int, ar AgentReport) {
			results <- slot{i, o.syncAgent(ctx, ar, want, prev, known)}
		}(i, ar)
	}
	repairs := 0
	for range calls {
		s := <-results
		rep.Agents[s.i] = s.a
		if s.a.Pushed {
			repairs++
		}
	}
	if antiEntropy && repairs > 0 {
		o.mu.Lock()
		o.nRepairs += int64(repairs)
		o.mu.Unlock()
	}
	o.setLastReport(rep)
	return rep, nil
}

// syncAgent converges one agent to its desired rule set, filling in ar,
// which names the agent and its desired status. When the pass knows the
// agent's confirmed state (prev), the agent is PUT at once on prev's
// generation with If-Match; the caller has already reported a settled
// one without calling it. Otherwise it reads first: observe the agent's
// generation, then PUT with If-Match on what was observed. A rejected PUT
// carries the agent's current status, so the retry goes out at once on
// that generation; a failed call backs off and reads again. Attempts are
// bounded either way.
func (o *Orchestrator) syncAgent(ctx context.Context, ar AgentReport, want desiredAgent, prev agentState, known bool) AgentReport {
	c := o.dial(ar.URL)
	gen := prev.status.Generation
	var lastErr error
	for i := 0; i < o.attempts; i++ {
		if i > 0 && !known && o.backoff > 0 {
			select {
			case <-ctx.Done():
				lastErr = ctx.Err()
				i = o.attempts
				continue
			case <-time.After(o.backoff << (i - 1)):
			}
		}
		ar.Attempts = i + 1
		if !known {
			body, err := c.GetRuleSet(ctx)
			if err != nil {
				lastErr = err
				continue
			}
			ar.Observed = rules.RuleSetStatus{Generation: body.Generation, Hash: body.Hash, Rules: len(body.Rules)}
			ar.leased = body.Leased
			if (agentState{status: ar.Observed, leased: body.Leased}).settled(ar.Desired.Hash, want) {
				ar.InSync = true
				return ar
			}
			gen = body.Generation
		}
		set := rules.RuleSet{
			Generation: gen + 1,
			Rules:      want.rules,
			TTLMillis:  want.ttl.Milliseconds(),
		}
		if want.ttl > 0 && set.TTLMillis == 0 {
			set.TTLMillis = 1 // sub-millisecond remainder still expires
		}
		st, err := c.PutRuleSet(ctx, set, gen)
		if err != nil {
			// A rejection names the agent's current generation: retry on
			// it. Anything else: back off and read the agent again.
			lastErr = err
			gen, known = st.Generation, st.Hash != ""
			continue
		}
		ar.Observed = st
		ar.InSync = true
		ar.Pushed = st.Changed
		// The agent arms its timer exactly when a TTL ships with rules.
		ar.leased = set.TTLMillis > 0 && len(set.Rules) > 0
		return ar
	}
	ar.err = lastErr
	if lastErr != nil {
		ar.Error = lastErr.Error()
	}
	return ar
}

// desiredStatus summarizes a desired rule list as a RuleSetStatus for
// reporting. The generation slot carries the orchestrator's desired-state
// version (agents converge on content hash, not generation equality).
func desiredStatus(version uint64, rs []rules.Rule) rules.RuleSetStatus {
	return rules.RuleSetStatus{
		Generation: version,
		Hash:       rules.HashRules(rs),
		Rules:      len(rs),
	}
}

// setLastReport records a pass's report and the agent state it confirmed.
func (o *Orchestrator) setLastReport(rep *Report) {
	seen := confirmed(rep.Agents)
	o.mu.Lock()
	o.lastReport = rep
	o.seen = seen
	o.mu.Unlock()
}

// LastReport returns the most recent reconcile or drift report, or nil.
func (o *Orchestrator) LastReport() *Report {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastReport
}

// WriteMetrics appends the reconciler's gauges and counters to w in
// Prometheus exposition format: the desired-state version, live owner
// count, each agent's last observed generation and sync state, plus
// cumulative drift repairs and lease expiries.
func (o *Orchestrator) WriteMetrics(w *metrics.Writer) {
	o.mu.Lock()
	version := o.version
	owners := len(o.owners)
	repairs := o.nRepairs
	expiries := o.nExpiries
	discoveries := o.nDiscoveries
	rep := o.lastReport
	o.mu.Unlock()

	w.Gauge("gremlin_reconciler_desired_generation",
		"Version of the orchestrator's desired rule state.", float64(version))
	w.Gauge("gremlin_reconciler_owners",
		"Owners (recipes, campaigns, sessions) holding desired rules.", float64(owners))
	w.Counter("gremlin_reconciler_drift_repairs_total",
		"Rule-set pushes made by anti-entropy passes to repair drifted agents.", float64(repairs))
	w.Counter("gremlin_reconciler_lease_expiries_total",
		"Owner leases that lapsed without renewal.", float64(expiries))
	w.Counter("gremlin_reconciler_discovery_syncs_total",
		"Reconcile passes triggered by registry membership events.", float64(discoveries))
	if rep != nil {
		for _, a := range rep.Agents {
			w.Gauge("gremlin_reconciler_agent_generation",
				"Rule-set generation last observed on each agent.",
				float64(a.Observed.Generation), "agent", a.URL)
			inSync := 0.0
			if a.InSync {
				inSync = 1
			}
			w.Gauge("gremlin_reconciler_agent_in_sync",
				"Whether each agent matched desired state at the last pass (1 = in sync).",
				inSync, "agent", a.URL)
		}
	}
}
