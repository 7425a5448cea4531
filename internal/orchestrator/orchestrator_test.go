package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gremlin/internal/metrics"
	"gremlin/internal/proxy"
	"gremlin/internal/registry"
	"gremlin/internal/rules"
)

// fakeAgent emulates one agent's control API in memory, backed by a real
// rules.Matcher so generation/CAS semantics match the live agent exactly.
type fakeAgent struct {
	mu       sync.Mutex
	m        *rules.Matcher
	failing  error // when set, every control call fails with this error
	flushes  int
	puts     int // PutRuleSet calls that reached the matcher
	gets     int // GetRuleSet calls that reached the matcher
	lastTTL  int64
	rebuilds int64
}

func newFakeAgent() *fakeAgent {
	return &fakeAgent{m: rules.NewMatcher(nil)}
}

func (f *fakeAgent) GetRuleSet(context.Context) (proxy.RuleSetBody, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing != nil {
		return proxy.RuleSetBody{}, f.failing
	}
	f.gets++
	set := f.m.RuleSet()
	return proxy.RuleSetBody{
		Generation: set.Generation,
		Hash:       f.m.Hash(),
		Rules:      set.Rules,
		Leased:     f.lastTTL > 0 && f.m.Len() > 0,
	}, nil
}

func (f *fakeAgent) PutRuleSet(_ context.Context, set rules.RuleSet, ifMatch uint64) (rules.RuleSetStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing != nil {
		return rules.RuleSetStatus{}, f.failing
	}
	f.puts++
	st, err := f.m.ApplyRuleSet(set, ifMatch)
	if err == nil {
		f.lastTTL = set.TTLMillis
	}
	f.rebuilds = f.m.Rebuilds()
	return st, err
}

func (f *fakeAgent) ClearRules(context.Context) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing != nil {
		return 0, f.failing
	}
	n := f.m.Len()
	f.m.Clear()
	return n, nil
}

func (f *fakeAgent) Flush(context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing != nil {
		return f.failing
	}
	f.flushes++
	return nil
}

func (f *fakeAgent) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m.Len()
}

func (f *fakeAgent) putCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.puts
}

func (f *fakeAgent) getCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets
}

func (f *fakeAgent) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failing = err
}

// fixture builds a registry with services a (2 instances, 2 agents) and b
// (1 instance), plus a dialer resolving the fake agents.
type fixture struct {
	reg    *registry.Dynamic
	agents map[string]*fakeAgent
	orch   *Orchestrator
}

func newFixture() *fixture {
	f := &fixture{
		reg: registry.NewStatic(
			registry.Instance{Service: "a", Addr: "a1:80", AgentControlURL: "http://agent-a1"},
			registry.Instance{Service: "a", Addr: "a2:80", AgentControlURL: "http://agent-a2"},
			registry.Instance{Service: "b", Addr: "b1:80", AgentControlURL: "http://agent-b1"},
		),
		agents: map[string]*fakeAgent{
			"http://agent-a1": newFakeAgent(),
			"http://agent-a2": newFakeAgent(),
			"http://agent-b1": newFakeAgent(),
		},
	}
	f.orch = New(f.reg,
		WithDialer(func(url string) AgentControl { return f.agents[url] }),
		WithRetry(2, time.Millisecond))
	return f
}

func delayRule(id, src string) rules.Rule {
	return rules.Rule{
		ID: id, Src: src, Dst: "x",
		Action: rules.ActionDelay, Pattern: "test-*", DelayMillis: 100,
	}
}

func TestApplyFansOutToAllInstances(t *testing.T) {
	f := newFixture()
	applied, err := f.orch.Apply(context.Background(), []rules.Rule{delayRule("r1", "a")})
	if err != nil {
		t.Fatal(err)
	}
	// Service a has two agents: the rule lands on both (paper Figure 3).
	if f.agents["http://agent-a1"].count() != 1 || f.agents["http://agent-a2"].count() != 1 {
		t.Fatal("rule should be installed on every agent of the source service")
	}
	if f.agents["http://agent-b1"].count() != 0 {
		t.Fatal("unrelated agent received a rule")
	}
	if applied.AgentCount() != 2 || applied.RuleCount() != 2 {
		t.Fatalf("applied = %d agents, %d rules", applied.AgentCount(), applied.RuleCount())
	}
}

func TestApplyGroupsBySource(t *testing.T) {
	f := newFixture()
	_, err := f.orch.Apply(context.Background(), []rules.Rule{
		delayRule("r1", "a"),
		delayRule("r2", "b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.agents["http://agent-b1"].count() != 1 {
		t.Fatal("rule for b missing")
	}
}

func TestApplyEmptyRuleset(t *testing.T) {
	f := newFixture()
	applied, err := f.orch.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied.AgentCount() != 0 {
		t.Fatal("no agents should be touched")
	}
	if err := applied.Revert(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestApplyValidatesRules(t *testing.T) {
	f := newFixture()
	bad := delayRule("r1", "a")
	bad.DelayMillis = 0
	if _, err := f.orch.Apply(context.Background(), []rules.Rule{bad}); err == nil {
		t.Fatal("want validation error")
	}
}

func TestApplyUnknownService(t *testing.T) {
	f := newFixture()
	if _, err := f.orch.Apply(context.Background(), []rules.Rule{delayRule("r1", "ghost")}); err == nil {
		t.Fatal("want unknown-service error")
	}
}

func TestApplyAgentlessService(t *testing.T) {
	f := newFixture()
	f.reg.Add(registry.Instance{Service: "ext", Addr: "ext:443"}) // no agent
	if _, err := f.orch.Apply(context.Background(), []rules.Rule{delayRule("r1", "ext")}); err == nil {
		t.Fatal("want no-agents error")
	}
}

func TestApplyRollsBackOnPartialFailure(t *testing.T) {
	f := newFixture()
	f.agents["http://agent-a2"].fail(errors.New("agent down"))
	_, err := f.orch.Apply(context.Background(), []rules.Rule{delayRule("r1", "a")})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "agent down") {
		t.Fatalf("err = %v", err)
	}
	if f.agents["http://agent-a1"].count() != 0 {
		t.Fatal("successful agent should have been rolled back")
	}
	if len(f.orch.Owners()) != 0 {
		t.Fatalf("failed apply left owners behind: %v", f.orch.Owners())
	}
}

func TestRevert(t *testing.T) {
	f := newFixture()
	applied, err := f.orch.Apply(context.Background(), []rules.Rule{delayRule("r1", "a"), delayRule("r2", "a")})
	if err != nil {
		t.Fatal(err)
	}
	if err := applied.Revert(context.Background()); err != nil {
		t.Fatal(err)
	}
	for url, agent := range f.agents {
		if agent.count() != 0 {
			t.Fatalf("agent %s still has %d rules", url, agent.count())
		}
	}
	// Second revert is a no-op.
	if err := applied.Revert(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestClearAll(t *testing.T) {
	f := newFixture()
	if _, err := f.orch.Apply(context.Background(), []rules.Rule{delayRule("r1", "a"), delayRule("r2", "b")}); err != nil {
		t.Fatal(err)
	}
	n, err := f.orch.ClearAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // r1 on two agents + r2 on one
		t.Fatalf("ClearAll = %d, want 3", n)
	}
	if len(f.orch.Owners()) != 0 {
		t.Fatal("ClearAll should drop desired state too")
	}
}

func TestClearAllScoped(t *testing.T) {
	f := newFixture()
	if _, err := f.orch.Apply(context.Background(), []rules.Rule{delayRule("r1", "a"), delayRule("r2", "b")}); err != nil {
		t.Fatal(err)
	}
	n, err := f.orch.ClearAll(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ClearAll(b) = %d, want 1", n)
	}
	if f.agents["http://agent-a1"].count() != 1 {
		t.Fatal("agents for a should be untouched")
	}
}

func TestFlushAll(t *testing.T) {
	f := newFixture()
	if err := f.orch.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	for url, agent := range f.agents {
		if agent.flushes != 1 {
			t.Fatalf("agent %s flushes = %d", url, agent.flushes)
		}
	}
	if err := f.orch.FlushAll(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if f.agents["http://agent-b1"].flushes != 1 {
		t.Fatal("scoped flush touched unrelated agent")
	}
}

func TestFlushAllUnknownService(t *testing.T) {
	f := newFixture()
	if err := f.orch.FlushAll(context.Background(), "ghost"); err == nil {
		t.Fatal("want error")
	}
}

// TestConcurrentApplyRevert stresses parallel apply/revert cycles against
// the same agents; rules must never leak.
func TestConcurrentApplyRevert(t *testing.T) {
	f := newFixture()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r := delayRule(fmt.Sprintf("r-%d-%d", w, i), "a")
				applied, err := f.orch.Apply(context.Background(), []rules.Rule{r})
				if err != nil {
					errs <- err
					return
				}
				if err := applied.Revert(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for url, agent := range f.agents {
		if n := agent.count(); n != 0 {
			t.Fatalf("agent %s leaked %d rules", url, n)
		}
	}
}

// ---- declarative surface ----

func TestOwnersUnionAcrossAgents(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	if _, err := f.orch.SetOwner(ctx, "recipe-1", []rules.Rule{delayRule("r1", "a")}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.orch.SetOwner(ctx, "recipe-2", []rules.Rule{delayRule("r2", "a"), delayRule("r3", "b")}, 0); err != nil {
		t.Fatal(err)
	}
	if got := f.agents["http://agent-a1"].count(); got != 2 {
		t.Fatalf("agent-a1 rules = %d, want union of both owners", got)
	}
	if got := f.agents["http://agent-b1"].count(); got != 1 {
		t.Fatalf("agent-b1 rules = %d", got)
	}

	rep, err := f.orch.RemoveOwner(ctx, "recipe-2")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() {
		t.Fatalf("report not converged: %+v", rep)
	}
	if got := f.agents["http://agent-a1"].count(); got != 1 {
		t.Fatalf("agent-a1 rules after removal = %d", got)
	}
	if got := f.agents["http://agent-b1"].count(); got != 0 {
		t.Fatalf("agent-b1 rules after removal = %d", got)
	}
}

// TestReconcileIdempotent pins the converged fast path: an anti-entropy
// pass over an unchanged fleet makes only GETs, and a targeted pass with
// unchanged desired state (SetOwner of identical content) makes no calls
// at all, so no agent matcher is rebuilt.
func TestReconcileIdempotent(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	set := []rules.Rule{delayRule("r1", "a")}
	if _, err := f.orch.SetOwner(ctx, "o", set, 0); err != nil {
		t.Fatal(err)
	}
	a1 := f.agents["http://agent-a1"]
	puts, rebuilds := a1.putCount(), a1.rebuilds

	rep, err := f.orch.Reconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() || rep.Repaired() != 0 {
		t.Fatalf("converged fleet reported drift: %+v", rep)
	}
	if a1.putCount() != puts {
		t.Fatalf("idempotent reconcile made %d extra PUTs", a1.putCount()-puts)
	}

	// Re-registering identical desired state reconciles without a call.
	gets := a1.getCount()
	if _, err := f.orch.SetOwner(ctx, "o", set, 0); err != nil {
		t.Fatal(err)
	}
	if a1.putCount() != puts || a1.getCount() != gets {
		t.Fatalf("unchanged targeted pass made %d PUTs, %d GETs", a1.putCount()-puts, a1.getCount()-gets)
	}
	if a1.rebuilds != rebuilds {
		t.Fatalf("identical content rebuilt the matcher: %d -> %d", rebuilds, a1.rebuilds)
	}
}

// TestReconcileRepairsDrift is the restarted-agent path: an agent that
// lost its rules out-of-band is converged back by the next anti-entropy
// pass, and the repair is counted.
func TestReconcileRepairsDrift(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	if _, err := f.orch.SetOwner(ctx, "o", []rules.Rule{delayRule("r1", "a")}, 0); err != nil {
		t.Fatal(err)
	}

	// Simulate a restart: the agent comes back empty at generation zero.
	f.agents["http://agent-a2"] = newFakeAgent()

	drift, err := f.orch.Drift(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if drift.Converged() {
		t.Fatal("drift should be visible before the repair pass")
	}
	if f.agents["http://agent-a2"].putCount() != 0 {
		t.Fatal("Drift must be read-only")
	}

	rep, err := f.orch.Reconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() || rep.Repaired() != 1 {
		t.Fatalf("reconcile report = %+v, want 1 repair", rep)
	}
	if f.agents["http://agent-a2"].count() != 1 {
		t.Fatal("restarted agent should have its rules back")
	}
	if after, _ := f.orch.Drift(ctx); !after.Converged() {
		t.Fatalf("fleet should be converged after repair: %+v", after)
	}
}

// TestLeaseExpiryRemovesOrphans pins the campaign-crash path: a leased
// owner that is never renewed is withdrawn on the next pass and its rules
// converge off every agent.
func TestLeaseExpiryRemovesOrphans(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	now := time.Now()
	f.orch.now = func() time.Time { return now }

	if _, err := f.orch.SetOwner(ctx, "campaign-1", []rules.Rule{delayRule("r1", "a")}, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if f.agents["http://agent-a1"].count() != 1 {
		t.Fatal("leased rules should install")
	}
	if f.agents["http://agent-a1"].lastTTL <= 0 {
		t.Fatal("leased rules should ship with an agent-side TTL")
	}

	// Renewal pushes the expiry out.
	now = now.Add(80 * time.Millisecond)
	if err := f.orch.RenewLease("campaign-1", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	now = now.Add(90 * time.Millisecond) // past original expiry, within renewal
	rep, err := f.orch.Reconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Expired) != 0 || f.agents["http://agent-a1"].count() != 1 {
		t.Fatalf("renewed lease expired early: %+v", rep)
	}

	// Let it lapse.
	now = now.Add(200 * time.Millisecond)
	rep, err = f.orch.Reconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Expired) != 1 || rep.Expired[0] != "campaign-1" {
		t.Fatalf("report expired = %v", rep.Expired)
	}
	for url, agent := range f.agents {
		if agent.count() != 0 {
			t.Fatalf("agent %s kept orphaned rules", url)
		}
	}
	if err := f.orch.RenewLease("campaign-1", time.Second); err == nil {
		t.Fatal("renewing an expired owner should fail")
	}
}

// TestLeaseTTLAggregation: a permanent owner sharing an agent with a
// leased one must keep the agent-side set permanent — the agent clears all
// rules at once on expiry, which would nuke the permanent owner's too.
func TestLeaseTTLAggregation(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	if _, err := f.orch.SetOwner(ctx, "perm", []rules.Rule{delayRule("p1", "a")}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.orch.SetOwner(ctx, "leased", []rules.Rule{delayRule("l1", "a")}, time.Minute); err != nil {
		t.Fatal(err)
	}
	if ttl := f.agents["http://agent-a1"].lastTTL; ttl != 0 {
		t.Fatalf("mixed-ownership agent got TTL %d, want permanent", ttl)
	}

	// Once the permanent owner leaves, the set becomes leased again.
	if _, err := f.orch.RemoveOwner(ctx, "perm"); err != nil {
		t.Fatal(err)
	}
	if ttl := f.agents["http://agent-a1"].lastTTL; ttl <= 0 {
		t.Fatalf("leased-only agent got TTL %d, want positive", ttl)
	}
}

func TestReportUnreachableAgentIsPartialFailure(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	f.agents["http://agent-b1"].fail(errors.New("connection refused"))

	rep, err := f.orch.SetOwner(ctx, "o", []rules.Rule{delayRule("r1", "a")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The a-agents converge even though b's agent is down.
	if f.agents["http://agent-a1"].count() != 1 {
		t.Fatal("reachable agents should converge despite a down peer")
	}
	if rep.Converged() {
		t.Fatal("report should flag the unreachable agent")
	}
	if rep.Err() == nil || !strings.Contains(rep.Err().Error(), "connection refused") {
		t.Fatalf("report err = %v", rep.Err())
	}
	var down AgentReport
	for _, a := range rep.Agents {
		if a.URL == "http://agent-b1" {
			down = a
		}
	}
	if down.InSync || down.Error == "" || down.Attempts != 2 {
		t.Fatalf("down agent report = %+v, want bounded retries and error", down)
	}

	// The agent recovers; anti-entropy brings it into sync.
	f.agents["http://agent-b1"].fail(nil)
	rep, err = f.orch.Reconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() {
		t.Fatalf("recovered fleet should converge: %+v", rep)
	}
}

func TestReconcileReportsUnresolvedService(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	rep, err := f.orch.SetOwner(ctx, "o", []rules.Rule{delayRule("r1", "ghost")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unresolved) != 1 || rep.Unresolved[0] != "ghost" {
		t.Fatalf("unresolved = %v", rep.Unresolved)
	}
	if rep.Converged() || rep.Err() == nil {
		t.Fatal("unplaceable rules must fail convergence")
	}

	// The service appears later (scale-up): the next pass places the rule.
	f.reg.Add(registry.Instance{Service: "ghost", Addr: "g1:80", AgentControlURL: "http://agent-g1"})
	f.agents["http://agent-g1"] = newFakeAgent()
	rep, err = f.orch.Reconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() || f.agents["http://agent-g1"].count() != 1 {
		t.Fatalf("late-registered service not converged: %+v", rep)
	}
}

func TestAntiEntropyLoop(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	if _, err := f.orch.SetOwner(ctx, "o", []rules.Rule{delayRule("r1", "b")}, 0); err != nil {
		t.Fatal(err)
	}
	// Wipe the agent behind the orchestrator's back.
	f.agents["http://agent-b1"] = newFakeAgent()

	stop := f.orch.StartAntiEntropy(5 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for f.agents["http://agent-b1"].count() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("anti-entropy loop never repaired the agent")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent
}

func TestWriteMetrics(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	if _, err := f.orch.SetOwner(ctx, "o", []rules.Rule{delayRule("r1", "a")}, 0); err != nil {
		t.Fatal(err)
	}
	w := metrics.NewWriter()
	f.orch.WriteMetrics(w)
	out := w.String()
	if err := metrics.Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("reconciler metrics fail lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"gremlin_reconciler_desired_generation 1",
		"gremlin_reconciler_owners 1",
		"gremlin_reconciler_drift_repairs_total 0",
		"gremlin_reconciler_lease_expiries_total 0",
		`gremlin_reconciler_agent_in_sync{agent="http://agent-a1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// ---- targeted passes: round trips from confirmed state ----

// calls sums the fleet's PUT and GET counts.
func (f *fixture) calls() (puts, gets int) {
	for _, a := range f.agents {
		puts += a.putCount()
		gets += a.getCount()
	}
	return puts, gets
}

// expectCalls fails unless the fleet made exactly the given PUTs and GETs
// since the counts were last taken (before).
func (f *fixture) expectCalls(t *testing.T, what string, before [2]int, puts, gets int) [2]int {
	t.Helper()
	p, g := f.calls()
	if p-before[0] != puts || g-before[1] != gets {
		t.Fatalf("%s: %d PUTs, %d GETs fleet-wide, want %d and %d", what, p-before[0], g-before[1], puts, gets)
	}
	return [2]int{p, g}
}

// TestTargetedPassRoundTrips: once every agent's state is confirmed, an
// Apply of one rule on b PUTs to b's agent alone and reads nothing, and so
// does its Revert. Anti-entropy still reads every agent.
func TestTargetedPassRoundTrips(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	warm, err := f.orch.Apply(ctx, []rules.Rule{delayRule("w", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Revert(ctx); err != nil {
		t.Fatal(err)
	}

	n := f.expectCalls(t, "warm-up", [2]int{}, 2, 3)
	applied, err := f.orch.Apply(ctx, []rules.Rule{delayRule("r1", "b")})
	if err != nil {
		t.Fatal(err)
	}
	n = f.expectCalls(t, "apply", n, 1, 0)
	if f.agents["http://agent-b1"].count() != 1 {
		t.Fatal("rule missing on b's agent")
	}
	if err := applied.Revert(ctx); err != nil {
		t.Fatal(err)
	}
	n = f.expectCalls(t, "revert", n, 1, 0)
	if f.agents["http://agent-b1"].count() != 0 {
		t.Fatal("rule left on b's agent after revert")
	}

	rep, err := f.orch.Reconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() {
		t.Fatalf("reconcile not converged: %+v", rep)
	}
	f.expectCalls(t, "reconcile", n, 0, 3)
}

// TestStaleStateConvergesWithoutRead: an agent that restarted behind the
// orchestrator's back rejects the PUT at the remembered generation, and
// the rejection's status is enough to retry: two PUTs, no read.
func TestStaleStateConvergesWithoutRead(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	warm, err := f.orch.Apply(ctx, []rules.Rule{delayRule("w", "a")})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Revert(ctx); err != nil {
		t.Fatal(err)
	}

	restarted := newFakeAgent() // back empty at generation zero
	f.agents["http://agent-a2"] = restarted
	p, g := f.calls()
	rep, err := f.orch.SetOwner(ctx, "o", []rules.Rule{delayRule("r1", "a")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() {
		t.Fatalf("stale state did not converge: %+v", rep)
	}
	if restarted.putCount() != 2 || restarted.getCount() != 0 {
		t.Fatalf("restarted agent took %d PUTs, %d GETs, want 2 (412, then success) and 0",
			restarted.putCount(), restarted.getCount())
	}
	if restarted.count() != 1 {
		t.Fatal("restarted agent did not get its rule")
	}
	f.expectCalls(t, "stale pass", [2]int{p, g}, 3, 0)
}

// TestTargetedPassLeavesDriftToAntiEntropy pins the documented contract: a
// targeted pass does not touch an agent whose desired set it did not
// change, so an out-of-band edit there survives it; Reconcile repairs it.
func TestTargetedPassLeavesDriftToAntiEntropy(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	if _, err := f.orch.SetOwner(ctx, "o", []rules.Rule{delayRule("r1", "a")}, 0); err != nil {
		t.Fatal(err)
	}
	b1 := f.agents["http://agent-b1"]
	if _, err := b1.m.ApplyRuleSet(rules.RuleSet{Generation: b1.m.Generation() + 1, Rules: []rules.Rule{delayRule("oob", "b")}}, rules.NoMatch); err != nil {
		t.Fatal(err)
	}

	if _, err := f.orch.SetOwner(ctx, "o2", []rules.Rule{delayRule("r2", "a")}, 0); err != nil {
		t.Fatal(err)
	}
	if b1.count() != 1 {
		t.Fatal("targeted pass touched an agent whose desired set did not change")
	}

	rep, err := f.orch.Reconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() || rep.Repaired() != 1 || b1.count() != 0 {
		t.Fatalf("anti-entropy did not repair the edit: %+v, %d rules left", rep, b1.count())
	}
}

// TestClearAllThenApplyConverges: ClearAll goes around the generation CAS,
// so the confirmed state it leaves behind must not be trusted; the same
// rules applied again land on every agent.
func TestClearAllThenApplyConverges(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	set := []rules.Rule{delayRule("r1", "a"), delayRule("r2", "b")}
	if _, err := f.orch.Apply(ctx, set); err != nil {
		t.Fatal(err)
	}
	if _, err := f.orch.ClearAll(ctx); err != nil {
		t.Fatal(err)
	}
	applied, err := f.orch.Apply(ctx, set)
	if err != nil {
		t.Fatal(err)
	}
	for url, agent := range f.agents {
		if agent.count() != 1 {
			t.Fatalf("agent %s holds %d rules after ClearAll and Apply, want 1", url, agent.count())
		}
	}
	if err := applied.Revert(ctx); err != nil {
		t.Fatal(err)
	}
	if drift, _ := f.orch.Drift(ctx); !drift.Converged() {
		t.Fatalf("fleet drifted: %+v", drift)
	}
}

// TestLeaseSelfExpiryRestoredWithoutRead: an agent that cleared a leased
// set itself (its generation moved) gets the rules back on the owner's
// next SetOwner. Leased sets always PUT, and the rejection carries the
// generation to retry on.
func TestLeaseSelfExpiryRestoredWithoutRead(t *testing.T) {
	f := newFixture()
	ctx := context.Background()
	set := []rules.Rule{delayRule("r1", "a")}
	if _, err := f.orch.SetOwner(ctx, "campaign", set, time.Minute); err != nil {
		t.Fatal(err)
	}
	a1 := f.agents["http://agent-a1"]
	a1.m.Clear() // the agent-side TTL lapsed
	puts, gets := a1.putCount(), a1.getCount()

	rep, err := f.orch.SetOwner(ctx, "campaign", set, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() || a1.count() != 1 {
		t.Fatalf("self-expired agent not restored: %+v", rep)
	}
	if a1.putCount()-puts != 2 || a1.getCount() != gets {
		t.Fatalf("restore took %d PUTs, %d GETs, want 2 and 0", a1.putCount()-puts, a1.getCount()-gets)
	}
	if a1.lastTTL <= 0 {
		t.Fatal("restored rules must re-arm the agent-side TTL")
	}
}
