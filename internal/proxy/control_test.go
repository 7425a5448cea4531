package proxy_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/eventlog"
	"gremlin/internal/metrics"
	"gremlin/internal/proxy"
	"gremlin/internal/rules"
)

// startAgent builds a control-enabled agent for service "client" routed at
// a throwaway backend.
func startAgent(t *testing.T, sink eventlog.Sink) (*proxy.Agent, *agentapi.Client) {
	t.Helper()
	a, err := proxy.New(proxy.Config{
		ServiceName: "client",
		AgentID:     "client-agent-1",
		ControlAddr: "127.0.0.1:0",
		Routes: []proxy.Route{{
			Dst:        "server",
			ListenAddr: "127.0.0.1:0",
			Targets:    []string{"127.0.0.1:1"},
		}},
		Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	t.Cleanup(func() {
		if err := a.Close(); err != nil {
			t.Errorf("close agent: %v", err)
		}
	})
	return a, agentapi.New(a.ControlURL(), nil)
}

func abortRule(id string) rules.Rule {
	return rules.Rule{
		ID: id, Src: "client", Dst: "server",
		Action: rules.ActionAbort, Pattern: "test-*", ErrorCode: 503,
	}
}

func TestControlInfo(t *testing.T) {
	ctx := context.Background()
	a, c := startAgent(t, nil)
	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Service != "client" || info.AgentID != "client-agent-1" {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Routes) != 1 || info.Routes[0].Dst != "server" {
		t.Fatalf("routes = %+v", info.Routes)
	}
	addr, err := a.RouteAddr("server")
	if err != nil {
		t.Fatal(err)
	}
	if info.Routes[0].ListenAddr != addr {
		t.Fatalf("route addr %q != %q", info.Routes[0].ListenAddr, addr)
	}
	if info.RuleSet.Generation != 0 || info.RuleSet.Hash == "" {
		t.Fatalf("fresh agent ruleset status = %+v", info.RuleSet)
	}
}

// TestControlInstallListRemoveClear drives rule edits the only way the
// wire allows: read the versioned set, PUT the edited set at the next
// generation under If-Match, and DELETE /v1/rules to clear.
func TestControlInstallListRemoveClear(t *testing.T) {
	ctx := context.Background()
	_, c := startAgent(t, nil)

	if _, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 1, Rules: []rules.Rule{abortRule("r1"), abortRule("r2")}}, 0); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetRuleSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 || len(got.Rules) != 2 {
		t.Fatalf("GetRuleSet = %+v", got)
	}

	if _, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 2, Rules: got.Rules[1:]}, got.Generation); err != nil {
		t.Fatal(err)
	}
	// A writer that read generation 1 lost the race.
	if _, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 2}, got.Generation); !errors.Is(err, agentapi.ErrPreconditionFailed) {
		t.Fatalf("stale If-Match: want ErrPreconditionFailed, got %v", err)
	}

	n, err := c.ClearRules(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ClearRules = %d, want 1", n)
	}
	got, err = c.GetRuleSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rules) != 0 || got.Generation != 3 {
		t.Fatalf("after clear: %+v, want no rules at generation 3", got)
	}
}

// TestControlLegacyRuleRoutesRemoved pins the retired imperative routes:
// listing or posting rules is no longer a method /v1/rules allows, and a
// per-rule delete has no route at all. DELETE /v1/rules still clears and
// moves the generation.
func TestControlLegacyRuleRoutesRemoved(t *testing.T) {
	ctx := context.Background()
	a, c := startAgent(t, nil)
	if err := a.InstallRules(abortRule("r1")); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/rules", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/rules", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/rules/r1", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tt.method, a.ControlURL()+tt.path, strings.NewReader(`[]`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tt.want {
			t.Errorf("%s %s = %d, want %d", tt.method, tt.path, resp.StatusCode, tt.want)
		}
	}
	if a.Matcher().Len() != 1 {
		t.Fatal("a retired route touched the rules")
	}

	gen := a.Matcher().Generation()
	if n, err := c.ClearRules(ctx); err != nil || n != 1 {
		t.Fatalf("ClearRules = %d, %v; want 1", n, err)
	}
	if a.Matcher().Len() != 0 || a.Matcher().Generation() != gen+1 {
		t.Fatalf("DELETE /v1/rules left %d rules at generation %d, want 0 at %d",
			a.Matcher().Len(), a.Matcher().Generation(), gen+1)
	}
}

func TestControlInstallRejectsBadRules(t *testing.T) {
	ctx := context.Background()
	_, c := startAgent(t, nil)
	bad := abortRule("r1")
	bad.Src = "someoneelse"
	if _, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 1, Rules: []rules.Rule{bad}}, rules.NoMatch); err == nil {
		t.Fatal("want error for mis-targeted rule")
	}
	got, err := c.GetRuleSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rules) != 0 || got.Generation != 0 {
		t.Fatalf("failed install left %+v behind", got)
	}
}

func TestControlHealthz(t *testing.T) {
	ctx := context.Background()
	_, c := startAgent(t, nil)
	if !c.Healthy(ctx) {
		t.Fatal("agent should be healthy")
	}
	down := agentapi.New("http://127.0.0.1:1", &http.Client{Timeout: 100 * time.Millisecond})
	if down.Healthy(ctx) {
		t.Fatal("unreachable agent should be unhealthy")
	}
}

func TestControlFlushBufferedSink(t *testing.T) {
	store := eventlog.NewStore()
	buffered := eventlog.NewBufferedSink(store, 1000)
	_, c := startAgent(t, buffered)

	if err := buffered.Log(eventlog.Record{Src: "client", Dst: "server", Kind: eventlog.KindRequest}); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatal("record should still be buffered")
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d records after flush, want 1", store.Len())
	}
}

func TestControlFlushUnbufferedSinkOK(t *testing.T) {
	_, c := startAgent(t, eventlog.NewStore())
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("flush on plain sink should succeed: %v", err)
	}
}

func TestClientErrorsAgainstDownAgent(t *testing.T) {
	ctx := context.Background()
	c := agentapi.New("http://127.0.0.1:1", &http.Client{Timeout: 100 * time.Millisecond})
	if _, err := c.Info(ctx); err == nil {
		t.Fatal("Info should fail")
	}
	if _, err := c.ClearRules(ctx); err == nil {
		t.Fatal("ClearRules should fail")
	}
	if err := c.Flush(ctx); err == nil {
		t.Fatal("Flush should fail")
	}
	if _, err := c.GetRuleSet(ctx); err == nil {
		t.Fatal("GetRuleSet should fail")
	}
	if _, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 1}, rules.NoMatch); err == nil {
		t.Fatal("PutRuleSet should fail")
	}
}

// brokenSink always fails, driving the BufferedSink's retry/drop counters.
type brokenSink struct{}

func (brokenSink) Log(...eventlog.Record) error {
	return fmt.Errorf("store down")
}

// TestControlInfoReportsSinkHealth pins the shipping-health surface: when
// the agent logs through a BufferedSink, Stats and GET /v1/info expose its
// dropped/flush/retry counters so operators (and campaigns) can tell lossy
// runs from trustworthy ones.
func TestControlInfoReportsSinkHealth(t *testing.T) {
	ctx := context.Background()
	store := eventlog.NewStore()
	b := eventlog.NewBufferedSinkOpts(store, eventlog.BufferOptions{Size: 1 << 20, Interval: time.Hour})
	defer b.Close()
	a, c := startAgent(t, b)

	if err := b.Log(eventlog.Record{Src: "client", Dst: "server", Kind: eventlog.KindRequest}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	st := a.Stats()
	if st.LogFlushes != 1 || st.LogDropped != 0 || st.LogRetries != 0 {
		t.Fatalf("stats = %+v, want one clean flush", st)
	}
	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.LogFlushes != 1 {
		t.Fatalf("info stats = %+v, want LogFlushes = 1", info.Stats)
	}

	// A broken store shows up as retries, and overflow as drops.
	bad := eventlog.NewBufferedSinkOpts(brokenSink{}, eventlog.BufferOptions{Size: 1, Max: 1, Interval: time.Hour})
	defer bad.Close()
	a2, c2 := startAgent(t, bad)
	for i := 0; i < 3; i++ {
		if err := bad.Log(eventlog.Record{Src: "client", Dst: "server", Kind: eventlog.KindRequest}); err != nil {
			t.Fatal(err)
		}
		_ = bad.Flush() // fails; the batch bounces back into the buffer
	}
	st2 := a2.Stats()
	if st2.LogRetries == 0 || st2.LogDropped == 0 || st2.LogFlushes != 0 {
		t.Fatalf("stats = %+v, want retries and drops, no flushes", st2)
	}
	info2, err := c2.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The background flusher may retry between snapshots, so compare
	// loosely: the counters must be visible over the wire, not equal.
	if info2.Stats.LogRetries == 0 || info2.Stats.LogDropped == 0 {
		t.Fatalf("info stats = %+v, want retries and drops visible", info2.Stats)
	}

	// A plain (unbuffered) sink reports zeroes rather than lying.
	a3, _ := startAgent(t, store)
	if st3 := a3.Stats(); st3.LogFlushes != 0 || st3.LogDropped != 0 || st3.LogRetries != 0 {
		t.Fatalf("plain-sink stats = %+v, want zero shipping counters", st3)
	}
}

func TestControlMetricsExposition(t *testing.T) {
	ctx := context.Background()
	a, c := startAgent(t, nil)
	if _, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 1, Rules: []rules.Rule{abortRule("abort-server")}}, rules.NoMatch); err != nil {
		t.Fatal(err)
	}

	// Drive one aborted exchange through the data path so the counters and
	// the latency histogram have something to show.
	route, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, route+"/x", nil)
	req.Header.Set("X-Gremlin-ID", "test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("fault did not fire: status %d", resp.StatusCode)
	}

	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("agent metrics fail lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		`gremlin_agent_proxied_total{service="client"} 1`,
		`gremlin_agent_aborted_total{service="client"} 1`,
		`gremlin_rule_matched_total{service="client",rule="abort-server"} 1`,
		`gremlin_rule_fired_total{service="client",rule="abort-server"} 1`,
		`gremlin_agent_request_duration_seconds_count{service="client"} 1`,
		`gremlin_agent_request_duration_seconds_bucket{service="client",le="+Inf"} 1`,
		`gremlin_agent_ruleset_generation{service="client"} 1`,
		`gremlin_agent_ruleset_rules{service="client"} 1`,
		`gremlin_agent_ruleset_expired_total{service="client"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}

	// The info body carries the same per-rule counters for the control plane.
	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.RuleStats) != 1 || info.RuleStats[0].Fired != 1 {
		t.Fatalf("info.RuleStats = %+v, want one rule with 1 fired", info.RuleStats)
	}
}

// TestControlRuleSetRoundTrip pins the declarative surface over the wire:
// PUT replaces the whole rule state atomically, GET returns it, and the
// version shows up in /v1/info for drift detection.
func TestControlRuleSetRoundTrip(t *testing.T) {
	ctx := context.Background()
	_, c := startAgent(t, nil)

	set := rules.RuleSet{Generation: 3, Rules: []rules.Rule{abortRule("r1"), abortRule("r2")}}
	st, err := c.PutRuleSet(ctx, set, rules.NoMatch)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Changed || st.Generation != 3 || st.Rules != 2 || st.Hash != set.Hash() {
		t.Fatalf("put status = %+v", st)
	}

	got, err := c.GetRuleSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 3 || len(got.Rules) != 2 || got.Hash != set.Hash() {
		t.Fatalf("get ruleset = %+v", got)
	}

	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.RuleSet.Generation != 3 || info.RuleSet.Rules != 2 {
		t.Fatalf("info ruleset = %+v", info.RuleSet)
	}

	// Mis-targeted rules are rejected up front, leaving state untouched.
	bad := abortRule("evil")
	bad.Src = "someoneelse"
	if _, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 9, Rules: []rules.Rule{bad}}, rules.NoMatch); err == nil {
		t.Fatal("want error for mis-targeted rule")
	}
	if info, _ := c.Info(ctx); info.RuleSet.Generation != 3 {
		t.Fatalf("failed put moved the generation: %+v", info.RuleSet)
	}
}

// TestControlRuleSetConflicts pins the HTTP status mapping for the CAS
// semantics: stale and split-brain applies return 409, losing If-Match
// returns 412, and each carries the agent's current version for recovery.
func TestControlRuleSetConflicts(t *testing.T) {
	ctx := context.Background()
	_, c := startAgent(t, nil)

	if _, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 5, Rules: []rules.Rule{abortRule("r1")}}, rules.NoMatch); err != nil {
		t.Fatal(err)
	}

	st, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 4}, rules.NoMatch)
	if !errors.Is(err, agentapi.ErrConflict) {
		t.Fatalf("stale put: want ErrConflict, got %v", err)
	}
	if st.Generation != 5 {
		t.Fatalf("conflict response should carry current version, got %+v", st)
	}

	_, err = c.PutRuleSet(ctx, rules.RuleSet{Generation: 5, Rules: []rules.Rule{abortRule("other")}}, rules.NoMatch)
	if !errors.Is(err, agentapi.ErrConflict) {
		t.Fatalf("split-brain put: want ErrConflict, got %v", err)
	}

	st, err = c.PutRuleSet(ctx, rules.RuleSet{Generation: 9}, 3)
	if !errors.Is(err, agentapi.ErrPreconditionFailed) {
		t.Fatalf("wrong If-Match: want ErrPreconditionFailed, got %v", err)
	}
	if st.Generation != 5 {
		t.Fatalf("412 response should carry current version, got %+v", st)
	}

	// A matching If-Match wins even with a lower generation: a fresh
	// control plane taking over an agent left behind by a dead one.
	st, err = c.PutRuleSet(ctx, rules.RuleSet{Generation: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Changed || st.Generation != 2 || st.Rules != 0 {
		t.Fatalf("takeover status = %+v", st)
	}
}

// TestControlRuleSetLeaseExpiry pins the agent-side safety net: a rule set
// delivered with a TTL self-clears if no renewal arrives, so a killed
// control plane can never leak faults into the mesh.
func TestControlRuleSetLeaseExpiry(t *testing.T) {
	ctx := context.Background()
	a, c := startAgent(t, nil)

	set := rules.RuleSet{Generation: 1, Rules: []rules.Rule{abortRule("r1")}, TTLMillis: 60}
	if _, err := c.PutRuleSet(ctx, set, rules.NoMatch); err != nil {
		t.Fatal(err)
	}

	// Renewing before the deadline keeps the rules alive past the original
	// TTL (the re-PUT is a no-op apply but re-arms the lease).
	time.Sleep(30 * time.Millisecond)
	if _, err := c.PutRuleSet(ctx, set, rules.NoMatch); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond) // 70ms past first PUT, 40ms past renewal
	if info, _ := c.Info(ctx); info.RuleSet.Rules != 1 {
		t.Fatalf("rules expired despite renewal: %+v", info.RuleSet)
	}

	// Then let the lease lapse.
	deadline := time.Now().Add(2 * time.Second)
	for {
		info, err := c.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if info.RuleSet.Rules == 0 {
			if info.Stats.RulesetExpirations != 1 {
				t.Fatalf("stats = %+v, want one expiration", info.Stats)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired: %+v", info.RuleSet)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A later PUT without TTL installs permanent rules; no timer fires.
	if _, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 10, Rules: []rules.Rule{abortRule("r2")}}, rules.NoMatch); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if st := a.Stats(); st.RulesetExpirations != 1 {
		t.Fatalf("ttl-less rule set expired: %+v", st)
	}
}
