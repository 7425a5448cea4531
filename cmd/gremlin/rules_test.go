package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/rules"
	"gremlin/internal/topology"
)

func TestAgentCommandsRequireAgentFlag(t *testing.T) {
	for _, sub := range []string{"info", "rules", "install", "remove", "clear", "flush"} {
		if err := gremlin(sub); err == nil {
			t.Errorf("%s without -agent should fail", sub)
		}
	}
}

// TestInstallRefusesLeasedAgent: install and remove edit an agent's rule
// set with a TTL-less PUT, which would disarm a lease its owner renews.
// Against a leased agent both must fail and leave the set and its lease
// as they were.
func TestInstallRefusesLeasedAgent(t *testing.T) {
	spec := topology.TwoServices(0, time.Millisecond)
	app, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := app.Close(); err != nil {
			t.Error(err)
		}
	}()
	agentURL := app.Agent("serviceA").ControlURL()
	client := agentapi.New(agentURL, nil)
	ctx := context.Background()

	owned := rules.Rule{ID: "owned-1", Src: "serviceA", Dst: "serviceB", Action: rules.ActionAbort, Pattern: "test-*", ErrorCode: 503}
	if _, err := client.PutRuleSet(ctx, rules.RuleSet{Generation: 7, Rules: []rules.Rule{owned}, TTLMillis: 60_000}, rules.NoMatch); err != nil {
		t.Fatal(err)
	}
	rulesPath := writeJSON(t, t.TempDir(), "rules.json", []map[string]any{{
		"id": "manual-1", "src": "serviceA", "dst": "serviceB",
		"action": "abort", "pattern": "test-*", "errorCode": 503,
	}})
	if err := gremlin("install", "-agent", agentURL, "-file", rulesPath); err == nil || !strings.Contains(err.Error(), "leased") {
		t.Fatalf("install on a leased agent: err = %v, want a lease refusal", err)
	}
	if err := gremlin("remove", "-agent", agentURL, "-id", "owned-1"); err == nil {
		t.Fatal("remove on a leased agent should fail")
	}
	set, err := client.GetRuleSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Leased || set.Generation != 7 || len(set.Rules) != 1 || set.Rules[0].ID != "owned-1" {
		t.Fatalf("rule set after refused edits = %+v, want the leased generation 7 untouched", set)
	}
}
