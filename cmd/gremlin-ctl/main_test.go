package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/eventlog"
	"gremlin/internal/registry"
	"gremlin/internal/rules"
	"gremlin/internal/topology"
)

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run([]string{"explode"}); err == nil {
		t.Fatal("want error")
	}
	if err := run(nil); err == nil {
		t.Fatal("want error for missing subcommand")
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help: %v", err)
	}
}

func TestAgentCommandsRequireAgentFlag(t *testing.T) {
	for _, sub := range []string{"info", "rules", "install", "remove", "clear", "flush"} {
		if err := run([]string{sub}); err == nil {
			t.Errorf("%s without -agent should fail", sub)
		}
	}
}

func TestStoreCommandsRequireStoreFlag(t *testing.T) {
	for _, sub := range []string{"query", "stats", "wipe"} {
		if err := run([]string{sub}); err == nil {
			t.Errorf("%s without -store should fail", sub)
		}
	}
}

func TestRunCommandRequiredFlags(t *testing.T) {
	if err := run([]string{"run"}); err == nil {
		t.Fatal("run without flags should fail")
	}
}

func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEndToEndCtlAgainstLiveTopology drives the full CLI surface against a
// running application: info, install, rules, run (recipe file), query,
// stats, clear, wipe.
func TestEndToEndCtlAgainstLiveTopology(t *testing.T) {
	spec := topology.TwoServices(5, time.Millisecond)
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := app.Close(); err != nil {
			t.Error(err)
		}
	}()
	storeServer, err := eventlog.NewServer("127.0.0.1:0", app.Store)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := storeServer.Close(); err != nil {
			t.Error(err)
		}
	}()

	dir := t.TempDir()

	// Serialize the live deployment for the CLI.
	graphPath := writeJSON(t, dir, "graph.json", app.Graph.Edges())
	var instances []registry.Instance
	services, err := app.Registry.Services()
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range services {
		ins, err := app.Registry.Instances(svc)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, ins...)
	}
	registryPath := writeJSON(t, dir, "registry.json", instances)
	recipePath := writeJSON(t, dir, "recipe.json", map[string]any{
		"name":      "ctl-overload",
		"scenarios": []map[string]any{{"type": "overload", "service": "serviceB", "abortFraction": 1.0}},
		"checks": []map[string]any{{
			"type": "boundedRetries", "src": "serviceA", "dst": "serviceB", "maxTries": 5,
		}},
	})

	agentURL := app.Agent("serviceA").ControlURL()

	// info / rules / stats against the live deployment.
	if err := run([]string{"info", "-agent", agentURL}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := run([]string{"rules", "-agent", agentURL}); err != nil {
		t.Fatalf("rules: %v", err)
	}
	if err := run([]string{"stats", "-store", storeServer.URL()}); err != nil {
		t.Fatalf("stats: %v", err)
	}

	// Full recipe execution through the CLI, with load.
	if err := run([]string{"run",
		"-recipe", recipePath,
		"-graph", graphPath,
		"-registry", registryPath,
		"-store", storeServer.URL(),
		"-load-url", app.EntryURL(),
		"-requests", "1",
	}); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Manual rule install + query + clear + wipe.
	rulesPath := writeJSON(t, dir, "rules.json", []map[string]any{{
		"id": "manual-1", "src": "serviceA", "dst": "serviceB",
		"action": "abort", "pattern": "test-*", "errorCode": 503,
	}})
	if err := run([]string{"install", "-agent", agentURL, "-file", rulesPath}); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := run([]string{"install", "-agent", agentURL, "-file", rulesPath}); err == nil {
		t.Fatal("installing an ID that is already installed should fail")
	}
	if n := app.Agent("serviceA").Matcher().Len(); n != 1 {
		t.Fatalf("after install: %d rules, want 1", n)
	}
	if err := run([]string{"query", "-store", storeServer.URL(), "-kind", "reply", "-limit", "5"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if err := run([]string{"remove", "-agent", agentURL, "-id", "manual-1"}); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := run([]string{"remove", "-agent", agentURL, "-id", "manual-1"}); err == nil {
		t.Fatal("removing a rule that is not installed should fail")
	}
	if err := run([]string{"clear", "-agent", agentURL}); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if err := run([]string{"flush", "-agent", agentURL}); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := run([]string{"wipe", "-store", storeServer.URL()}); err != nil {
		t.Fatalf("wipe: %v", err)
	}
}

// TestRunCommandFailingRecipe: a failing assertion surfaces as a non-nil
// error (CI-friendly exit code).
func TestRunCommandFailingRecipe(t *testing.T) {
	spec := topology.TwoServices(20, time.Millisecond) // 20 retries: fails the 5-retry check
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := app.Close(); err != nil {
			t.Error(err)
		}
	}()
	storeServer, err := eventlog.NewServer("127.0.0.1:0", app.Store)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := storeServer.Close(); err != nil {
			t.Error(err)
		}
	}()

	dir := t.TempDir()
	graphPath := writeJSON(t, dir, "graph.json", app.Graph.Edges())
	var instances []registry.Instance
	services, err := app.Registry.Services()
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range services {
		ins, err := app.Registry.Instances(svc)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, ins...)
	}
	registryPath := writeJSON(t, dir, "registry.json", instances)
	recipePath := writeJSON(t, dir, "recipe.json", map[string]any{
		"name":      "fails",
		"scenarios": []map[string]any{{"type": "disconnect", "from": "serviceA", "to": "serviceB"}},
		"checks": []map[string]any{{
			"type": "boundedRetries", "src": "serviceA", "dst": "serviceB", "maxTries": 5,
		}},
	})

	err = run([]string{"run",
		"-recipe", recipePath,
		"-graph", graphPath,
		"-registry", registryPath,
		"-store", storeServer.URL(),
		"-load-url", app.EntryURL(),
		"-requests", "1",
	})
	if err == nil {
		t.Fatal("failing recipe should return an error")
	}
}

// TestAutorunAgainstLiveTopology generates and chains recipes over a live
// deployment. The TwoServices app has bounded retries but no breaker, so
// the chain passes the overload recipe and stops at the crash recipe.
func TestAutorunAgainstLiveTopology(t *testing.T) {
	spec := topology.TwoServices(3, time.Millisecond)
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := app.Close(); err != nil {
			t.Error(err)
		}
	}()
	storeServer, err := eventlog.NewServer("127.0.0.1:0", app.Store)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := storeServer.Close(); err != nil {
			t.Error(err)
		}
	}()

	dir := t.TempDir()
	graphPath := writeJSON(t, dir, "graph.json", app.Graph.Edges())
	var instances []registry.Instance
	services, err := app.Registry.Services()
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range services {
		ins, err := app.Registry.Instances(svc)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, ins...)
	}
	registryPath := writeJSON(t, dir, "registry.json", instances)

	err = run([]string{"autorun",
		"-graph", graphPath,
		"-registry", registryPath,
		"-store", storeServer.URL(),
		"-load-url", app.EntryURL(),
		"-requests", "5",
		"-skip", "user",
	})
	// serviceB's dependent serviceA has bounded retries but no breaker:
	// the crash recipe fails, so autorun reports an error.
	if err == nil {
		t.Fatal("autorun should stop at the failing crash recipe")
	}
	if !strings.Contains(err.Error(), "auto-crash-serviceB") {
		t.Fatalf("err = %v", err)
	}
}

func TestAutorunRequiredFlags(t *testing.T) {
	if err := run([]string{"autorun"}); err == nil {
		t.Fatal("want error")
	}
}

func TestChaosAgainstLiveTopology(t *testing.T) {
	spec := topology.TwoServices(0, time.Millisecond)
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := app.Close(); err != nil {
			t.Error(err)
		}
	}()

	dir := t.TempDir()
	graphPath := writeJSON(t, dir, "graph.json", app.Graph.Edges())
	var instances []registry.Instance
	services, err := app.Registry.Services()
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range services {
		ins, err := app.Registry.Instances(svc)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, ins...)
	}
	registryPath := writeJSON(t, dir, "registry.json", instances)

	if err := run([]string{"chaos",
		"-graph", graphPath,
		"-registry", registryPath,
		"-rounds", "2",
		"-duration", "10ms",
		"-seed", "9",
	}); err != nil {
		t.Fatalf("chaos: %v", err)
	}
	// All rules reverted afterwards.
	if n := app.Agent("serviceA").Matcher().Len(); n != 0 {
		t.Fatalf("%d rules left installed after chaos", n)
	}
}

func TestChaosRequiredFlags(t *testing.T) {
	if err := run([]string{"chaos"}); err == nil {
		t.Fatal("want error")
	}
}

// TestStatusAndDriftCommands drives the fleet subcommands against a live
// topology: a clean fleet converges, an out-of-band rule shows up as
// drift, declaring it as desired state clears the drift, and -repair
// converges the fleet back without it.
func TestStatusAndDriftCommands(t *testing.T) {
	spec := topology.TwoServices(5, time.Millisecond)
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := app.Close(); err != nil {
			t.Error(err)
		}
	}()

	dir := t.TempDir()
	var instances []registry.Instance
	services, err := app.Registry.Services()
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range services {
		ins, err := app.Registry.Instances(svc)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, ins...)
	}
	registryPath := writeJSON(t, dir, "registry.json", instances)
	agentURL := app.Agent("serviceA").ControlURL()

	if err := run([]string{"status"}); err == nil {
		t.Fatal("status without -agent/-registry should fail")
	}
	if err := run([]string{"drift"}); err == nil {
		t.Fatal("drift without -registry should fail")
	}
	if err := run([]string{"status", "-agent", agentURL}); err != nil {
		t.Fatalf("status -agent: %v", err)
	}
	if err := run([]string{"status", "-registry", registryPath}); err != nil {
		t.Fatalf("status -registry: %v", err)
	}

	// A clean fleet is converged against the default "no faults" state.
	if err := run([]string{"drift", "-registry", registryPath}); err != nil {
		t.Fatalf("drift on clean fleet: %v", err)
	}

	// An out-of-band rule is drift...
	rulesPath := writeJSON(t, dir, "rules.json", []map[string]any{{
		"id": "orphan-1", "src": "serviceA", "dst": "serviceB",
		"action": "abort", "pattern": "test-*", "errorCode": 503,
	}})
	if err := run([]string{"install", "-agent", agentURL, "-file", rulesPath}); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := run([]string{"drift", "-registry", registryPath}); err == nil {
		t.Fatal("drift should report the out-of-band rule")
	}
	// ...unless declared as desired state...
	if err := run([]string{"drift", "-registry", registryPath, "-file", rulesPath}); err != nil {
		t.Fatalf("drift with matching desired state: %v", err)
	}
	// ...and -repair converges the fleet back without it.
	if err := run([]string{"drift", "-registry", registryPath, "-repair"}); err != nil {
		t.Fatalf("drift -repair: %v", err)
	}
	if err := run([]string{"drift", "-registry", registryPath}); err != nil {
		t.Fatalf("drift after repair: %v", err)
	}
	set, err := agentapi.New(agentURL, nil).GetRuleSet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rules) != 0 {
		t.Fatalf("repair left %d rules installed", len(set.Rules))
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
	if err := run([]string{"install", "-agent", agentURL, "-file", rulesPath}); err == nil || !strings.Contains(err.Error(), "leased") {
		t.Fatalf("install on a leased agent: err = %v, want a lease refusal", err)
	}
	if err := run([]string{"remove", "-agent", agentURL, "-id", "owned-1"}); err == nil {
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

// TestFleetCommand lists live members of a dynamic registry server and
// enforces -expect as a membership floor.
func TestFleetCommand(t *testing.T) {
	if err := run([]string{"fleet"}); err == nil {
		t.Fatal("fleet without -registry should fail")
	}

	spec := topology.TwoServices(3, time.Millisecond)
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := app.Close(); err != nil {
			t.Error(err)
		}
	}()

	dyn := registry.NewDynamic(registry.DynamicOptions{DefaultTTL: time.Minute})
	srv, err := registry.NewServer("127.0.0.1:0", dyn)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	services, err := app.Registry.Services()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, svc := range services {
		ins, err := app.Registry.Instances(svc)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range ins {
			if err := dyn.Register(in, 0); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("topology registered no instances")
	}

	if err := run([]string{"fleet", "-registry", srv.URL()}); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if err := run([]string{"fleet", "-registry", srv.URL(), "-expect", fmt.Sprint(n)}); err != nil {
		t.Fatalf("fleet -expect %d with %d live: %v", n, n, err)
	}
	if err := run([]string{"fleet", "-registry", srv.URL(), "-expect", fmt.Sprint(n + 1)}); err == nil {
		t.Fatalf("fleet -expect %d with only %d live should fail", n+1, n)
	}
}
