package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/registry"
	"gremlin/internal/topology"
)

func TestRunCommandRequiredFlags(t *testing.T) {
	if err := gremlin("run"); err == nil {
		t.Fatal("run without flags should fail")
	}
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
	if err := gremlin("info", "-agent", agentURL); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := gremlin("rules", "-agent", agentURL); err != nil {
		t.Fatalf("rules: %v", err)
	}
	if err := gremlin("stats", "-store", storeServer.URL()); err != nil {
		t.Fatalf("stats: %v", err)
	}

	// Full recipe execution through the CLI, with load.
	if err := gremlin("run",
		"-recipe", recipePath,
		"-graph", graphPath,
		"-registry", registryPath,
		"-store", storeServer.URL(),
		"-load-url", app.EntryURL(),
		"-requests", "1",
	); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Manual rule install + query + clear + wipe.
	rulesPath := writeJSON(t, dir, "rules.json", []map[string]any{{
		"id": "manual-1", "src": "serviceA", "dst": "serviceB",
		"action": "abort", "pattern": "test-*", "errorCode": 503,
	}})
	if err := gremlin("install", "-agent", agentURL, "-file", rulesPath); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := gremlin("install", "-agent", agentURL, "-file", rulesPath); err == nil {
		t.Fatal("installing an ID that is already installed should fail")
	}
	if n := app.Agent("serviceA").Matcher().Len(); n != 1 {
		t.Fatalf("after install: %d rules, want 1", n)
	}
	if err := gremlin("query", "-store", storeServer.URL(), "-kind", "reply", "-limit", "5"); err != nil {
		t.Fatalf("query: %v", err)
	}
	if err := gremlin("remove", "-agent", agentURL, "-id", "manual-1"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := gremlin("remove", "-agent", agentURL, "-id", "manual-1"); err == nil {
		t.Fatal("removing a rule that is not installed should fail")
	}
	if err := gremlin("clear", "-agent", agentURL); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if err := gremlin("flush", "-agent", agentURL); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := gremlin("wipe", "-store", storeServer.URL()); err != nil {
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

	err = gremlin("run",
		"-recipe", recipePath,
		"-graph", graphPath,
		"-registry", registryPath,
		"-store", storeServer.URL(),
		"-load-url", app.EntryURL(),
		"-requests", "1",
	)
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

	err = gremlin("autorun",
		"-graph", graphPath,
		"-registry", registryPath,
		"-store", storeServer.URL(),
		"-load-url", app.EntryURL(),
		"-requests", "5",
		"-skip", "user",
	)
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
	if err := gremlin("autorun"); err == nil {
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

	if err := gremlin("chaos",
		"-graph", graphPath,
		"-registry", registryPath,
		"-rounds", "2",
		"-duration", "10ms",
		"-seed", "9",
	); err != nil {
		t.Fatalf("chaos: %v", err)
	}
	// All rules reverted afterwards.
	if n := app.Agent("serviceA").Matcher().Len(); n != 0 {
		t.Fatalf("%d rules left installed after chaos", n)
	}
}

func TestChaosRequiredFlags(t *testing.T) {
	if err := gremlin("chaos"); err == nil {
		t.Fatal("want error")
	}
}

// TestAutorunStoreDownTouchesNoAgent: with the event store unreachable no
// verdict can be read, so autorun fails before it stages a fault — the
// one agent in the registry sees no request at all.
func TestAutorunStoreDownTouchesNoAgent(t *testing.T) {
	var calls atomic.Int64
	agent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer agent.Close()
	deadStore := httptest.NewServer(http.NotFoundHandler())
	deadStore.Close()

	dir := t.TempDir()
	graphPath := writeJSON(t, dir, "graph.json", []map[string]string{
		{"src": "user", "dst": "serviceA"}, {"src": "serviceA", "dst": "serviceB"},
	})
	registryPath := writeJSON(t, dir, "registry.json", []map[string]string{
		{"service": "serviceA", "addr": "127.0.0.1:1", "agentControlUrl": agent.URL},
		{"service": "serviceB", "addr": "127.0.0.1:2"},
	})
	err := gremlin("autorun",
		"-graph", graphPath,
		"-registry", registryPath,
		"-store", deadStore.URL,
		"-load-url", "http://127.0.0.1:1",
		"-requests", "1",
	)
	if err == nil || !strings.Contains(err.Error(), "event store "+deadStore.URL) {
		t.Fatalf("err = %v, want the unreachable store named", err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("agent received %d requests before the store check", n)
	}
}
