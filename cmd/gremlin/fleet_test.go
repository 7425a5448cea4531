package main

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/registry"
	"gremlin/internal/topology"
)

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

	if err := gremlin("status"); err == nil {
		t.Fatal("status without -agent/-registry should fail")
	}
	if err := gremlin("drift"); err == nil {
		t.Fatal("drift without -registry should fail")
	}
	if err := gremlin("status", "-agent", agentURL); err != nil {
		t.Fatalf("status -agent: %v", err)
	}
	if err := gremlin("status", "-registry", registryPath); err != nil {
		t.Fatalf("status -registry: %v", err)
	}

	// A clean fleet is converged against the default "no faults" state.
	if err := gremlin("drift", "-registry", registryPath); err != nil {
		t.Fatalf("drift on clean fleet: %v", err)
	}

	// An out-of-band rule is drift...
	rulesPath := writeJSON(t, dir, "rules.json", []map[string]any{{
		"id": "orphan-1", "src": "serviceA", "dst": "serviceB",
		"action": "abort", "pattern": "test-*", "errorCode": 503,
	}})
	if err := gremlin("install", "-agent", agentURL, "-file", rulesPath); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := gremlin("drift", "-registry", registryPath); err == nil {
		t.Fatal("drift should report the out-of-band rule")
	}
	// ...unless declared as desired state...
	if err := gremlin("drift", "-registry", registryPath, "-file", rulesPath); err != nil {
		t.Fatalf("drift with matching desired state: %v", err)
	}
	// ...and -repair converges the fleet back without it.
	if err := gremlin("drift", "-registry", registryPath, "-repair"); err != nil {
		t.Fatalf("drift -repair: %v", err)
	}
	if err := gremlin("drift", "-registry", registryPath); err != nil {
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

// TestFleetCommand lists live members of a dynamic registry server and
// enforces -expect as a membership floor.
func TestFleetCommand(t *testing.T) {
	if err := gremlin("fleet"); err == nil {
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

	if err := gremlin("fleet", "-registry", srv.URL()); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if err := gremlin("fleet", "-registry", srv.URL(), "-expect", fmt.Sprint(n)); err != nil {
		t.Fatalf("fleet -expect %d with %d live: %v", n, n, err)
	}
	if err := gremlin("fleet", "-registry", srv.URL(), "-expect", fmt.Sprint(n+1)); err == nil {
		t.Fatalf("fleet -expect %d with only %d live should fail", n+1, n)
	}
}
