package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gremlin/internal/campaign"
	"gremlin/internal/eventlog"
	"gremlin/internal/microservice"
	"gremlin/internal/registry"
	"gremlin/internal/topology"
)

func TestExploreRequiredFlags(t *testing.T) {
	if err := gremlin("explore"); err == nil {
		t.Fatal("missing flags should fail")
	}
	if err := gremlin("explore", "-graph", "g.json", "-registry", "r.json", "-store", "http://127.0.0.1:1"); err == nil ||
		!strings.Contains(err.Error(), "-load-url is required") {
		t.Fatalf("err = %v, want the missing -load-url named", err)
	}
}

// TestExploreConvergesAgainstLiveTopology explores a live app whose
// frontend falls back to a backup only when its primary fails: the run
// converges, returns nil, and writes both scorecard renderings with the
// explore coverage section.
func TestExploreConvergesAgainstLiveTopology(t *testing.T) {
	spec := topology.Spec{Services: []topology.ServiceSpec{
		{Name: "frontend", DependsOn: []string{"primary", "backup"},
			Handler: microservice.FallbackHandler("primary", "backup")},
		{Name: "primary"},
		{Name: "backup"},
	}}
	spec.RNG = rand.New(rand.NewSource(17))
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

	outJSON := filepath.Join(dir, "scorecard.json")
	outMD := filepath.Join(dir, "scorecard.md")
	if err := gremlin("explore",
		"-graph", graphPath,
		"-registry", registryPath,
		"-store", storeServer.URL(),
		"-load-url", app.EntryURL(),
		"-requests", "4",
		"-parallelism", "1",
		"-journal", filepath.Join(dir, "explore.jsonl"),
		"-out", outJSON,
		"-markdown", outMD,
	); err != nil {
		t.Fatalf("explore: %v", err)
	}

	raw, err := os.ReadFile(outJSON)
	if err != nil {
		t.Fatal(err)
	}
	var sc campaign.Scorecard
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Explore == nil || !sc.Explore.Converged || sc.Explore.PointsRevealed == 0 || sc.Executed == 0 {
		t.Fatalf("scorecard = %+v, explore = %+v", sc, sc.Explore)
	}
	md, err := os.ReadFile(outMD)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "Explore coverage:") || !strings.Contains(string(md), "(converged)") {
		t.Fatalf("markdown scorecard lacks the converged explore coverage:\n%s", md)
	}
}
