package gremlin_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gremlin"
	"gremlin/internal/loadgen"
	"gremlin/internal/topology"
)

// TestPublicAPIEndToEnd drives the whole framework exclusively through the
// root package: build agents and a registry by hand, run a recipe, check
// the report — the integration a downstream user would write.
func TestPublicAPIEndToEnd(t *testing.T) {
	app, err := topology.Build(withSeed(topology.TwoServices(5, time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := app.Close(); err != nil {
			t.Error(err)
		}
	}()

	runner := gremlin.NewRunner(app.Graph, gremlin.NewOrchestrator(app.Registry), app.Store, app.Store)
	recipe := gremlin.Recipe{
		Name:      "public-api",
		Scenarios: []gremlin.Scenario{gremlin.Overload{Service: "serviceB", AbortFraction: 1}},
		Checks:    []gremlin.Check{gremlin.ExpectBoundedRetries("serviceA", "serviceB", 5)},
	}
	report, err := runner.Run(context.Background(), recipe, gremlin.RunOptions{
		ClearLogs: true,
		Load: func() error {
			_, err := loadgen.Run(app.EntryURL(), loadgen.Options{N: 1})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("report:\n%s", report)
	}
}

func withSeed(s topology.Spec) topology.Spec {
	s.RNG = rand.New(rand.NewSource(99))
	return s
}

// TestPublicAPIStoreRoundTrip exercises the re-exported event-store pieces.
func TestPublicAPIStoreRoundTrip(t *testing.T) {
	store := gremlin.NewStore()
	srv, err := gremlin.NewStoreServer("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}()
	client := gremlin.NewStoreClient(srv.URL())
	if err := client.Log(gremlin.Record{Src: "a", Dst: "b", Kind: gremlin.KindRequest, RequestID: "test-1"}); err != nil {
		t.Fatal(err)
	}
	recs, err := client.Select(gremlin.Query{Src: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}

	// The checker works against the remote store too.
	c := gremlin.NewChecker(client)
	rl, err := c.GetRequests("a", "b", "test-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) != 1 {
		t.Fatalf("RList = %d", len(rl))
	}
}

// TestPublicAPIAgent exercises a hand-built agent through the facade.
func TestPublicAPIAgent(t *testing.T) {
	store := gremlin.NewStore()
	backend, err := gremlin.NewStoreServer("127.0.0.1:0", store) // any HTTP server works as a target
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := backend.Close(); err != nil {
			t.Error(err)
		}
	}()

	agent, err := gremlin.NewAgent(gremlin.AgentConfig{
		ServiceName: "client",
		ControlAddr: "127.0.0.1:0",
		Routes: []gremlin.Route{{
			Dst:        "server",
			ListenAddr: "127.0.0.1:0",
			Targets:    []string{backend.URL()[len("http://"):]},
		}},
		Sink: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	defer func() {
		if err := agent.Close(); err != nil {
			t.Error(err)
		}
	}()

	ctl := gremlin.NewAgentClient(agent.ControlURL())
	if _, err := ctl.PutRuleSet(context.Background(), gremlin.RuleSet{Generation: 1, Rules: []gremlin.Rule{{
		ID: "r1", Src: "client", Dst: "server",
		Action: gremlin.ActionAbort, Pattern: gremlin.DefaultPattern, ErrorCode: 503,
	}}}, gremlin.NoMatch); err != nil {
		t.Fatal(err)
	}
	set, err := ctl.GetRuleSet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if set.Generation != 1 || len(set.Rules) != 1 || set.Rules[0].ID != "r1" {
		t.Fatalf("rule set = %+v", set)
	}
}

// TestPublicAPIGraph exercises the graph facade.
func TestPublicAPIGraph(t *testing.T) {
	g := gremlin.NewGraph()
	g.AddEdge("a", "b")
	g2 := gremlin.GraphFromEdges(g.Edges())
	if !g2.HasEdge("a", "b") {
		t.Fatal("round trip lost the edge")
	}
	reg := gremlin.NewRegistry(gremlin.Instance{Service: "a", Addr: "x:1"})
	if _, err := reg.Instances("a"); err != nil {
		t.Fatal(err)
	}
}

// TestShippedRecipeFilesParse keeps the sample recipe files in
// examples/recipes/ loadable by gremlin run.
func TestShippedRecipeFilesParse(t *testing.T) {
	files, err := filepath.Glob("examples/recipes/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no sample recipes found")
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		r, err := gremlin.ParseRecipe(raw)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if r.Name == "" || len(r.Scenarios) == 0 {
			t.Fatalf("%s: incomplete recipe %+v", f, r)
		}
	}
}

// TestShippedAgentConfigParses keeps the example agent config valid.
func TestShippedAgentConfigParses(t *testing.T) {
	raw, err := os.ReadFile("cmd/gremlin/agent.example.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Service string          `json:"service"`
		AgentID string          `json:"agentId"`
		Control string          `json:"control"`
		Store   string          `json:"logstore"`
		Routes  []gremlin.Route `json:"routes"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if err := (gremlin.AgentConfig{ServiceName: cfg.Service, Routes: cfg.Routes}).Validate(); err != nil {
		t.Fatalf("example config invalid: %v", err)
	}
}
