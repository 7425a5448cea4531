package gremlin_test

import (
	"fmt"
	"time"

	"gremlin"
)

// Example_recipeTranslation shows the Recipe Translator in isolation: a
// high-level Overload scenario decomposed into primitive Abort/Delay rules
// over the application graph (no network involved).
func Example_recipeTranslation() {
	g := gremlin.NewGraph()
	g.AddEdge("serviceA", "serviceB")

	recipe := gremlin.Recipe{
		Name:      "overload-b",
		Scenarios: []gremlin.Scenario{gremlin.Overload{Service: "serviceB"}},
	}
	rules, err := recipe.Translate(g)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, r := range rules {
		fmt.Println(r)
	}
	// Output:
	// abort[overload-b-overload-abort-1] serviceA->serviceB on=request pattern="test-*" p=0.25 code=503
	// delay[overload-b-overload-delay-2] serviceA->serviceB on=request pattern="test-*" p=1.00 interval=100ms
}

// Example_crashScenario shows Crash fanning out to every dependent of the
// failed service with TCP-level connection resets (Error=-1 in the paper).
func Example_crashScenario() {
	g := gremlin.NewGraph()
	g.AddEdge("web", "db")
	g.AddEdge("worker", "db")

	rules, err := gremlin.Recipe{
		Name:      "db-crash",
		Scenarios: []gremlin.Scenario{gremlin.Crash{Service: "db"}},
	}.Translate(g)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, r := range rules {
		fmt.Printf("%s->%s code=%d\n", r.Src, r.Dst, r.ErrorCode)
	}
	// Output:
	// web->db code=-1
	// worker->db code=-1
}

// Example_generateRecipes shows the automatic test-plan generation (§9):
// recipes derived from the application graph alone.
func Example_generateRecipes() {
	g := gremlin.NewGraph()
	g.AddEdge("frontend", "backend")
	g.AddEdge("backend", "db")

	recipes, err := gremlin.GenerateRecipes(g, gremlin.GenerateOptions{
		MaxRetries:       5,
		MaxLatency:       time.Second,
		BreakerThreshold: 5,
		BreakerQuiet:     10 * time.Second,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, r := range recipes {
		fmt.Printf("%s (%d checks)\n", r.Name, len(r.Checks))
	}
	// Output:
	// auto-overload-backend (2 checks)
	// auto-overload-db (2 checks)
	// auto-crash-backend (1 checks)
	// auto-crash-db (1 checks)
}

// Example_parseRecipe shows recipes-as-data: the JSON wire form executable
// by gremlin run.
func Example_parseRecipe() {
	recipe, err := gremlin.ParseRecipe([]byte(`{
	  "name": "db-overload",
	  "scenarios": [{"type": "overload", "service": "db"}],
	  "checks":    [{"type": "circuitBreaker", "src": "web", "dst": "db",
	                 "threshold": 5, "tdeltaMillis": 30000}]
	}`))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%s: %d scenario(s), %d check(s)\n", recipe.Name, len(recipe.Scenarios), len(recipe.Checks))
	// Output:
	// db-overload: 1 scenario(s), 1 check(s)
}
