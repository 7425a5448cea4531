package core

import (
	"strings"
	"testing"
	"time"

	"gremlin/internal/graph"
)

func TestGenerateRecipesCoverage(t *testing.T) {
	g := appGraph() // web -> {auth, db}; auth -> db
	recipes, err := GenerateRecipes(g, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Services with dependents: auth (from web) and db (from web, auth) —
	// two recipes each.
	if len(recipes) != 4 {
		t.Fatalf("generated %d recipes, want 4: %v", len(recipes), names(recipes))
	}
	byName := map[string]Recipe{}
	for _, r := range recipes {
		byName[r.Name] = r
	}
	for _, want := range []string{"auto-overload-auth", "auto-overload-db", "auto-crash-auth", "auto-crash-db"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing recipe %q in %v", want, names(recipes))
		}
	}
	// db has two dependents: 2 checks per dependent for overload.
	if got := len(byName["auto-overload-db"].Checks); got != 4 {
		t.Fatalf("auto-overload-db has %d checks, want 4", got)
	}
	if got := len(byName["auto-crash-db"].Checks); got != 2 {
		t.Fatalf("auto-crash-db has %d checks, want 2", got)
	}
	// Overloads come before crashes (least intrusive first).
	for i, r := range recipes {
		if strings.HasPrefix(r.Name, "auto-crash-") && i < 2 {
			t.Fatalf("crash recipe at position %d: %v", i, names(recipes))
		}
	}
}

func TestGenerateRecipesTranslatable(t *testing.T) {
	g := appGraph()
	recipes, err := GenerateRecipes(g, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recipes {
		if _, err := r.Translate(g); err != nil {
			t.Fatalf("recipe %s does not translate: %v", r.Name, err)
		}
	}
}

func TestGenerateRecipesSkipServices(t *testing.T) {
	g := appGraph()
	g.AddEdge("user", "web") // synthetic edge caller

	recipes, err := GenerateRecipes(g, GenerateOptions{SkipServices: []string{"user", "web"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recipes {
		if strings.Contains(r.Name, "web") {
			t.Fatalf("skipped service appears as a target: %v", names(recipes))
		}
	}
	// auth's only dependent is web (skipped): auth should not be targeted
	// since no unskipped dependent can observe the failure.
	for _, r := range recipes {
		if strings.Contains(r.Name, "auth") {
			t.Fatalf("auth has no unskipped dependents, should be excluded: %v", names(recipes))
		}
	}
	// db is still covered via its unskipped dependent auth.
	found := false
	for _, r := range recipes {
		if r.Name == "auto-overload-db" {
			found = true
		}
	}
	if !found {
		t.Fatalf("db should still be targeted: %v", names(recipes))
	}
}

func TestGenerateRecipesDefaults(t *testing.T) {
	o := GenerateOptions{}.withDefaults()
	if o.MaxRetries != 5 || o.MaxLatency != 2*time.Second ||
		o.BreakerThreshold != 5 || o.BreakerQuiet != 10*time.Second {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestGenerateRecipesEmptyGraph(t *testing.T) {
	recipes, err := GenerateRecipes(appGraphEmpty(), GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recipes) != 0 {
		t.Fatalf("empty graph generated %d recipes", len(recipes))
	}
}

func appGraphEmpty() GraphView { return emptyView{} }

type emptyView struct{}

func (emptyView) Services() []string                  { return nil }
func (emptyView) Dependents(string) ([]string, error) { return nil, nil }

func names(rs []Recipe) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}

// TestGenerateRecipesCyclicGraph: cycles are legal call graphs (mutually
// recursive services); every member has a dependent, so every member is
// targeted, and translation terminates.
func TestGenerateRecipesCyclicGraph(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "a") // closes the cycle

	recipes, err := GenerateRecipes(g, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"auto-overload-a", "auto-overload-b", "auto-overload-c",
		"auto-crash-a", "auto-crash-b", "auto-crash-c",
	}
	got := names(recipes)
	if len(got) != len(want) {
		t.Fatalf("generated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	for _, r := range recipes {
		if _, err := r.Translate(g); err != nil {
			t.Fatalf("recipe %s does not translate: %v", r.Name, err)
		}
	}
}

// TestGenerateRecipesFanInFanOut: a fan-in/fan-out hub gets one check pair
// per dependent edge, and leaf services observe through the hub.
func TestGenerateRecipesFanInFanOut(t *testing.T) {
	g := graph.New()
	g.AddEdge("src1", "mid") // fan-in to mid
	g.AddEdge("src2", "mid")
	g.AddEdge("mid", "d1") // fan-out from mid
	g.AddEdge("mid", "d2")

	recipes, err := GenerateRecipes(g, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Recipe{}
	for _, r := range recipes {
		byName[r.Name] = r
	}
	// Targets are exactly the services with dependents: mid, d1, d2.
	if len(recipes) != 6 {
		t.Fatalf("generated %v", names(recipes))
	}
	// mid has two dependents (fan-in): boundedRetries + timeouts per
	// dependent on overload, one breaker check per dependent on crash.
	if got := len(byName["auto-overload-mid"].Checks); got != 4 {
		t.Fatalf("auto-overload-mid has %d checks, want 4", got)
	}
	if got := len(byName["auto-crash-mid"].Checks); got != 2 {
		t.Fatalf("auto-crash-mid has %d checks, want 2", got)
	}
	// The fan-out leaves have a single dependent each.
	if got := len(byName["auto-overload-d1"].Checks); got != 2 {
		t.Fatalf("auto-overload-d1 has %d checks, want 2", got)
	}

	// Crashing the fan-in hub severs both inbound edges.
	rs, err := byName["auto-crash-mid"].Translate(g)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]bool{}
	for _, r := range rs {
		if r.Dst == "mid" {
			srcs[r.Src] = true
		}
	}
	if !srcs["src1"] || !srcs["src2"] {
		t.Fatalf("crash rules cover %v, want both fan-in callers", srcs)
	}
}

// TestGenerateRecipesDeterministic: two generations over the same graph
// produce identical plans, element for element — campaigns rely on this
// for stable unit keys across sessions.
func TestGenerateRecipesDeterministic(t *testing.T) {
	g := graph.New()
	g.AddEdge("w", "a")
	g.AddEdge("w", "b")
	g.AddEdge("a", "c")
	g.AddEdge("b", "c")
	g.AddEdge("c", "a") // cycle, to stress ordering

	first, err := GenerateRecipes(g, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := GenerateRecipes(g, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Name != second[i].Name {
			t.Fatalf("order differs at %d: %v vs %v", i, names(first), names(second))
		}
		if len(first[i].Checks) != len(second[i].Checks) {
			t.Fatalf("recipe %s check count differs", first[i].Name)
		}
	}
}

// TestGenerateRecipesPatternPropagation: a request-ID pattern set on a
// generated recipe (a campaign run's namespace) reaches every translated
// rule, so concurrent runs stay confined to their own traffic; unset, the
// rules keep the test-traffic default.
func TestGenerateRecipesPatternPropagation(t *testing.T) {
	g := appGraph()
	const pat = "camp-run-7-*"
	recipes, err := GenerateRecipes(g, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recipes) == 0 {
		t.Fatal("no recipes generated")
	}
	for _, r := range recipes {
		for _, want := range []string{"", pat} {
			r.Pattern = want
			rs, err := r.Translate(g)
			if err != nil {
				t.Fatal(err)
			}
			if want == "" {
				want = DefaultPattern
			}
			for _, rule := range rs {
				if rule.Pattern != want {
					t.Fatalf("recipe %s rule %s pattern = %q, want %q", r.Name, rule.ID, rule.Pattern, want)
				}
			}
		}
	}
}
