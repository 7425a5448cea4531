package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gremlin/internal/core"
	"gremlin/internal/graph"
)

// TestEnumeratePlanGolden pins what Enumerate plans for a fixed graph —
// every template, a tcp edge, a delay grid and seeded chaos draws — down
// to the rules each unit installs under a run's namespace. Regenerate
// with:
//
//	go test ./internal/campaign -run EnumeratePlanGolden -update-golden
func TestEnumeratePlanGolden(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{Src: "user", Dst: "web"},
		{Src: "web", Dst: "api"},
		{Src: "web", Dst: "auth"},
		{Src: "api", Dst: "db"},
		{Src: "auth", Dst: "db"},
		{Src: "api", Dst: "cache", Protocol: graph.ProtocolTCP},
	})
	units, err := Enumerate(g, EnumerateOptions{
		Generate:   core.GenerateOptions{SkipServices: []string{"user"}},
		EdgeDelays: []time.Duration{50 * time.Millisecond, 200 * time.Millisecond},
		Chaos:      8,
		ChaosSeed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, u := range units {
		rec, err := unitRecipe(u, "camp-1-*")
		if err != nil {
			t.Fatalf("%s: %v", u.Key, err)
		}
		rs, err := rec.Translate(g)
		if err != nil {
			t.Fatalf("%s: %v", u.Key, err)
		}
		fmt.Fprintf(&b, "## %s\nkind=%s service=%s target=%s\nsignature=%s\nedges=%v\n",
			u.Key, u.Kind, u.Service, u.Target, u.Signature, u.Edges)
		fmt.Fprintf(&b, "recipe=%s checks=%d\n", rec.Name, len(rec.Checks))
		for _, sc := range rec.Scenarios {
			fmt.Fprintf(&b, "scenario %s\n", sc.Describe())
		}
		for _, r := range rs {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "rule %s\n", line)
		}
		b.WriteString("\n")
	}
	got := b.String()

	golden := filepath.Join("testdata", "enumerate.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("plan drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// unitRecipe is the recipe a unit runs under a run's request-ID pattern.
func unitRecipe(u Unit, pattern string) (core.Recipe, error) {
	rec := u.Recipe
	rec.Pattern = pattern
	return rec, nil
}
