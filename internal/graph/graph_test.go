package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds: web -> {auth, catalog}; auth -> db; catalog -> db.
func diamond() *Graph {
	g := New()
	g.AddEdge("web", "auth")
	g.AddEdge("web", "catalog")
	g.AddEdge("auth", "db")
	g.AddEdge("catalog", "db")
	return g
}

func TestAddAndQuery(t *testing.T) {
	g := diamond()
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	if !g.Has("web") || g.Has("nope") {
		t.Fatal("Has misbehaves")
	}
	if !g.HasEdge("web", "auth") || g.HasEdge("auth", "web") {
		t.Fatal("HasEdge misbehaves")
	}
	want := []string{"auth", "catalog", "db", "web"}
	if got := g.Services(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Services = %v, want %v", got, want)
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	g := New()
	g.AddEdge("a", "a")
	if !g.Has("a") {
		// AddEdge with src == dst is a no-op entirely.
		g.AddService("a")
	}
	if g.HasEdge("a", "a") {
		t.Fatal("self edge must be ignored")
	}
}

func TestDependentsAndDependencies(t *testing.T) {
	g := diamond()
	deps, err := g.Dependents("db")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"auth", "catalog"}; !reflect.DeepEqual(deps, want) {
		t.Fatalf("Dependents(db) = %v, want %v", deps, want)
	}
	out, err := g.Dependencies("web")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"auth", "catalog"}; !reflect.DeepEqual(out, want) {
		t.Fatalf("Dependencies(web) = %v, want %v", out, want)
	}
	if _, err := g.Dependents("ghost"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v, want ErrUnknownService", err)
	}
	if _, err := g.Dependencies("ghost"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v, want ErrUnknownService", err)
	}
}

func TestRootsAndLeaves(t *testing.T) {
	g := diamond()
	if got := g.Roots(); !reflect.DeepEqual(got, []string{"web"}) {
		t.Fatalf("Roots = %v", got)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := diamond()
	want := []Edge{
		{Src: "auth", Dst: "db"},
		{Src: "catalog", Dst: "db"},
		{Src: "web", Dst: "auth"},
		{Src: "web", Dst: "catalog"},
	}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestFromEdgesRoundTrip(t *testing.T) {
	g := diamond()
	g2 := FromEdges(g.Edges())
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) || !reflect.DeepEqual(g.Services(), g2.Services()) {
		t.Fatal("FromEdges(Edges()) differs")
	}
}

func TestCut(t *testing.T) {
	g := diamond()
	cut, err := g.Cut([]string{"web", "auth"}, []string{"catalog", "db"})
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{Src: "auth", Dst: "db"}, {Src: "web", Dst: "catalog"}}
	if !reflect.DeepEqual(cut, want) {
		t.Fatalf("Cut = %v, want %v", cut, want)
	}
}

func TestCutErrors(t *testing.T) {
	g := diamond()
	if _, err := g.Cut([]string{"ghost"}, []string{"db"}); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Cut([]string{"web"}, []string{"ghost"}); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Cut([]string{"web"}, []string{"web"}); err == nil {
		t.Fatal("want error when a service is on both sides")
	}
}

func TestCutPartial(t *testing.T) {
	// Services outside both partitions keep their edges.
	g := diamond()
	cut, err := g.Cut([]string{"auth"}, []string{"db"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Edge{{Src: "auth", Dst: "db"}}; !reflect.DeepEqual(cut, want) {
		t.Fatalf("Cut = %v, want %v", cut, want)
	}
}

func TestHasCycle(t *testing.T) {
	if diamond().HasCycle() {
		t.Fatal("diamond is acyclic")
	}
	g := diamond()
	g.AddEdge("db", "web")
	if !g.HasCycle() {
		t.Fatal("cycle not detected")
	}
	empty := New()
	if empty.HasCycle() {
		t.Fatal("empty graph is acyclic")
	}
	two := New()
	two.AddEdge("a", "b")
	two.AddEdge("b", "a")
	if !two.HasCycle() {
		t.Fatal("2-cycle not detected")
	}
}

func TestDOT(t *testing.T) {
	dot := diamond().DOT()
	for _, frag := range []string{`"web" -> "auth"`, `"catalog" -> "db"`, "digraph app"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
}

func TestClone(t *testing.T) {
	g := diamond()
	c := g.Clone()
	c.AddEdge("web", "newservice")
	if g.Has("newservice") {
		t.Fatal("Clone shares state with original")
	}
	if !reflect.DeepEqual(g.Edges(), diamond().Edges()) {
		t.Fatal("original mutated")
	}
}

func TestZeroValueGraphUsable(t *testing.T) {
	var g Graph
	g.AddEdge("a", "b")
	if !g.HasEdge("a", "b") {
		t.Fatal("zero-value graph should accept edges")
	}
}

// Property: for every edge (s,d), s is in Dependents(d) and d is in
// Dependencies(s) — the in/out indexes are duals.
func TestDependentsDependenciesDualityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed uint16) bool {
		n := int(seed%20) + 2
		g := New()
		for i := 0; i < n; i++ {
			g.AddService("s" + strconv.Itoa(i))
		}
		for i := 0; i < n*2; i++ {
			src := "s" + strconv.Itoa(rng.Intn(n))
			dst := "s" + strconv.Itoa(rng.Intn(n))
			g.AddEdge(src, dst)
		}
		for _, e := range g.Edges() {
			deps, err := g.Dependents(e.Dst)
			if err != nil || !contains(deps, e.Src) {
				return false
			}
			outs, err := g.Dependencies(e.Src)
			if err != nil || !contains(outs, e.Dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
