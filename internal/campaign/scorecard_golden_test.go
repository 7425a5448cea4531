package campaign

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gremlin/internal/checker"
	"gremlin/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// TestScorecardMarkdownGolden pins the full Markdown rendering — every
// section the scorecard can produce — so report formatting regressions
// are caught mechanically. Regenerate with:
//
//	go test ./internal/campaign -run Golden -update-golden
func TestScorecardMarkdownGolden(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{Src: "user", Dst: "web"},
		{Src: "web", Dst: "db"},
		{Src: "web", Dst: "auth"},
	})
	entries := []Entry{
		{
			Unit: "overload-web->db", Kind: "overload", Service: "db", Target: "web->db",
			Status: StatusPassed, Edges: []graph.Edge{{Src: "web", Dst: "db"}},
			EIs:          []string{"ei-1"},
			BlastReached: []string{"db", "web"},
		},
		{
			Unit: "delay-web->db-100ms", Kind: "delay", Service: "db", Target: "web->db",
			Status: StatusFailed, Edges: []graph.Edge{{Src: "web", Dst: "db"}},
			Results: []checker.Result{
				{Check: "bounded-latency user<=250ms", Passed: false},
			},
			LogsDropped:  3,
			BlastReached: []string{"db", "user", "web"},
			BlastFailed:  []string{"user"},
		},
		{
			Unit: "crash-auth", Kind: "crash", Service: "auth", Target: "web->auth",
			Status: StatusError, Reason: "agent unreachable",
		},
		{
			Unit: "delay-web->auth-100ms", Kind: "delay", Service: "auth", Target: "web->auth",
			Status: StatusSkipped, Reason: "signature seen",
		},
		{
			Unit: "delay-web->db-100ms", Status: StatusTelemetry,
			Telemetry: &UnitTelemetry{
				Unit: "delay-web->db-100ms", Service: "web", Target: "web->db",
				BaselineRate: 52.0, FaultRate: 48.1,
				BaselineErrorRatio: 0.0, FaultErrorRatio: 0.021,
				BaselineP50Millis: 3.1, FaultP50Millis: 104.2,
				BaselineP99Millis: 4.8, FaultP99Millis: 151.0,
				DropsDelta: 2, Recovered: true, RecoveryMillis: 210,
			},
		},
		{
			Unit: "overload-web->db", Status: StatusTelemetry,
			Telemetry: &UnitTelemetry{
				Unit: "overload-web->db", Service: "web", Target: "web->db",
				BaselineRate: 52.0, FaultRate: 51.0,
				BaselineErrorRatio: 0.0, FaultErrorRatio: 0.31,
			},
		},
	}
	sc := BuildScorecard("tele-golden", g, entries)
	sc.Explore = &ExploreCoverage{
		PointsDiscovered: 4, PointsExercised: 1, PointsRevealed: 2,
		PointsPruned: 1, Rounds: 2, Converged: true,
	}
	sc.Telemetry.Targets = 3
	sc.Telemetry.Scrapes = 120
	sc.Telemetry.ScrapeErrors = 1
	sc.Telemetry.Series = 84
	sc.Telemetry.RingEvictions = 12

	// Telemetry annotations must not leak into the unit counters.
	if sc.Units != 4 || sc.Executed != 2 || sc.Passed != 1 || sc.Failed != 1 {
		t.Fatalf("counters polluted by telemetry entries: %+v", sc)
	}

	got := sc.Markdown()
	golden := filepath.Join("testdata", "scorecard.golden.md")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("markdown drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestScorecardIgnoresEntryOrder: parallel units settle in any order, and
// the journal holds them in that order. The same entries, shuffled, must
// render the same report: blast radii that tie on failed and reached
// services, edges outside the graph, telemetry rows and failed units
// included.
func TestScorecardIgnoresEntryOrder(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: "user", Dst: "web"}, {Src: "web", Dst: "db"}})
	var entries []Entry
	for i := 0; i < 12; i++ {
		unit := fmt.Sprintf("delay-%02d", i)
		e := Entry{
			Unit: unit, Kind: "delay", Service: "db", Status: StatusPassed,
			Edges:        []graph.Edge{{Src: "web", Dst: "db"}, {Src: fmt.Sprintf("stale-%d", i%3), Dst: "db"}},
			BlastReached: []string{"db", "web"},
		}
		if i%4 == 0 {
			e.Status = StatusFailed
			e.Results = []checker.Result{{Check: "bounded-latency", Passed: false}}
			e.BlastFailed = []string{"user"}
		}
		entries = append(entries, e, Entry{
			Unit: unit, Status: StatusTelemetry,
			Telemetry: &UnitTelemetry{Unit: unit, Service: "web", BaselineRate: 50, FaultRate: float64(40 + i%2)},
		})
	}
	want := BuildScorecard("order", g, entries).Markdown()
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 8; round++ {
		shuffled := append([]Entry(nil), entries...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := BuildScorecard("order", g, shuffled).Markdown(); got != want {
			t.Fatalf("shuffled entries render another report:\n%s\nin journal order:\n%s", got, want)
		}
	}
}
