package campaign

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"gremlin/internal/graph"
)

// EdgeScore is one row of the per-edge pass-fail matrix: the outcomes of
// every executed run that faulted this edge.
type EdgeScore struct {
	Src     string `json:"src"`
	Dst     string `json:"dst"`
	Runs    int    `json:"runs"`
	Passed  int    `json:"passed"`
	Failed  int    `json:"failed"`
	Verdict string `json:"verdict"` // "pass", "fail", or "untested"
}

// ServiceScore aggregates the runs targeting one service.
type ServiceScore struct {
	Service string `json:"service"`
	Runs    int    `json:"runs"`
	Passed  int    `json:"passed"`
	Failed  int    `json:"failed"`
}

// BlastScore is one executed run's blast radius: how many services the
// staged fault's flows touched, and which of them delivered failures.
type BlastScore struct {
	Unit    string   `json:"unit"`
	Reached int      `json:"reached"`
	Failed  []string `json:"failed,omitempty"`
}

// ExploreCoverage summarizes execution-index point coverage for campaigns
// driven by the explore plane (internal/explore). Exercised counts are
// folded from journal entries; the discovery-side counters are filled in by
// the explorer, which alone knows what its trace harvest surfaced.
type ExploreCoverage struct {
	// PointsDiscovered is how many distinct injection points (canonical
	// execution indexes) the explorer inventoried from observed traces.
	PointsDiscovered int `json:"pointsDiscovered"`

	// PointsExercised is how many distinct points were faulted by at least
	// one executed run (distinct EIs across passed and failed entries).
	PointsExercised int `json:"pointsExercised"`

	// PointsRevealed is how many discovered points were absent from the
	// fault-free baseline — call paths (retry and fallback branches) that
	// only exist while some enabling fault is staged.
	PointsRevealed int `json:"pointsRevealed,omitempty"`

	// PointsPruned counts candidate points dropped as EI-equivalent
	// duplicates before any unit was built for them.
	PointsPruned int `json:"pointsPruned,omitempty"`

	// Rounds is how many frontier rounds the exploration ran; Converged
	// reports whether it ended because the frontier ran dry (rather than
	// hitting a round budget or cancellation).
	Rounds    int  `json:"rounds,omitempty"`
	Converged bool `json:"converged,omitempty"`
}

// Scorecard is the campaign's aggregate resilience report.
type Scorecard struct {
	Campaign string `json:"campaign"`

	// Units is how many journal entries the campaign settled; Executed
	// counts the ones that actually ran (Passed + Failed), the rest were
	// Skipped as redundant or hit operational Errors.
	Units    int `json:"units"`
	Executed int `json:"executed"`
	Passed   int `json:"passed"`
	Failed   int `json:"failed"`
	Skipped  int `json:"skipped"`
	Errors   int `json:"errors"`

	// Lossy counts executed runs whose event logs dropped records — their
	// verdicts were computed on partial evidence.
	Lossy int `json:"lossy"`

	// EdgeCoverage is the fraction of graph edges faulted by at least one
	// executed run.
	EdgeCoverage float64 `json:"edgeCoverage"`

	Edges    []EdgeScore    `json:"edges"`
	Services []ServiceScore `json:"services"`

	// Blast lists per-run blast radii for executed runs whose traces
	// carried a fired fault, widest first. A run whose fault failed
	// services beyond the targeted edge is where resilience patterns are
	// missing.
	Blast []BlastScore `json:"blast,omitempty"`

	// Explore carries execution-index point coverage when any entry was
	// pinned to specific injection points; nil for plain edge campaigns,
	// keeping their JSON scorecards unchanged.
	Explore *ExploreCoverage `json:"explore,omitempty"`

	// Telemetry carries scraper health and per-unit fault-window
	// differentials when the campaign ran with the telemetry plane
	// attached; nil otherwise, keeping plain scorecards unchanged.
	Telemetry *TelemetrySummary `json:"telemetry,omitempty"`

	// FailedUnits lists the units whose assertions failed, with the first
	// failing check's detail.
	FailedUnits []string `json:"failedUnits,omitempty"`

	// ErrorUnits lists the units that hit operational errors.
	ErrorUnits []string `json:"errorUnits,omitempty"`
}

// BuildScorecard folds journal entries into the aggregate matrix over g's
// edges and services. Every graph edge gets a row, so coverage gaps are
// visible as "untested" rather than silently absent.
func BuildScorecard(campaignID string, g *graph.Graph, entries []Entry) *Scorecard {
	sc := &Scorecard{Campaign: campaignID}
	edgeIdx := make(map[graph.Edge]*EdgeScore)
	edgeOrder := g.Edges()
	graphEdges := len(edgeOrder)
	for _, e := range edgeOrder {
		edgeIdx[e] = &EdgeScore{Src: e.Src, Dst: e.Dst}
	}
	svcIdx := make(map[string]*ServiceScore)
	svcOrder := g.Services()
	for _, s := range svcOrder {
		svcIdx[s] = &ServiceScore{Service: s}
	}

	exercisedEIs := make(map[string]bool)
	sawEIs := false
	for _, e := range entries {
		if e.Status == StatusTelemetry {
			// Telemetry annotations are not units: fold the differential
			// into the Telemetry section without touching the counters.
			if e.Telemetry != nil {
				if sc.Telemetry == nil {
					sc.Telemetry = &TelemetrySummary{}
				}
				sc.Telemetry.Units = append(sc.Telemetry.Units, *e.Telemetry)
			}
			continue
		}
		sc.Units++
		if len(e.EIs) > 0 {
			sawEIs = true
		}
		switch e.Status {
		case StatusSkipped:
			sc.Skipped++
			continue
		case StatusError:
			sc.Errors++
			sc.ErrorUnits = append(sc.ErrorUnits, fmt.Sprintf("%s: %s", e.Unit, e.Reason))
			continue
		}
		sc.Executed++
		passed := e.Status == StatusPassed
		if passed {
			sc.Passed++
		} else {
			sc.Failed++
			detail := ""
			for _, r := range e.Results {
				if !r.Passed {
					detail = r.Check
					break
				}
			}
			sc.FailedUnits = append(sc.FailedUnits, fmt.Sprintf("%s (%s)", e.Unit, detail))
		}
		if e.LogsDropped > 0 {
			sc.Lossy++
		}
		for _, ei := range e.EIs {
			exercisedEIs[ei] = true
		}
		if len(e.BlastReached) > 0 {
			sc.Blast = append(sc.Blast, BlastScore{
				Unit: e.Unit, Reached: len(e.BlastReached), Failed: e.BlastFailed,
			})
		}
		for _, edge := range e.Edges {
			es, ok := edgeIdx[edge]
			if !ok {
				// A rule may target an edge outside the reporting graph
				// (a journal from a stale topology); count it anyway.
				es = &EdgeScore{Src: edge.Src, Dst: edge.Dst}
				edgeIdx[edge] = es
				edgeOrder = append(edgeOrder, edge)
			}
			es.Runs++
			if passed {
				es.Passed++
			} else {
				es.Failed++
			}
		}
		if ss, ok := svcIdx[e.Service]; ok {
			ss.Runs++
			if passed {
				ss.Passed++
			} else {
				ss.Failed++
			}
		}
	}

	// Edges outside the graph come in the order runs finished: sort them
	// after the graph's own, which Edges already sorts.
	extra := edgeOrder[graphEdges:]
	sort.Slice(extra, func(i, j int) bool {
		if extra[i].Src != extra[j].Src {
			return extra[i].Src < extra[j].Src
		}
		return extra[i].Dst < extra[j].Dst
	})
	covered := 0
	for _, e := range edgeOrder {
		es := edgeIdx[e]
		switch {
		case es.Runs == 0:
			es.Verdict = "untested"
		case es.Failed > 0:
			es.Verdict = "fail"
		default:
			es.Verdict = "pass"
		}
		if es.Runs > 0 {
			covered++
		}
		sc.Edges = append(sc.Edges, *es)
	}
	for _, s := range svcOrder {
		sc.Services = append(sc.Services, *svcIdx[s])
	}
	if len(sc.Edges) > 0 {
		sc.EdgeCoverage = float64(covered) / float64(len(sc.Edges))
	}
	if sawEIs {
		// Discovery-side counters (discovered/revealed/pruned/rounds) are
		// the explorer's to fill; a scorecard built from the journal alone
		// still reports what was exercised.
		sc.Explore = &ExploreCoverage{
			PointsDiscovered: len(exercisedEIs),
			PointsExercised:  len(exercisedEIs),
		}
	}
	// Parallel units finish in any order, and the journal holds them so:
	// every table gets a total order, so that the same entries render the
	// same report whatever order they came in.
	sort.Strings(sc.FailedUnits)
	sort.Strings(sc.ErrorUnits)
	slices.SortFunc(sc.Blast, func(a, b BlastScore) int {
		return cmp.Or(
			cmp.Compare(len(b.Failed), len(a.Failed)), // widest first
			cmp.Compare(b.Reached, a.Reached),
			strings.Compare(a.Unit, b.Unit),
			slices.Compare(a.Failed, b.Failed),
		)
	})
	if sc.Telemetry != nil {
		slices.SortFunc(sc.Telemetry.Units, compareUnitTelemetry)
	}
	return sc
}

// compareUnitTelemetry orders telemetry rows by unit, service and target,
// and rows that share all three by the rest of their fields.
func compareUnitTelemetry(a, b UnitTelemetry) int {
	return cmp.Or(
		strings.Compare(a.Unit, b.Unit),
		strings.Compare(a.Service, b.Service),
		strings.Compare(a.Target, b.Target),
		cmp.Compare(a.BaselineRate, b.BaselineRate),
		cmp.Compare(a.FaultRate, b.FaultRate),
		cmp.Compare(a.BaselineErrorRatio, b.BaselineErrorRatio),
		cmp.Compare(a.FaultErrorRatio, b.FaultErrorRatio),
		cmp.Compare(a.BaselineP50Millis, b.BaselineP50Millis),
		cmp.Compare(a.FaultP50Millis, b.FaultP50Millis),
		cmp.Compare(a.BaselineP99Millis, b.BaselineP99Millis),
		cmp.Compare(a.FaultP99Millis, b.FaultP99Millis),
		cmp.Compare(a.DropsDelta, b.DropsDelta),
		compareBool(a.Recovered, b.Recovered),
		cmp.Compare(a.RecoveryMillis, b.RecoveryMillis),
	)
}

func compareBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}

// Covered reports whether every edge was faulted by at least one run.
func (s *Scorecard) Covered() bool {
	for _, e := range s.Edges {
		if e.Runs == 0 {
			return false
		}
	}
	return true
}

// JSON renders the scorecard as indented JSON.
func (s *Scorecard) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Markdown renders the scorecard as a Markdown report: the summary line,
// the per-edge matrix, and the per-service rollup.
func (s *Scorecard) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Campaign %s\n\n", s.Campaign)
	fmt.Fprintf(&b, "%d units: %d executed (%d passed, %d failed), %d skipped as redundant, %d errored.\n",
		s.Units, s.Executed, s.Passed, s.Failed, s.Skipped, s.Errors)
	fmt.Fprintf(&b, "Edge coverage: %.0f%%.", 100*s.EdgeCoverage)
	if s.Lossy > 0 {
		fmt.Fprintf(&b, " **%d lossy runs** (event logs dropped records — verdicts untrustworthy).", s.Lossy)
	}
	if s.Explore != nil {
		x := s.Explore
		fmt.Fprintf(&b, "\nExplore coverage: %d injection points discovered", x.PointsDiscovered)
		if x.PointsRevealed > 0 {
			fmt.Fprintf(&b, " (%d revealed only under fault)", x.PointsRevealed)
		}
		fmt.Fprintf(&b, ", %d exercised, %d pruned as EI-equivalent.", x.PointsExercised, x.PointsPruned)
		if x.Rounds > 0 {
			state := "frontier not yet dry"
			if x.Converged {
				state = "converged"
			}
			fmt.Fprintf(&b, " %d rounds (%s).", x.Rounds, state)
		}
	}
	if s.Telemetry != nil {
		b.WriteString("\n")
		s.Telemetry.markdown(&b)
		b.WriteString("\n## Edges\n\n| edge | runs | passed | failed | verdict |\n|---|---:|---:|---:|---|\n")
	} else {
		b.WriteString("\n\n## Edges\n\n| edge | runs | passed | failed | verdict |\n|---|---:|---:|---:|---|\n")
	}
	for _, e := range s.Edges {
		fmt.Fprintf(&b, "| %s → %s | %d | %d | %d | %s |\n", e.Src, e.Dst, e.Runs, e.Passed, e.Failed, e.Verdict)
	}
	b.WriteString("\n## Services\n\n| service | runs | passed | failed |\n|---|---:|---:|---:|\n")
	for _, sv := range s.Services {
		fmt.Fprintf(&b, "| %s | %d | %d | %d |\n", sv.Service, sv.Runs, sv.Passed, sv.Failed)
	}
	if len(s.Blast) > 0 {
		b.WriteString("\n## Blast radius\n\n| unit | services reached | services failed |\n|---|---:|---|\n")
		for _, bl := range s.Blast {
			failed := strings.Join(bl.Failed, ", ")
			if failed == "" {
				failed = "—"
			}
			fmt.Fprintf(&b, "| %s | %d | %s |\n", bl.Unit, bl.Reached, failed)
		}
	}
	if len(s.FailedUnits) > 0 {
		b.WriteString("\n## Failed units\n\n")
		for _, u := range s.FailedUnits {
			fmt.Fprintf(&b, "- %s\n", u)
		}
	}
	if len(s.ErrorUnits) > 0 {
		b.WriteString("\n## Errored units\n\n")
		for _, u := range s.ErrorUnits {
			fmt.Fprintf(&b, "- %s\n", u)
		}
	}
	return b.String()
}
