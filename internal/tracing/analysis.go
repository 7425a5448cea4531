package tracing

import (
	"sort"
	"time"

	"gremlin/internal/graph"
)

// PathStep is one hop on a trace's critical path.
type PathStep struct {
	Span *Span `json:"span"`

	// Self is the part of this hop's latency not explained by its critical
	// child: time spent in Dst itself (plus network), rather than waiting
	// on a deeper dependency.
	Self time.Duration `json:"self"`
}

// CriticalPath is the chain of hops that bounds a trace's end-to-end
// latency: from the root, each step descends into the child whose reply
// arrived last — the dependency the caller was still waiting on when it
// finally answered.
type CriticalPath struct {
	Steps []PathStep `json:"steps"`

	// Total is the root hop's observed latency.
	Total time.Duration `json:"total"`

	// Injected is the Gremlin-injected delay summed along the path;
	// Service is the remainder — what the request would roughly have cost
	// without the staged faults.
	Injected time.Duration `json:"injected"`
	Service  time.Duration `json:"service"`
}

// Contains reports whether the edge src→dst lies on the critical path.
func (cp CriticalPath) Contains(src, dst string) bool {
	for _, st := range cp.Steps {
		if st.Span.Src == src && st.Span.Dst == dst {
			return true
		}
	}
	return false
}

// CriticalPath extracts the latency-bounding chain from the trace's
// primary root. An empty trace yields a zero path.
func (t *Trace) CriticalPath() CriticalPath {
	root := t.Root()
	if root == nil {
		return CriticalPath{}
	}
	var cp CriticalPath
	cp.Total = root.Latency
	for s := root; s != nil; {
		// The critical child is the one whose reply arrived last: until it
		// answered, s could not answer either.
		var crit *Span
		for _, c := range s.Children {
			if crit == nil || c.End.After(crit.End) {
				crit = c
			}
		}
		self := s.Latency
		if crit != nil {
			self -= crit.Latency
			if self < 0 {
				self = 0
			}
		}
		cp.Steps = append(cp.Steps, PathStep{Span: s, Self: self})
		cp.Injected += s.Injected
		s = crit
	}
	cp.Service = cp.Total - cp.Injected
	if cp.Service < 0 {
		cp.Service = 0
	}
	return cp
}

// Attribution explains a trace's outcome in terms of the injected fault
// that caused it: the deepest hop where a Gremlin rule fired, and the call
// path that propagated its effect to the application edge.
type Attribution struct {
	// RuleID is the fault rule that fired on the attributed hop
	// (comma-joined if several fired on that hop).
	RuleID string `json:"ruleId"`

	// Span is the deepest faulted hop; Path is the chain from the trace
	// root down to it.
	Span *Span   `json:"span"`
	Path []*Span `json:"path"`

	// Injected is the Gremlin-injected delay summed over Path — the
	// latency inflation attributable to the staged faults on this flow.
	Injected time.Duration `json:"injected"`

	// RootFailed reports whether the fault's effect surfaced as a failure
	// at the application edge (as opposed to being absorbed by a
	// resilience pattern on the way up).
	RootFailed bool `json:"rootFailed"`
}

// Attribute walks the trace for the deepest hop where a fault rule fired
// and returns the attribution, or ok=false when no rule fired anywhere in
// the trace (nothing to attribute). Ties at equal depth go to the
// earliest-starting hop.
func (t *Trace) Attribute() (Attribution, bool) {
	var (
		best      *Span
		bestDepth = -1
		bestPath  []*Span
	)
	for _, root := range t.Roots {
		var walk func(s *Span, depth int, path []*Span)
		walk = func(s *Span, depth int, path []*Span) {
			path = append(path, s)
			if s.FaultRuleID != "" && depth > bestDepth {
				best = s
				bestDepth = depth
				bestPath = append([]*Span(nil), path...)
			}
			for _, c := range s.Children {
				walk(c, depth+1, path)
			}
		}
		walk(root, 0, nil)
	}
	if best == nil {
		return Attribution{}, false
	}
	a := Attribution{
		RuleID:     best.FaultRuleID,
		Span:       best,
		Path:       bestPath,
		RootFailed: t.Failed(),
	}
	for _, s := range bestPath {
		a.Injected += s.Injected
	}
	return a, true
}

// Blast is the per-fault impact summary a campaign scorecard reports: how
// far a staged fault's effect spread through the application.
type Blast struct {
	// Reached are the services that handled traffic in flows where a fault
	// fired — the fault's potential audience.
	Reached []string `json:"reached"`

	// Failed are the services that delivered a failure (5xx or severed) to
	// their caller in those flows — the fault's actual blast radius.
	Failed []string `json:"failed"`
}

// BlastRadius computes the blast summary over a set of traces. Traces in
// which no rule fired contribute nothing: impact is only counted where a
// fault was actually staged on the flow.
func BlastRadius(traces []*Trace) Blast {
	reached := make(map[string]bool)
	failed := make(map[string]bool)
	for _, t := range traces {
		if _, ok := t.Attribute(); !ok {
			continue
		}
		for _, s := range t.Spans {
			reached[s.Dst] = true
			if s.Failed() {
				failed[s.Dst] = true
			}
		}
	}
	return Blast{Reached: sortedKeys(reached), Failed: sortedKeys(failed)}
}

// ObservedGraph extracts the dependency graph actually exercised by the
// traces: one edge per observed (Src, Dst) hop.
func ObservedGraph(traces []*Trace) *graph.Graph {
	g := graph.New()
	for _, t := range traces {
		for _, s := range t.Spans {
			g.AddEdge(s.Src, s.Dst)
		}
	}
	return g
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
