package tracing

import (
	"strings"
	"testing"
	"time"

	"gremlin/internal/eventlog"
)

// delayedChain builds a->b->c where the b->c hop took a 100ms injected
// delay from rule r-delay.
func delayedChain(reqID string) []eventlog.Record {
	recs := hop(reqID, "sp-a-1", "", "a", "b", t0, 130*time.Millisecond, 200)
	inner := hop(reqID, "sp-b-1", "sp-a-1", "b", "c", t0.Add(10*time.Millisecond), 110*time.Millisecond, 200)
	inner[1].FaultAction = "delay"
	inner[1].FaultRuleID = "r-delay"
	inner[1].InjectedDelayMillis = 100
	return append(recs, inner...)
}

func TestCriticalPath(t *testing.T) {
	tr := Assemble(delayedChain("test-cp"))[0]
	cp := tr.CriticalPath()
	if len(cp.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(cp.Steps))
	}
	if !cp.Contains("a", "b") || !cp.Contains("b", "c") {
		t.Fatal("critical path missing an edge")
	}
	if cp.Contains("b", "x") {
		t.Fatal("Contains matched an absent edge")
	}
	if cp.Total != 130*time.Millisecond {
		t.Fatalf("total = %s", cp.Total)
	}
	if cp.Injected != 100*time.Millisecond {
		t.Fatalf("injected = %s", cp.Injected)
	}
	if cp.Service != 30*time.Millisecond {
		t.Fatalf("service = %s", cp.Service)
	}
	// Root's self time excludes the inner hop's latency.
	if cp.Steps[0].Self != 20*time.Millisecond {
		t.Fatalf("root self = %s, want 20ms", cp.Steps[0].Self)
	}
	if cp.Steps[1].Self != 110*time.Millisecond {
		t.Fatalf("leaf self = %s, want 110ms", cp.Steps[1].Self)
	}
}

func TestCriticalPathPicksSlowestBranch(t *testing.T) {
	recs := hop("test-fan", "sp-r", "", "a", "b", t0, 100*time.Millisecond, 200)
	recs = append(recs, hop("test-fan", "sp-f1", "sp-r", "b", "fast", t0.Add(5*time.Millisecond), 10*time.Millisecond, 200)...)
	recs = append(recs, hop("test-fan", "sp-s1", "sp-r", "b", "slow", t0.Add(5*time.Millisecond), 80*time.Millisecond, 200)...)
	cp := Assemble(recs)[0].CriticalPath()
	if !cp.Contains("b", "slow") || cp.Contains("b", "fast") {
		t.Fatalf("critical path chose wrong branch: %+v", cp.Steps)
	}
}

func TestAttribute(t *testing.T) {
	tr := Assemble(delayedChain("test-attr"))[0]
	a, ok := tr.Attribute()
	if !ok {
		t.Fatal("no attribution found")
	}
	if a.RuleID != "r-delay" {
		t.Fatalf("rule = %q", a.RuleID)
	}
	if a.Span.Src != "b" || a.Span.Dst != "c" {
		t.Fatalf("span = %+v", a.Span)
	}
	if len(a.Path) != 2 || a.Path[0].Src != "a" {
		t.Fatalf("path = %+v", a.Path)
	}
	if a.Injected != 100*time.Millisecond {
		t.Fatalf("injected = %s", a.Injected)
	}
	if a.RootFailed {
		t.Fatal("healthy trace marked RootFailed")
	}
}

func TestAttributeDeepestWins(t *testing.T) {
	recs := delayedChain("test-deep")
	// A shallower fault on the root hop: attribution must still name the
	// deeper one.
	recs[1].FaultAction = "delay"
	recs[1].FaultRuleID = "r-shallow"
	recs[1].InjectedDelayMillis = 5
	a, ok := Assemble(recs)[0].Attribute()
	if !ok || a.RuleID != "r-delay" {
		t.Fatalf("attribution = %+v ok=%v, want deepest rule r-delay", a, ok)
	}
	// ...but its injected delay still counts on the path.
	if a.Injected != 105*time.Millisecond {
		t.Fatalf("injected = %s, want 105ms", a.Injected)
	}
}

func TestAttributeNoFault(t *testing.T) {
	if _, ok := Assemble(chain("test-clean"))[0].Attribute(); ok {
		t.Fatal("attribution on a fault-free trace")
	}
}

func TestBlastRadius(t *testing.T) {
	// Faulted flow: a->b->c with the c hop aborted; the failure propagates
	// so b also answers 500. Clean flow touches d — must not count.
	faulted := hop("test-blast-1", "sp-1", "", "a", "b", t0, 20*time.Millisecond, 500)
	inner := hop("test-blast-1", "sp-2", "sp-1", "b", "c", t0.Add(time.Millisecond), 10*time.Millisecond, 503)
	inner[1].GremlinGenerated = true
	inner[1].FaultAction = "abort"
	inner[1].FaultRuleID = "r-abort"
	clean := hop("test-blast-2", "sp-3", "", "a", "d", t0, 5*time.Millisecond, 200)

	blast := BlastRadius(Assemble(append(append(faulted, inner...), clean...)))
	if got := strings.Join(blast.Reached, ","); got != "b,c" {
		t.Fatalf("reached = %q, want b,c", got)
	}
	if got := strings.Join(blast.Failed, ","); got != "b,c" {
		t.Fatalf("failed = %q, want b,c", got)
	}
}

func TestBlastRadiusAbsorbedFault(t *testing.T) {
	// The fault fires deep but a fallback absorbs it: only c failed.
	root := hop("test-abs", "sp-1", "", "a", "b", t0, 20*time.Millisecond, 200)
	inner := hop("test-abs", "sp-2", "sp-1", "b", "c", t0.Add(time.Millisecond), 10*time.Millisecond, 503)
	inner[1].GremlinGenerated = true
	inner[1].FaultRuleID = "r-abort"
	blast := BlastRadius(Assemble(append(root, inner...)))
	if got := strings.Join(blast.Failed, ","); got != "c" {
		t.Fatalf("failed = %q, want c", got)
	}
	if got := strings.Join(blast.Reached, ","); got != "b,c" {
		t.Fatalf("reached = %q, want b,c", got)
	}
}

func TestObservedGraphAndDiff(t *testing.T) {
	traces := Assemble(chain("test-g"))
	og := ObservedGraph(traces)
	if !og.HasEdge("a", "b") || !og.HasEdge("b", "c") || !og.HasEdge("c", "d") {
		t.Fatalf("observed graph missing edges: %v", og.Edges())
	}
}
