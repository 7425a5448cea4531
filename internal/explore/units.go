package explore

import (
	"fmt"
	"strings"

	"gremlin/internal/campaign"
	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/graph"
	"gremlin/internal/rules"
)

// unitFaults remembers which faults each synthesized unit stages, so the
// harvest callback can attribute newly revealed points to the exact fault
// set that made them reachable.
type unitFaults map[string][]pointFault

// frontierUnits builds one unit per unexercised, buildable point — the
// point's own abort pinned to its execution index, staged together with
// the prerequisite faults that revealed it — plus bounded multi-fault
// combination units along observed critical paths. Units whose canonical
// translation fails (edge outside the graph) mark their point unbuildable
// and are dropped from the frontier rather than erroring the round.
func (e *explorer) frontierUnits(g *graph.Graph) ([]campaign.Unit, unitFaults) {
	e.mu.Lock()
	type cand struct {
		p       *Point
		prereqs []pointFault
	}
	var cands []cand
	for _, ei := range e.order {
		p := e.points[ei]
		if p.Exercised || p.Unbuildable != "" || p.Src == "" {
			continue
		}
		cands = append(cands, cand{p: p, prereqs: e.prereqs[ei]})
	}
	combos := e.comboSeqsLocked()
	e.mu.Unlock()

	var units []campaign.Unit
	faults := make(unitFaults)
	for _, c := range cands {
		u, fs := e.pointUnit(c.p, c.prereqs)
		us := []campaign.Unit{u}
		if err := campaign.Finalize(g, us); err != nil {
			e.mu.Lock()
			c.p.Unbuildable = err.Error()
			e.mu.Unlock()
			continue
		}
		units = append(units, us[0])
		faults[u.Key] = fs
	}
	for _, seq := range combos {
		u, fs, ok := e.comboUnit(seq)
		if !ok {
			continue
		}
		us := []campaign.Unit{u}
		if err := campaign.Finalize(g, us); err != nil {
			continue
		}
		units = append(units, us[0])
		faults[u.Key] = fs
	}
	return units, faults
}

// pointUnit builds the unit exercising one point: its prerequisite aborts
// (replayed with their original message phase) plus an abort pinned to the
// point's own execution index, asserted to fire at exactly that index.
func (e *explorer) pointUnit(p *Point, prereqs []pointFault) (campaign.Unit, []pointFault) {
	fs := append(append([]pointFault(nil), prereqs...),
		pointFault{src: p.Src, dst: p.Dst, ei: p.EI})
	eis := make([]string, 0, len(fs))
	for _, f := range fs {
		eis = append(eis, f.ei)
	}
	rec := e.abortRecipe("pt-"+p.EI, fs)
	rec.Checks = []core.Check{expectFaultAt(p.Src, p.Dst, p.EI)}
	return campaign.Unit{
		Key:     rec.Name,
		Kind:    "explore",
		Service: p.Dst,
		Target:  p.EI,
		EIs:     eis,
		Recipe:  rec,
	}, fs
}

// abortRecipe stages an abort pinned to each fault's execution index, on
// the fault's message phase.
func (e *explorer) abortRecipe(name string, fs []pointFault) core.Recipe {
	rec := core.Recipe{Name: name}
	for _, f := range fs {
		rec.Scenarios = append(rec.Scenarios, core.Abort{
			Src: f.src, Dst: f.dst, ErrorCode: e.o.ErrorCode,
			Probability: 1, On: f.on, CallPath: f.ei,
		})
	}
	return rec
}

// comboSeqsLocked expands the observed critical paths into bounded
// multi-fault windows: every run of adjacent path points of size
// 2..MaxCombination, at most MaxCombos in total. Callers hold e.mu.
func (e *explorer) comboSeqsLocked() [][]string {
	if e.o.MaxCombination < 2 {
		return nil
	}
	var out [][]string
	for _, path := range e.paths {
		for size := 2; size <= e.o.MaxCombination; size++ {
			for i := 0; i+size <= len(path); i++ {
				if len(out) >= e.o.MaxCombos {
					return out
				}
				out = append(out, path[i:i+size])
			}
		}
	}
	return out
}

// comboUnit builds a multi-fault unit aborting every point of one
// critical-path window at once. The aborts fire on the response phase, so
// an ancestor's fault does not cut off the descendant call it would
// otherwise suppress — every member point executes and every member fault
// is asserted to fire at its own index.
func (e *explorer) comboUnit(seq []string) (campaign.Unit, []pointFault, bool) {
	e.mu.Lock()
	fs := make([]pointFault, 0, len(seq))
	for _, ei := range seq {
		p, ok := e.points[ei]
		if !ok || p.Src == "" || len(e.prereqs[ei]) > 0 {
			e.mu.Unlock()
			return campaign.Unit{}, nil, false
		}
		fs = append(fs, pointFault{src: p.Src, dst: p.Dst, ei: ei, on: rules.OnResponse})
	}
	e.mu.Unlock()

	key := "combo-" + strings.Join(seq, "+")
	if e.builtCombo(key) {
		return campaign.Unit{}, nil, false
	}
	rec := e.abortRecipe(key, fs)
	for _, f := range fs {
		rec.Checks = append(rec.Checks, expectFaultAt(f.src, f.dst, f.ei))
	}
	return campaign.Unit{
		Key:     key,
		Kind:    "explore-combo",
		Service: fs[len(fs)-1].dst,
		Target:  strings.Join(seq, "+"),
		EIs:     append([]string(nil), seq...),
		Recipe:  rec,
	}, fs, true
}

// builtCombo claims a combo key once per exploration: combos re-derive
// from the same observed paths every round, and ones already journalled
// (this session or a previous one) add nothing to the frontier.
func (e *explorer) builtCombo(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, done := e.entries[key]; done {
		return true
	}
	if e.combosBuilt == nil {
		e.combosBuilt = make(map[string]bool)
	}
	if e.combosBuilt[key] {
		return true
	}
	e.combosBuilt[key] = true
	return false
}

// expectFaultAt asserts that at least one reply on src->dst carried an
// injected fault at exactly the given execution index — the evidence that
// the point-pinned rule fired where it was aimed, not merely somewhere on
// the edge.
func expectFaultAt(src, dst, ei string) core.Check {
	name := fmt.Sprintf("FaultAt(%s)", ei)
	return core.ExpectCustom(name, func(c *checker.Checker) (bool, string, error) {
		rl, err := c.GetReplies(src, dst, c.Pattern())
		if err != nil {
			return false, "", err
		}
		n := checker.CountFaultedAt(rl, ei)
		return n > 0, fmt.Sprintf("%d of %d replies faulted at %s", n, len(rl), ei), nil
	})
}
