package campaign

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/graph"
	"gremlin/internal/rules"
)

// Unit is one point of the enumerated fault space: a scenario template
// instantiated for a concrete target with concrete parameters. Its Recipe
// carries no request-ID pattern: each run sets its own namespace on a copy,
// which confines both the faults and the checks to that run's traffic.
type Unit struct {
	// Key identifies the unit stably across campaign sessions (it is the
	// journal's primary key for resume).
	Key string

	// Kind names the scenario template ("overload", "crash", "hang",
	// "partition", "sever", "delay", "stream", "chaos").
	Kind string

	// Service is the conceptual fault target (the callee, for edge units).
	Service string

	// Target describes the fault location ("svc" or "src->dst").
	Target string

	// Edges are the graph edges the unit faults, from a canonical
	// translation at enumeration time.
	Edges []graph.Edge

	// Signature is the unit's coverage signature; units sharing one inject
	// indistinguishable faults.
	Signature string

	// EIs are the canonical execution indexes the unit's faults are pinned
	// to, when the unit targets specific injection points rather than whole
	// edges (explore-plane units). Journalled, so a resumed exploration
	// recovers its point coverage from completed entries.
	EIs []string

	// Recipe is the unit's test: scenarios and checks, pattern unset.
	Recipe core.Recipe
}

// TemplateNames are the deterministic templates Enumerate expands, in
// the order it expands them. An EnumerateOptions with no Templates
// selects all of them; Enumerate refuses any other name.
var TemplateNames = []string{"overload", "crash", "hang", "partition", "sever", "delay", "stream"}

// EnumerateOptions tunes fault-space enumeration.
type EnumerateOptions struct {
	// Generate seeds the overload and crash templates (scenarios and
	// assertions) via core.GenerateRecipes. Its SkipServices list is
	// honored by every template, and its thresholds parameterize the
	// timeout assertions attached to edge units.
	Generate core.GenerateOptions

	// Templates selects which deterministic templates to enumerate; nil
	// selects all of TemplateNames ("stream" is the L4 grid over
	// protocol:tcp edges).
	Templates []string

	// HangInterval is how long the hang template stalls each request
	// (default 2 s — long enough to trip real timeouts, short enough that
	// a campaign over services without them still terminates).
	HangInterval time.Duration

	// EdgeDelays is the parameter grid for the delay template, one unit
	// per edge per value (default 100 ms, the paper's overload delay).
	EdgeDelays []time.Duration

	// Chaos appends this many randomized scenarios drawn from
	// core.RandomScenario — the Chaos Monkey baseline explored alongside
	// the systematic grid.
	Chaos int

	// ChaosSeed seeds the chaos draws, making them reproducible.
	ChaosSeed int64

	// ChaosMaxDelay bounds randomly drawn delays (default 250 ms).
	ChaosMaxDelay time.Duration

	// L4Rates is the bandwidth grid for the stream template's throttle
	// units, one unit per tcp edge per rate (default
	// core.DefaultThrottleRate).
	L4Rates []int64
}

func (o EnumerateOptions) withDefaults() EnumerateOptions {
	if len(o.Templates) == 0 {
		o.Templates = TemplateNames
	}
	if o.HangInterval <= 0 {
		o.HangInterval = 2 * time.Second
	}
	if len(o.EdgeDelays) == 0 {
		o.EdgeDelays = []time.Duration{100 * time.Millisecond}
	}
	if o.ChaosMaxDelay <= 0 {
		o.ChaosMaxDelay = 250 * time.Millisecond
	}
	if len(o.L4Rates) == 0 {
		o.L4Rates = []int64{core.DefaultThrottleRate}
	}
	return o
}

// Enumerate expands the application graph into a deterministic, ordered
// list of campaign units: scenario templates × targets × parameter grids.
// Assertion-rich templates come first (overload and crash carry the full
// resilience-pattern checks from core.GenerateRecipes), so when two units
// share a coverage signature the scheduler keeps the richer one and prunes
// the other.
func Enumerate(g *graph.Graph, opts EnumerateOptions) ([]Unit, error) {
	o := opts.withDefaults()
	gen := o.Generate.WithDefaults()
	skip := make(map[string]bool, len(gen.SkipServices))
	for _, s := range gen.SkipServices {
		skip[s] = true
	}
	want := make(map[string]bool, len(o.Templates))
	for _, t := range o.Templates {
		if !slices.Contains(TemplateNames, t) {
			return nil, fmt.Errorf("campaign: enumerate: unknown template %q (valid: %s)", t, strings.Join(TemplateNames, ", "))
		}
		want[t] = true
	}
	enabled := func(t string) bool { return want[t] }

	var units []Unit

	// Overload and crash ride on core.GenerateRecipes, inheriting its
	// assertions (bounded retries + timeouts, then circuit breakers).
	if enabled("overload") || enabled("crash") {
		recipes, err := core.GenerateRecipes(g, gen)
		if err != nil {
			return nil, fmt.Errorf("campaign: enumerate: %w", err)
		}
		for _, r := range recipes {
			// GenerateRecipes also emits per-tcp-edge stream recipes; the
			// dedicated stream template below enumerates that grid with
			// its own parameters, so only the service-scoped templates
			// ride along here.
			var kind, svc string
			switch sc := r.Scenarios[0].(type) {
			case core.Overload:
				kind, svc = "overload", sc.Service
			case core.Crash:
				kind, svc = "crash", sc.Service
			default:
				continue
			}
			if enabled(kind) {
				units = append(units, Unit{Key: r.Name, Kind: kind, Service: svc, Target: svc, Recipe: r})
			}
		}
	}

	if enabled("hang") {
		targets, err := core.FaultTargets(g, gen.SkipServices)
		if err != nil {
			return nil, fmt.Errorf("campaign: enumerate: %w", err)
		}
		for _, t := range targets {
			rec := core.Recipe{
				Name:      "hang-" + t.Service,
				Scenarios: []core.Scenario{core.Hang{Service: t.Service, Interval: o.HangInterval}},
			}
			for _, d := range t.Dependents {
				rec.Checks = append(rec.Checks, core.ExpectTimeouts(d, gen.MaxLatency))
			}
			units = append(units, Unit{Key: rec.Name, Kind: "hang", Service: t.Service, Target: t.Service, Recipe: rec})
		}
	}

	// Partition each root-adjacent service away from the entry side — the
	// paper's cut-based partition, on the cuts this graph actually has.
	if enabled("partition") {
		roots := g.Roots()
		rootSet := make(map[string]bool, len(roots))
		for _, r := range roots {
			rootSet[r] = true
		}
		for _, svc := range g.Services() {
			if rootSet[svc] || skip[svc] {
				continue
			}
			if !crossesRoots(g, roots, svc) {
				continue
			}
			cut, err := g.Cut(roots, []string{svc})
			if err != nil {
				return nil, fmt.Errorf("campaign: enumerate: %w", err)
			}
			rec := core.Recipe{
				Name:      "partition-" + svc,
				Scenarios: []core.Scenario{core.Partition{SideA: roots, SideB: []string{svc}}},
			}
			for _, e := range cut {
				rec.Checks = append(rec.Checks, expectFaultObserved(e.Src, e.Dst))
			}
			units = append(units, Unit{Key: rec.Name, Kind: "partition", Service: svc, Target: svc, Recipe: rec})
		}
	}

	// Per-edge grid: sever the connection, then delay it at each grid
	// value. These carry a generic fault-delivery assertion (plus a
	// timeout bound on the caller when it is a real service), so every
	// graph edge — including ones GenerateRecipes cannot target, like the
	// synthetic entry edge — contributes to the scorecard.
	edgeUnit := func(key, kind string, e graph.Edge, sc core.Scenario) Unit {
		rec := core.Recipe{
			Name:      key,
			Scenarios: []core.Scenario{sc},
			Checks:    []core.Check{expectFaultObserved(e.Src, e.Dst)},
		}
		if !skip[e.Src] {
			rec.Checks = append(rec.Checks, core.ExpectTimeouts(e.Src, gen.MaxLatency))
		}
		return Unit{Key: key, Kind: kind, Service: e.Dst, Target: e.Src + "->" + e.Dst, Recipe: rec}
	}
	if enabled("sever") {
		for _, e := range g.Edges() {
			// tcp edges carry no HTTP plane to disconnect; the stream
			// template faults them at L4 instead.
			if skip[e.Dst] || g.Protocol(e.Src, e.Dst) == graph.ProtocolTCP {
				continue
			}
			units = append(units, edgeUnit(fmt.Sprintf("sever-%s-%s", e.Src, e.Dst), "sever", e,
				core.Disconnect{From: e.Src, To: e.Dst, ErrorCode: rules.AbortSeverConnection}))
		}
	}
	if enabled("delay") {
		for _, e := range g.Edges() {
			if skip[e.Dst] || g.Protocol(e.Src, e.Dst) == graph.ProtocolTCP {
				continue
			}
			for _, d := range o.EdgeDelays {
				units = append(units, edgeUnit(fmt.Sprintf("delay-%s-%s-%s", e.Src, e.Dst, d), "delay", e,
					core.Delay{Src: e.Src, Dst: e.Dst, Interval: d, Probability: 1}))
			}
		}
	}

	// Stream-fault grid over protocol:tcp edges: sever mid-stream,
	// half-open, connect-refuse, and a bandwidth throttle per grid rate.
	// L4 connections carry relay-minted IDs rather than per-run request-ID
	// namespaces, so these units assert delivery by rule-ID prefix — each
	// recipe is named by its unit key, Translate mints rule IDs under that
	// prefix, and the conn-close records log the fired rule's ID.
	if enabled("stream") {
		for _, e := range g.TCPEdges() {
			e := e
			if skip[e.Dst] {
				continue
			}
			streamUnit := func(key string, sc core.Scenario) Unit {
				return Unit{
					Key:     key,
					Kind:    "stream",
					Service: e.Dst,
					Target:  e.Src + "->" + e.Dst,
					Recipe: core.Recipe{
						Name:      key,
						Scenarios: []core.Scenario{sc},
						Checks:    []core.Check{core.ExpectStreamFaults(e.Src, e.Dst, key, 1)},
					},
				}
			}
			units = append(units,
				streamUnit(fmt.Sprintf("l4-sever-%s-%s", e.Src, e.Dst),
					core.StreamSever{Src: e.Src, Dst: e.Dst, Probability: 1}),
				streamUnit(fmt.Sprintf("l4-halfopen-%s-%s", e.Src, e.Dst),
					core.StreamHalfOpen{Src: e.Src, Dst: e.Dst, On: rules.OnResponse, Probability: 1}),
				streamUnit(fmt.Sprintf("l4-refuse-%s-%s", e.Src, e.Dst),
					core.ConnectRefuse{Src: e.Src, Dst: e.Dst, Probability: 1}),
			)
			for _, rate := range o.L4Rates {
				units = append(units,
					streamUnit(fmt.Sprintf("l4-throttle-%s-%s-%d", e.Src, e.Dst, rate),
						core.StreamThrottle{Src: e.Src, Dst: e.Dst, BytesPerSec: rate, Probability: 1}))
			}
		}
	}

	// Randomized draws, reproducible from the seed. Duplicates of grid
	// units (or of each other) are pruned at schedule time by signature.
	if o.Chaos > 0 {
		rng := rand.New(rand.NewSource(o.ChaosSeed))
		copts := core.ChaosOptions{SkipServices: gen.SkipServices, MaxDelay: o.ChaosMaxDelay}
		for i := 0; i < o.Chaos; i++ {
			sc, err := core.RandomScenario(g, rng, copts)
			if err != nil {
				return nil, fmt.Errorf("campaign: enumerate chaos: %w", err)
			}
			key := fmt.Sprintf("chaos-%d", i)
			units = append(units, Unit{
				Key:    key,
				Kind:   "chaos",
				Target: sc.Describe(),
				Recipe: core.Recipe{
					Name:      key,
					Scenarios: []core.Scenario{sc},
					Checks:    []core.Check{expectFaultObserved("", "")},
				},
			})
		}
	}

	// Canonical translation fills in what each unit actually faults: its
	// coverage signature and edge set.
	if err := Finalize(g, units); err != nil {
		return nil, err
	}
	return units, nil
}

// Finalize fills each unit's coverage signature and edge set from a
// canonical translation against g. Enumerate calls it on the static grid;
// planes that synthesize their own units (internal/explore) call it before
// handing them to Run, so signature-based pruning treats them uniformly.
func Finalize(g *graph.Graph, units []Unit) error {
	for i := range units {
		rec := units[i].Recipe
		rec.Pattern = signaturePattern
		rs, err := rec.Translate(g)
		if err != nil {
			return fmt.Errorf("campaign: finalize %s: %w", units[i].Key, err)
		}
		units[i].Signature = signatureOf(rs)
		units[i].Edges = edgesOf(rs)
		if units[i].Service == "" && len(units[i].Edges) > 0 {
			units[i].Service = units[i].Edges[0].Dst
		}
	}
	return nil
}

// crossesRoots reports whether svc shares an edge with any root (the
// Partition scenario rejects empty cuts).
func crossesRoots(g *graph.Graph, roots []string, svc string) bool {
	for _, r := range roots {
		if g.HasEdge(r, svc) || g.HasEdge(svc, r) {
			return true
		}
	}
	return false
}

// expectFaultObserved asserts that at least one reply on src->dst carried
// an injected fault — the minimal evidence that the unit's outage actually
// reached the data plane under its run's pattern. Empty src and dst take
// every edge, for units whose fault location is drawn at random.
func expectFaultObserved(src, dst string) core.Check {
	name := fmt.Sprintf("FaultObserved(%s->%s)", src, dst)
	if src == "" && dst == "" {
		name = "FaultObserved(any)"
	}
	return core.ExpectCustom(name, func(c *checker.Checker) (bool, string, error) {
		rl, err := c.GetReplies(src, dst, c.Pattern())
		if err != nil {
			return false, "", err
		}
		n := checker.CountFaulted(rl)
		return n > 0, fmt.Sprintf("%d of %d replies faulted", n, len(rl)), nil
	})
}
