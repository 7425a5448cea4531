package core

import (
	"fmt"
	"sort"
	"time"

	"gremlin/internal/graph"
)

// GenerateOptions tunes automatic recipe generation.
type GenerateOptions struct {
	// MaxRetries is the retry budget asserted on every caller edge
	// (default 5, the paper's running example).
	MaxRetries int

	// MaxLatency is the response-time bound asserted on every dependent
	// during an overload (default 2 s).
	MaxLatency time.Duration

	// BreakerThreshold is the failure count after which a circuit breaker
	// is expected to open (default 5).
	BreakerThreshold int

	// BreakerQuiet is the expected open-phase duration (default 10 s).
	BreakerQuiet time.Duration

	// SkipServices names services to exclude as fault targets — typically
	// the synthetic edge caller and pure entry points.
	SkipServices []string
}

// WithDefaults returns o with zero-valued fields replaced by their
// defaults — the exact options GenerateRecipes will run with. Campaign
// enumeration resolves them once so every template shares one set of
// thresholds.
func (o GenerateOptions) WithDefaults() GenerateOptions { return o.withDefaults() }

func (o GenerateOptions) withDefaults() GenerateOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 5
	}
	if o.MaxLatency <= 0 {
		o.MaxLatency = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerQuiet <= 0 {
		o.BreakerQuiet = 10 * time.Second
	}
	return o
}

// GenerateRecipes proposes a systematic test plan from the application
// graph alone — the automation the paper sketches as future work (§9:
// "given semantic annotations to the application graph, it might be
// possible to automatically identify microservices and resiliency patterns
// in need of testing, then construct and run appropriate recipes").
//
// For every service that has dependents, two recipes are generated:
//
//   - an Overload of the service, asserting that each dependent bounds its
//     retries and keeps answering its own upstreams within MaxLatency; and
//   - a Crash of the service, asserting that each dependent trips a
//     circuit breaker.
//
// When the graph carries protocol metadata (*graph.Graph does), tcp edges
// participate too: dependents reaching a target over a stream edge get the
// stream-fault attribution check instead of HTTP-plane assertions, and
// every tcp edge additionally gets a bandwidth-throttle recipe
// ("auto-l4-throttle-<src>-<dst>") and a mid-stream sever recipe
// ("auto-l4-sever-<src>-<dst>").
//
// Recipes are ordered least-intrusive first (overloads and throttles, then
// crashes and severs), so RunChain stops before staging crashes into an
// application that already failed the gentler test.
func GenerateRecipes(g GraphView, opts GenerateOptions) ([]Recipe, error) {
	o := opts.withDefaults()
	targets, err := FaultTargets(g, o.SkipServices)
	if err != nil {
		return nil, fmt.Errorf("core: generate recipes: %w", err)
	}
	skip := skipSet(o.SkipServices)

	var recipes []Recipe
	for _, t := range targets {
		overload := Recipe{
			Name:      "auto-overload-" + t.Service,
			Scenarios: []Scenario{Overload{Service: t.Service}},
		}
		for _, d := range t.Dependents {
			// Stream dependents carry no HTTP records to assert retry or
			// timeout patterns over; assert instead that the L4 faults the
			// scenario stages on their edge were actually actuated.
			if edgeProtocol(g, d, t.Service) == graph.ProtocolTCP {
				overload.Checks = append(overload.Checks,
					ExpectStreamFaults(d, t.Service, overload.Name, 1))
				continue
			}
			overload.Checks = append(overload.Checks,
				ExpectBoundedRetries(d, t.Service, o.MaxRetries),
				ExpectTimeouts(d, o.MaxLatency),
			)
		}
		recipes = append(recipes, overload)
	}
	for _, e := range tcpEdges(g, skip) {
		name := fmt.Sprintf("auto-l4-throttle-%s-%s", e.Src, e.Dst)
		recipes = append(recipes, Recipe{
			Name: name,
			Scenarios: []Scenario{StreamThrottle{
				Src: e.Src, Dst: e.Dst, BytesPerSec: DefaultThrottleRate, Probability: 1,
			}},
			Checks: []Check{ExpectStreamFaults(e.Src, e.Dst, name, 1)},
		})
	}
	for _, t := range targets {
		crash := Recipe{
			Name:      "auto-crash-" + t.Service,
			Scenarios: []Scenario{Crash{Service: t.Service}},
		}
		for _, d := range t.Dependents {
			if edgeProtocol(g, d, t.Service) == graph.ProtocolTCP {
				crash.Checks = append(crash.Checks,
					ExpectStreamFaults(d, t.Service, crash.Name, 1))
				continue
			}
			crash.Checks = append(crash.Checks,
				ExpectCircuitBreaker(d, t.Service, o.BreakerThreshold, o.BreakerQuiet))
		}
		recipes = append(recipes, crash)
	}
	for _, e := range tcpEdges(g, skip) {
		name := fmt.Sprintf("auto-l4-sever-%s-%s", e.Src, e.Dst)
		recipes = append(recipes, Recipe{
			Name: name,
			Scenarios: []Scenario{StreamSever{
				Src: e.Src, Dst: e.Dst, Probability: 1,
			}},
			Checks: []Check{ExpectStreamFaults(e.Src, e.Dst, name, 1)},
		})
	}
	return recipes, nil
}

// FaultTarget is a service worth failing and the unskipped dependents that
// would observe its failure.
type FaultTarget struct {
	Service    string
	Dependents []string
}

// FaultTargets returns the services worth failing in g: every service not
// in skip with at least one dependent not in skip (someone must be there
// to observe the failure), sorted by name, each with those dependents in
// graph order. Recipe generation, chaos draws and campaign templates all
// target these services.
func FaultTargets(g GraphView, skip []string) ([]FaultTarget, error) {
	skipped := skipSet(skip)
	var out []FaultTarget
	for _, svc := range g.Services() {
		if skipped[svc] {
			continue
		}
		deps, err := g.Dependents(svc)
		if err != nil {
			return nil, err
		}
		t := FaultTarget{Service: svc}
		for _, d := range deps {
			if !skipped[d] {
				t.Dependents = append(t.Dependents, d)
			}
		}
		if len(t.Dependents) > 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Service < out[j].Service })
	return out, nil
}

func skipSet(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, s := range names {
		m[s] = true
	}
	return m
}

// DefaultThrottleRate is the bandwidth generated throttle recipes pace tcp
// edges to: slow enough that a bulk transfer visibly stretches, fast
// enough that campaign load drivers finish within their deadlines.
const DefaultThrottleRate int64 = 64 * 1024

// GraphView is the read-only slice of the application graph that recipe
// generation needs. *graph.Graph implements it.
type GraphView interface {
	Services() []string
	Dependents(name string) ([]string, error)
}

// protocolView is the optional extension of GraphView carrying per-edge
// protocol metadata (*graph.Graph implements it). Views without it are
// treated as all-HTTP graphs.
type protocolView interface {
	Protocol(src, dst string) string
	TCPEdges() []graph.Edge
}

// edgeProtocol reports the protocol of src→dst under g, defaulting to
// HTTP when the view carries no protocol metadata.
func edgeProtocol(g GraphView, src, dst string) string {
	if pv, ok := g.(protocolView); ok {
		return pv.Protocol(src, dst)
	}
	return graph.ProtocolHTTP
}

// tcpEdges returns g's tcp edges whose endpoints are both unskipped, or
// nil for views without protocol metadata.
func tcpEdges(g GraphView, skip map[string]bool) []graph.Edge {
	pv, ok := g.(protocolView)
	if !ok {
		return nil
	}
	var out []graph.Edge
	for _, e := range pv.TCPEdges() {
		if !skip[e.Src] && !skip[e.Dst] {
			out = append(out, e)
		}
	}
	return out
}
