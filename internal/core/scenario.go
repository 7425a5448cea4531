// Package core implements Gremlin's recipe layer: high-level failure
// scenarios (Overload, Crash, Disconnect, Hang, Partition, FakeSuccess, …)
// that the Recipe Translator decomposes into primitive fault-injection
// rules over the logical application graph, plus the Runner that executes a
// recipe end to end — install rules (Failure Orchestrator), inject load,
// evaluate assertions (Assertion Checker), revert.
//
// The paper expresses recipes in Python; this package expresses the same
// scenarios, assertions, and conditional chaining as plain Go values and
// control flow (§4.2 "the operator can take advantage of Python and its
// constructs to create complex test scenarios" — here, of Go's).
package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"gremlin/internal/graph"
	"gremlin/internal/rules"
	"gremlin/internal/trace"
)

// DefaultPattern confines a recipe's faults and checks to synthetic test
// traffic when the recipe sets no pattern of its own.
const DefaultPattern = trace.TestIDPrefix + "*"

// Scenario is a high-level failure scenario. Translate decomposes it into
// primitive rules using the application graph (paper §4.2: "Overload is
// internally decomposed into Abort and Delay actions, parameterized and
// passed to the Failure Orchestrator").
type Scenario interface {
	// Describe names the scenario for reports.
	Describe() string

	// Translate produces the fault-injection rules implementing the
	// scenario. ids mints unique rule IDs; pattern is the recipe's
	// request-ID pattern for rules that do not set their own.
	Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error)
}

// IDGen mints unique rule IDs within one recipe translation.
type IDGen struct {
	prefix string
	n      int
}

// NewIDGen creates an ID generator with the given prefix.
func NewIDGen(prefix string) *IDGen {
	if prefix == "" {
		prefix = "rule"
	}
	return &IDGen{prefix: prefix}
}

// Next returns the next unique ID, tagged with a short hint.
func (g *IDGen) Next(hint string) string {
	g.n++
	return g.prefix + "-" + hint + "-" + strconv.Itoa(g.n)
}

// Abort is the raw Abort primitive (Table 2): abort matching messages from
// Src to Dst and return ErrorCode to Src (or sever the connection when
// ErrorCode is rules.AbortSeverConnection).
type Abort struct {
	Src, Dst    string
	ErrorCode   int
	Pattern     string // overrides the recipe pattern when non-empty
	Probability float64
	On          rules.MessageType
	// CallPath, when non-empty, pins the fault to one execution index
	// (canonical X-Gremlin-EI form) instead of every call on the edge.
	CallPath string
}

// Describe implements Scenario.
func (a Abort) Describe() string {
	return fmt.Sprintf("Abort(%s->%s, code=%d, p=%v)", a.Src, a.Dst, a.ErrorCode, a.Probability)
}

// Translate implements Scenario.
func (a Abort) Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error) {
	if err := checkEdge(g, a.Src, a.Dst); err != nil {
		return nil, err
	}
	return []rules.Rule{{
		ID:          ids.Next("abort"),
		Src:         a.Src,
		Dst:         a.Dst,
		On:          a.On,
		Action:      rules.ActionAbort,
		Pattern:     pick(a.Pattern, pattern),
		CallPath:    a.CallPath,
		Probability: a.Probability,
		ErrorCode:   a.ErrorCode,
	}}, nil
}

// Delay is the raw Delay primitive (Table 2): delay matching messages from
// Src to Dst by Interval.
type Delay struct {
	Src, Dst    string
	Interval    time.Duration
	Pattern     string
	Probability float64
	On          rules.MessageType
	// CallPath, when non-empty, pins the fault to one execution index
	// (canonical X-Gremlin-EI form) instead of every call on the edge.
	CallPath string
}

// Describe implements Scenario.
func (d Delay) Describe() string {
	return fmt.Sprintf("Delay(%s->%s, %s, p=%v)", d.Src, d.Dst, d.Interval, d.Probability)
}

// Translate implements Scenario.
func (d Delay) Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error) {
	if err := checkEdge(g, d.Src, d.Dst); err != nil {
		return nil, err
	}
	return []rules.Rule{{
		ID:          ids.Next("delay"),
		Src:         d.Src,
		Dst:         d.Dst,
		On:          d.On,
		Action:      rules.ActionDelay,
		Pattern:     pick(d.Pattern, pattern),
		CallPath:    d.CallPath,
		Probability: d.Probability,
		DelayMillis: d.Interval.Milliseconds(),
	}}, nil
}

// Modify is the raw Modify primitive (Table 2): rewrite matched bytes in
// messages from Src to Dst.
type Modify struct {
	Src, Dst        string
	Search, Replace string
	Pattern         string
	Probability     float64
	On              rules.MessageType
}

// Describe implements Scenario.
func (m Modify) Describe() string {
	return fmt.Sprintf("Modify(%s->%s, %q->%q)", m.Src, m.Dst, m.Search, m.Replace)
}

// Translate implements Scenario.
func (m Modify) Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error) {
	if err := checkEdge(g, m.Src, m.Dst); err != nil {
		return nil, err
	}
	return []rules.Rule{{
		ID:           ids.Next("modify"),
		Src:          m.Src,
		Dst:          m.Dst,
		On:           m.On,
		Action:       rules.ActionModify,
		Pattern:      pick(m.Pattern, pattern),
		Probability:  m.Probability,
		SearchBytes:  m.Search,
		ReplaceBytes: m.Replace,
	}}, nil
}

// Disconnect emulates a network disconnection between two specific
// services: every matching request from From to To is aborted with an HTTP
// error (paper §5's disconnect primitive).
type Disconnect struct {
	From, To string
	// ErrorCode defaults to 503.
	ErrorCode int
}

// Describe implements Scenario.
func (d Disconnect) Describe() string { return fmt.Sprintf("Disconnect(%s, %s)", d.From, d.To) }

// Translate implements Scenario.
func (d Disconnect) Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error) {
	code := d.ErrorCode
	if code == 0 {
		code = 503
	}
	return Abort{Src: d.From, Dst: d.To, ErrorCode: code, Probability: 1}.Translate(g, ids, pattern)
}

// Crash emulates an abrupt crash of a service: requests from every
// dependent are aborted with a severed TCP connection and no
// application-level error (paper §5: "The Error=-1 instructs the agents to
// terminate the connection at the TCP level ... thus emulating an abrupt
// crash"). Probability below 1 yields transient crashes.
type Crash struct {
	Service     string
	Probability float64
}

// Describe implements Scenario.
func (c Crash) Describe() string { return fmt.Sprintf("Crash(%s)", c.Service) }

// Translate implements Scenario.
func (c Crash) Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error) {
	dependents, err := g.Dependents(c.Service)
	if err != nil {
		return nil, err
	}
	if len(dependents) == 0 {
		return nil, fmt.Errorf("core: Crash(%s): service has no dependents to observe the crash", c.Service)
	}
	out := make([]rules.Rule, 0, len(dependents))
	for _, dep := range dependents {
		// A crashed service refuses TCP connections too: dependents that
		// reach it over a raw stream edge get the L4 connect-refuse
		// equivalent instead of an HTTP abort.
		if g.Protocol(dep, c.Service) == graph.ProtocolTCP {
			out = append(out, rules.Rule{
				ID:          ids.Next("crash"),
				Src:         dep,
				Dst:         c.Service,
				Layer:       rules.LayerL4,
				Action:      rules.ActionAbort,
				Pattern:     L4Pattern,
				Probability: c.Probability,
			})
			continue
		}
		out = append(out, rules.Rule{
			ID:          ids.Next("crash"),
			Src:         dep,
			Dst:         c.Service,
			Action:      rules.ActionAbort,
			Pattern:     pattern,
			Probability: c.Probability,
			ErrorCode:   rules.AbortSeverConnection,
		})
	}
	return out, nil
}

// Hang emulates a hung service: requests from every dependent are delayed
// by a very long interval (paper §5 uses one hour).
type Hang struct {
	Service string
	// Interval defaults to one hour.
	Interval time.Duration
}

// Describe implements Scenario.
func (h Hang) Describe() string { return fmt.Sprintf("Hang(%s)", h.Service) }

// Translate implements Scenario.
func (h Hang) Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error) {
	interval := h.Interval
	if interval <= 0 {
		interval = time.Hour
	}
	dependents, err := g.Dependents(h.Service)
	if err != nil {
		return nil, err
	}
	if len(dependents) == 0 {
		return nil, fmt.Errorf("core: Hang(%s): service has no dependents to observe the hang", h.Service)
	}
	out := make([]rules.Rule, 0, len(dependents))
	for _, dep := range dependents {
		// A hung service goes silent on the wire: stream dependents see a
		// half-open connection (socket up, replies never arrive), the L4
		// analogue of an unbounded delay.
		if g.Protocol(dep, h.Service) == graph.ProtocolTCP {
			out = append(out, rules.Rule{
				ID:      ids.Next("hang"),
				Src:     dep,
				Dst:     h.Service,
				On:      rules.OnResponse,
				Layer:   rules.LayerL4,
				Action:  rules.ActionHalfOpen,
				Pattern: L4Pattern,
			})
			continue
		}
		out = append(out, rules.Rule{
			ID:          ids.Next("hang"),
			Src:         dep,
			Dst:         h.Service,
			Action:      rules.ActionDelay,
			Pattern:     pattern,
			DelayMillis: interval.Milliseconds(),
		})
	}
	return out, nil
}

// Overload emulates an overloaded service: a fraction of requests from
// every dependent is aborted with an error code and the rest are delayed
// (paper §5: 25% aborted with 503, 75% delayed by 100 ms).
type Overload struct {
	Service string
	// AbortFraction defaults to 0.25.
	AbortFraction float64
	// Delay defaults to 100 ms.
	Delay time.Duration
	// ErrorCode defaults to 503.
	ErrorCode int
}

// Describe implements Scenario.
func (o Overload) Describe() string { return fmt.Sprintf("Overload(%s)", o.Service) }

// Translate implements Scenario.
func (o Overload) Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error) {
	abortFrac := o.AbortFraction
	if abortFrac <= 0 {
		abortFrac = 0.25
	}
	if abortFrac > 1 {
		return nil, fmt.Errorf("core: Overload(%s): abort fraction %v > 1", o.Service, abortFrac)
	}
	delay := o.Delay
	if delay <= 0 {
		delay = 100 * time.Millisecond
	}
	code := o.ErrorCode
	if code == 0 {
		code = 503
	}
	dependents, err := g.Dependents(o.Service)
	if err != nil {
		return nil, err
	}
	if len(dependents) == 0 {
		return nil, fmt.Errorf("core: Overload(%s): service has no dependents to observe the overload", o.Service)
	}
	var out []rules.Rule
	for _, dep := range dependents {
		// Stream dependents observe an overloaded upstream as refused
		// connections (the full accept queue) plus slow connection
		// establishment for the connections that do get through.
		if g.Protocol(dep, o.Service) == graph.ProtocolTCP {
			out = append(out,
				rules.Rule{
					ID:          ids.Next("overload-refuse"),
					Src:         dep,
					Dst:         o.Service,
					Layer:       rules.LayerL4,
					Action:      rules.ActionAbort,
					Pattern:     L4Pattern,
					Probability: abortFrac,
				},
				rules.Rule{
					ID:          ids.Next("overload-cdelay"),
					Src:         dep,
					Dst:         o.Service,
					Layer:       rules.LayerL4,
					Action:      rules.ActionDelay,
					Pattern:     L4Pattern,
					Probability: 1,
					DelayMillis: delay.Milliseconds(),
				},
			)
			continue
		}
		out = append(out,
			rules.Rule{
				ID:          ids.Next("overload-abort"),
				Src:         dep,
				Dst:         o.Service,
				Action:      rules.ActionAbort,
				Pattern:     pattern,
				Probability: abortFrac,
				ErrorCode:   code,
			},
			// The delay rule fires for every request the abort spared
			// (matcher falls through in install order), recreating the
			// paper's 25/75 split.
			rules.Rule{
				ID:          ids.Next("overload-delay"),
				Src:         dep,
				Dst:         o.Service,
				Action:      rules.ActionDelay,
				Pattern:     pattern,
				Probability: 1,
				DelayMillis: delay.Milliseconds(),
			},
		)
	}
	return out, nil
}

// FakeSuccess corrupts the named service's successful responses: matched
// bytes in response bodies delivered to every dependent are replaced,
// while the 200 status is preserved — triggering input-validation paths in
// callers (paper §5).
type FakeSuccess struct {
	Service         string
	Search, Replace string
}

// Describe implements Scenario.
func (f FakeSuccess) Describe() string {
	return fmt.Sprintf("FakeSuccess(%s, %q->%q)", f.Service, f.Search, f.Replace)
}

// Translate implements Scenario.
func (f FakeSuccess) Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error) {
	dependents, err := g.Dependents(f.Service)
	if err != nil {
		return nil, err
	}
	if len(dependents) == 0 {
		return nil, fmt.Errorf("core: FakeSuccess(%s): service has no dependents", f.Service)
	}
	out := make([]rules.Rule, 0, len(dependents))
	for _, dep := range dependents {
		// Byte-rewriting is an HTTP-plane primitive; there is no L4
		// equivalent of a well-formed-but-wrong reply, so stream
		// dependents are skipped.
		if g.Protocol(dep, f.Service) == graph.ProtocolTCP {
			continue
		}
		out = append(out, rules.Rule{
			ID:           ids.Next("fake"),
			Src:          dep,
			Dst:          f.Service,
			On:           rules.OnResponse,
			Action:       rules.ActionModify,
			Pattern:      pattern,
			SearchBytes:  f.Search,
			ReplaceBytes: f.Replace,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: FakeSuccess(%s): all dependents reach the service over tcp edges, which cannot carry a modify", f.Service)
	}
	return out, nil
}

// Partition emulates a network partition between two groups of services:
// every edge crossing the cut is aborted with a TCP-level reset in both
// directions (paper §5: "a network partition is implemented using a series
// of Abort operations with a TCP-level reset along the cut of an
// application graph").
type Partition struct {
	SideA, SideB []string
}

// Describe implements Scenario.
func (p Partition) Describe() string {
	return fmt.Sprintf("Partition(%v | %v)", p.SideA, p.SideB)
}

// Translate implements Scenario.
func (p Partition) Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error) {
	cut, err := g.Cut(p.SideA, p.SideB)
	if err != nil {
		return nil, err
	}
	if len(cut) == 0 {
		return nil, errors.New("core: Partition: no edges cross the cut")
	}
	out := make([]rules.Rule, 0, len(cut))
	for _, e := range cut {
		// Stream edges crossing the cut are partitioned at the L4 plane:
		// connections are refused at accept, the raw-TCP view of an
		// unreachable peer.
		if g.Protocol(e.Src, e.Dst) == graph.ProtocolTCP {
			out = append(out, rules.Rule{
				ID:          ids.Next("partition"),
				Src:         e.Src,
				Dst:         e.Dst,
				Layer:       rules.LayerL4,
				Action:      rules.ActionAbort,
				Pattern:     L4Pattern,
				Probability: 1,
			})
			continue
		}
		out = append(out, rules.Rule{
			ID:          ids.Next("partition"),
			Src:         e.Src,
			Dst:         e.Dst,
			Action:      rules.ActionAbort,
			Pattern:     pattern,
			Probability: 1,
			ErrorCode:   rules.AbortSeverConnection,
		})
	}
	return out, nil
}

func checkEdge(g *graph.Graph, src, dst string) error {
	if !g.Has(src) {
		return fmt.Errorf("%w: %q", graph.ErrUnknownService, src)
	}
	if !g.Has(dst) {
		return fmt.Errorf("%w: %q", graph.ErrUnknownService, dst)
	}
	if !g.HasEdge(src, dst) {
		return fmt.Errorf("core: no edge %s->%s in the application graph", src, dst)
	}
	return nil
}

func pick(specific, fallback string) string {
	if specific != "" {
		return specific
	}
	return fallback
}

// DegradeNetwork emulates a uniformly degraded network: every edge of the
// application graph is delayed by Interval (with optional per-message
// Probability). This is the "outage that impacts all services" used by the
// paper's orchestration benchmark (Figure 7) and a common staging step
// before more surgical faults.
type DegradeNetwork struct {
	// Interval is the added latency per hop.
	Interval time.Duration
	// Probability in (0,1] of delaying each message; 0 means 1.
	Probability float64
}

// Describe implements Scenario.
func (d DegradeNetwork) Describe() string {
	return fmt.Sprintf("DegradeNetwork(%s, p=%v)", d.Interval, d.Probability)
}

// Translate implements Scenario.
func (d DegradeNetwork) Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error) {
	if d.Interval <= 0 {
		return nil, errors.New("core: DegradeNetwork needs a positive interval")
	}
	edges := g.Edges()
	if len(edges) == 0 {
		return nil, errors.New("core: DegradeNetwork: the application graph has no edges")
	}
	out := make([]rules.Rule, 0, len(edges))
	for _, e := range edges {
		// Stream edges take the degradation as per-chunk jitter — every
		// relayed read is held by the interval, the L4 view of a slow
		// network path.
		if g.Protocol(e.Src, e.Dst) == graph.ProtocolTCP {
			out = append(out, rules.Rule{
				ID:          ids.Next("netdelay"),
				Src:         e.Src,
				Dst:         e.Dst,
				Layer:       rules.LayerL4,
				Action:      rules.ActionJitter,
				Pattern:     L4Pattern,
				Probability: d.Probability,
				DelayMillis: d.Interval.Milliseconds(),
			})
			continue
		}
		out = append(out, rules.Rule{
			ID:          ids.Next("netdelay"),
			Src:         e.Src,
			Dst:         e.Dst,
			Action:      rules.ActionDelay,
			Pattern:     pattern,
			Probability: d.Probability,
			DelayMillis: d.Interval.Milliseconds(),
		})
	}
	return out, nil
}
