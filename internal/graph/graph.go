// Package graph models the logical application graph: a directed graph
// whose vertices are microservices and whose edges are caller→callee
// relationships. The operator provides this graph to the Recipe Translator,
// which uses it to decompose high-level failure scenarios into per-edge
// fault-injection rules (e.g. Crash(S) aborts requests from every dependent
// of S).
package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrUnknownService is returned when a named service is not in the graph.
var ErrUnknownService = errors.New("graph: unknown service")

// Protocols an edge can carry. ProtocolHTTP is the default; ProtocolTCP
// marks a raw byte-stream dependency (database, cache, broker) served by
// the agents' L4 stream relays instead of the HTTP proxy.
const (
	ProtocolHTTP = "http"
	ProtocolTCP  = "tcp"
)

// Edge is one caller→callee dependency.
//
// Protocol is part of the wire form only (graph JSON files); in-memory
// edges compare by (Src, Dst) alone and Graph.Edges returns them with
// Protocol unset — query Graph.Protocol for an edge's protocol.
type Edge struct {
	Src      string `json:"src"`
	Dst      string `json:"dst"`
	Protocol string `json:"protocol,omitempty"`
}

// Graph is a directed application dependency graph. The zero value is an
// empty graph ready for use. Graph is not safe for concurrent mutation;
// recipes treat it as immutable after construction.
type Graph struct {
	out map[string]map[string]bool // src -> set of dst
	in  map[string]map[string]bool // dst -> set of src
	// proto holds per-edge protocols for edges that are not plain HTTP;
	// absence means ProtocolHTTP.
	proto map[Edge]string
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		out: make(map[string]map[string]bool),
		in:  make(map[string]map[string]bool),
	}
}

// FromEdges builds a graph from an edge list. Vertices are created
// implicitly; edges carrying a non-default Protocol keep it.
func FromEdges(edges []Edge) *Graph {
	g := New()
	for _, e := range edges {
		g.AddEdge(e.Src, e.Dst)
		if e.Protocol != "" && e.Protocol != ProtocolHTTP {
			g.SetProtocol(e.Src, e.Dst, e.Protocol)
		}
	}
	return g
}

// AddService ensures the named service exists as a vertex, even if it has
// no edges (a root or leaf service).
func (g *Graph) AddService(name string) {
	g.ensure()
	if _, ok := g.out[name]; !ok {
		g.out[name] = make(map[string]bool)
	}
	if _, ok := g.in[name]; !ok {
		g.in[name] = make(map[string]bool)
	}
}

// AddEdge records that src calls dst, creating either vertex as needed.
// Self-edges are ignored: a service does not call itself through the
// network.
func (g *Graph) AddEdge(src, dst string) {
	if src == dst {
		return
	}
	g.AddService(src)
	g.AddService(dst)
	g.out[src][dst] = true
	g.in[dst][src] = true
}

func (g *Graph) ensure() {
	if g.out == nil {
		g.out = make(map[string]map[string]bool)
	}
	if g.in == nil {
		g.in = make(map[string]map[string]bool)
	}
}

// SetProtocol marks the src→dst edge as carrying the given protocol
// (e.g. ProtocolTCP), creating the edge if needed. Setting ProtocolHTTP
// (or "") restores the default.
func (g *Graph) SetProtocol(src, dst, protocol string) {
	g.AddEdge(src, dst)
	if g.proto == nil {
		g.proto = make(map[Edge]string)
	}
	key := Edge{Src: src, Dst: dst}
	if protocol == "" || protocol == ProtocolHTTP {
		delete(g.proto, key)
		return
	}
	g.proto[key] = protocol
}

// Protocol reports the protocol of the src→dst edge; ProtocolHTTP for
// unmarked (or unknown) edges.
func (g *Graph) Protocol(src, dst string) string {
	if p, ok := g.proto[Edge{Src: src, Dst: dst}]; ok {
		return p
	}
	return ProtocolHTTP
}

// TCPEdges returns the edges marked ProtocolTCP, sorted by (src, dst) —
// the edges the campaign enumerator targets with stream-fault grids.
func (g *Graph) TCPEdges() []Edge {
	var edges []Edge
	for e, p := range g.proto {
		if p == ProtocolTCP && g.HasEdge(e.Src, e.Dst) {
			edges = append(edges, e)
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	return edges
}

// Has reports whether the named service is a vertex of the graph.
func (g *Graph) Has(name string) bool {
	_, ok := g.out[name]
	return ok
}

// HasEdge reports whether src calls dst.
func (g *Graph) HasEdge(src, dst string) bool {
	return g.out[src][dst]
}

// Services returns all service names, sorted.
func (g *Graph) Services() []string {
	names := make([]string, 0, len(g.out))
	for n := range g.out {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len reports the number of services.
func (g *Graph) Len() int { return len(g.out) }

// Dependents returns the services that call the named service (its
// upstreams), sorted. This is the paper's dependents() helper used by Crash,
// Hang, Overload and FakeSuccess recipes.
func (g *Graph) Dependents(name string) ([]string, error) {
	if !g.Has(name) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownService, name)
	}
	return setToSorted(g.in[name]), nil
}

// Dependencies returns the services the named service calls (its
// downstreams), sorted.
func (g *Graph) Dependencies(name string) ([]string, error) {
	if !g.Has(name) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownService, name)
	}
	return setToSorted(g.out[name]), nil
}

// Edges returns all edges sorted by (src, dst).
func (g *Graph) Edges() []Edge {
	var edges []Edge
	for src, dsts := range g.out {
		for dst := range dsts {
			edges = append(edges, Edge{Src: src, Dst: dst})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	return edges
}

// Cut returns the edges crossing from partition A to partition B and from B
// to A — the edge set a network-partition recipe must abort (paper §5: "a
// network partition is implemented using a series of Abort operations ...
// along the cut of an application graph"). Services named in a or b that
// are not in the graph produce an error; services in neither set are left
// untouched.
func (g *Graph) Cut(a, b []string) ([]Edge, error) {
	inA := make(map[string]bool, len(a))
	inB := make(map[string]bool, len(b))
	for _, s := range a {
		if !g.Has(s) {
			return nil, fmt.Errorf("%w: %q", ErrUnknownService, s)
		}
		inA[s] = true
	}
	for _, s := range b {
		if !g.Has(s) {
			return nil, fmt.Errorf("%w: %q", ErrUnknownService, s)
		}
		if inA[s] {
			return nil, fmt.Errorf("graph: service %q appears on both sides of the partition", s)
		}
		inB[s] = true
	}
	var cut []Edge
	for _, e := range g.Edges() {
		if (inA[e.Src] && inB[e.Dst]) || (inB[e.Src] && inA[e.Dst]) {
			cut = append(cut, e)
		}
	}
	return cut, nil
}

// Roots returns services with no dependents (entry points), sorted.
func (g *Graph) Roots() []string {
	var roots []string
	for name := range g.out {
		if len(g.in[name]) == 0 {
			roots = append(roots, name)
		}
	}
	sort.Strings(roots)
	return roots
}

// HasCycle reports whether the call graph contains a dependency cycle.
// Cycles are legal in microservice deployments but usually indicate a
// mis-specified logical graph, so recipes warn about them.
func (g *Graph) HasCycle() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(g.out))
	var visit func(string) bool
	visit = func(n string) bool {
		color[n] = grey
		for next := range g.out[n] {
			switch color[next] {
			case grey:
				return true
			case white:
				if visit(next) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	for n := range g.out {
		if color[n] == white && visit(n) {
			return true
		}
	}
	return false
}

// DOT renders the graph in Graphviz DOT format for documentation and
// debugging.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph app {\n")
	for _, s := range g.Services() {
		fmt.Fprintf(&b, "  %q;\n", s)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %q -> %q;\n", e.Src, e.Dst)
	}
	b.WriteString("}\n")
	return b.String()
}

// Clone returns a deep copy of the graph, edge protocols included.
func (g *Graph) Clone() *Graph {
	c := New()
	for _, s := range g.Services() {
		c.AddService(s)
	}
	for _, e := range g.Edges() {
		c.AddEdge(e.Src, e.Dst)
	}
	for e, p := range g.proto {
		if g.HasEdge(e.Src, e.Dst) {
			c.SetProtocol(e.Src, e.Dst, p)
		}
	}
	return c
}

func setToSorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
