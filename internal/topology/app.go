// Package topology assembles complete demo applications for resilience
// testing: microservices wired through sidecar Gremlin agents, a logical
// application graph, a service registry, a shared event store, and an edge
// agent through which test load is injected (so edge-service behaviour is
// observable, per the paper's §6 "we assume that test load can be injected
// via a Gremlin agent").
//
// Prefab topologies mirror the paper's evaluation: binary trees for the
// orchestration benchmark (Figure 7), the WordPress/ElasticPress stack of
// the case study (Figures 5 and 6), the enterprise application (Figure 4),
// and a message-bus pipeline modelling the Table 1 outages.
package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/graph"
	"gremlin/internal/microservice"
	"gremlin/internal/proxy"
	"gremlin/internal/registry"
	"gremlin/internal/resilience"
)

// EdgeService is the logical name of the synthetic caller that injects test
// load at the application edge.
const EdgeService = "user"

// ServiceSpec declares one microservice of an application.
type ServiceSpec struct {
	// Name is the service's logical name.
	Name string

	// Replicas is how many physical instances of the service to run
	// (0 and 1 both mean a single replica). Each replica gets its own
	// listener and its own sidecar agent; dependents load-balance across
	// all replicas, and the registry records one Instance per replica so
	// the orchestrator "locates and configures all physical instances"
	// (paper §4.2).
	Replicas int

	// DependsOn lists the logical names of downstream services.
	DependsOn []string

	// TCPBackends maps logical names of raw-TCP dependencies (databases,
	// caches — anything that is not HTTP) to their upstream addresses
	// ("host:port"). Each is reached through the agent's L4 stream relay
	// rather than the HTTP proxy, and contributes a protocol:tcp edge to
	// the application graph. The backend itself is external to the
	// topology — the caller runs it (e.g. a test echo server).
	TCPBackends map[string]string

	// Handler computes responses; nil defaults to FanOutHandler(FailFast)
	// for services with dependencies and LeafHandler for leaves.
	Handler microservice.Handler

	// ClientFor, when non-nil, builds the HTTP client used for calls to
	// each dependency — the hook for adding resilience patterns. The base
	// Doer passed in is a plain transport-level client.
	ClientFor func(dep string, base resilience.Doer) resilience.Doer

	// WorkTime simulates local processing time per request.
	WorkTime time.Duration
}

// Spec declares a whole application.
type Spec struct {
	// Services lists the microservices. Dependency edges must form a DAG.
	Services []ServiceSpec

	// Entry names the service that receives injected test load. Defaults
	// to the unique root of the graph.
	Entry string

	// Sink receives agent observations. Nil creates a fresh in-process
	// store (exposed as App.Store).
	Sink eventlog.Sink

	// Registry receives one Instance per replica as the application is
	// built. Nil uses a fresh registry.NewStatic, whose leases outlive the
	// application; pass one with a short DefaultTTL to put the application
	// under lease-based membership.
	Registry *registry.Dynamic

	// RNG seeds the agents' probability sampling. Nil is
	// non-deterministic.
	RNG *rand.Rand
}

// App is a running application: services, agents, registry, graph, store.
type App struct {
	// Graph is the logical application graph (including the edge service).
	Graph *graph.Graph

	// Registry maps logical services to instances and agents — one
	// Instance per replica.
	Registry *registry.Dynamic

	// Store is the in-process event store backing the agents' sink. Nil
	// when the Spec supplied its own Sink.
	Store *eventlog.Store

	services map[string][]*microservice.Service // per replica
	agents   map[string][]*proxy.Agent          // per replica (nil for leaves)
	// dependents indexes the agents holding a route toward each service —
	// every dependent replica's agent plus, for the entry service, the
	// edge agent. The health checker drains and restores through it.
	dependents map[string][]*proxy.Agent
	edge       *proxy.Agent
	entry      string
}

// Build constructs and starts the application described by spec.
func Build(spec Spec) (*App, error) {
	if len(spec.Services) == 0 {
		return nil, errors.New("topology: spec has no services")
	}

	g := graph.New()
	specs := make(map[string]ServiceSpec, len(spec.Services))
	for _, s := range spec.Services {
		if s.Name == "" {
			return nil, errors.New("topology: service with empty name")
		}
		if s.Name == EdgeService {
			return nil, fmt.Errorf("topology: service name %q is reserved for the edge agent", EdgeService)
		}
		if _, dup := specs[s.Name]; dup {
			return nil, fmt.Errorf("topology: duplicate service %q", s.Name)
		}
		specs[s.Name] = s
		g.AddService(s.Name)
		for _, d := range s.DependsOn {
			g.AddEdge(s.Name, d)
		}
		for d := range s.TCPBackends {
			g.SetProtocol(s.Name, d, graph.ProtocolTCP)
		}
	}
	for _, s := range spec.Services {
		for _, d := range s.DependsOn {
			if _, ok := specs[d]; !ok {
				return nil, fmt.Errorf("topology: %s depends on undeclared service %q", s.Name, d)
			}
		}
	}
	if g.HasCycle() {
		return nil, errors.New("topology: dependency graph has a cycle")
	}

	entry := spec.Entry
	if entry == "" {
		roots := g.Roots()
		if len(roots) != 1 {
			return nil, fmt.Errorf("topology: spec needs Entry (graph has %d roots)", len(roots))
		}
		entry = roots[0]
	}
	if _, ok := specs[entry]; !ok {
		return nil, fmt.Errorf("topology: entry service %q not declared", entry)
	}

	reg := spec.Registry
	if reg == nil {
		reg = registry.NewStatic()
	}
	app := &App{
		Graph:      g,
		Registry:   reg,
		services:   make(map[string][]*microservice.Service, len(specs)),
		agents:     make(map[string][]*proxy.Agent, len(specs)),
		dependents: make(map[string][]*proxy.Agent),
		entry:      entry,
	}
	sink := spec.Sink
	if sink == nil {
		app.Store = eventlog.NewStore()
		sink = app.Store
	}

	// Create services bottom-up (dependencies before dependents) so each
	// agent can route to already-bound dependency addresses.
	order, err := buildOrder(specs)
	if err != nil {
		app.closePartial()
		return nil, err
	}
	for _, name := range order {
		if err := app.buildService(specs[name], sink, spec.RNG); err != nil {
			app.closePartial()
			return nil, err
		}
	}

	// Edge agent: test load enters through it so the entry service's
	// replies are logged like any other hop.
	if err := app.buildEdge(sink, spec.RNG); err != nil {
		app.closePartial()
		return nil, err
	}
	return app, nil
}

// buildOrder returns service names so that every service appears after all
// of its dependencies.
func buildOrder(specs map[string]ServiceSpec) ([]string, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(specs))
	order := make([]string, 0, len(specs))
	var visit func(string) error
	visit = func(name string) error {
		switch state[name] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("topology: cycle through %q", name)
		}
		state[name] = visiting
		for _, d := range specs[name].DependsOn {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[name] = done
		order = append(order, name)
		return nil
	}
	// Iterate deterministically for reproducible builds.
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func (app *App) buildService(s ServiceSpec, sink eventlog.Sink, rng *rand.Rand) error {
	replicas := s.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	for i := 0; i < replicas; i++ {
		if err := app.buildReplica(s, i, sink, rng); err != nil {
			return err
		}
	}
	return nil
}

// buildReplica builds one physical instance of a service: its own
// microservice listener plus (when the service has dependencies) its own
// sidecar agent, whose routes load-balance across every replica of each
// dependency.
func (app *App) buildReplica(s ServiceSpec, idx int, sink eventlog.Sink, rng *rand.Rand) error {
	var (
		agent *proxy.Agent
		deps  []microservice.Dependency
	)
	if len(s.DependsOn) > 0 || len(s.TCPBackends) > 0 {
		routes := make([]proxy.Route, 0, len(s.DependsOn))
		for _, d := range s.DependsOn {
			routes = append(routes, proxy.Route{
				Dst:        d,
				ListenAddr: "127.0.0.1:0",
				Targets:    app.ReplicaAddrs(d),
			})
		}
		backends := make([]string, 0, len(s.TCPBackends))
		for d := range s.TCPBackends {
			backends = append(backends, d)
		}
		sortStrings(backends)
		l4routes := make([]proxy.L4Route, 0, len(backends))
		for _, d := range backends {
			l4routes = append(l4routes, proxy.L4Route{
				Dst:        d,
				ListenAddr: "127.0.0.1:0",
				Targets:    []string{s.TCPBackends[d]},
			})
		}
		var err error
		agent, err = proxy.New(proxy.Config{
			ServiceName: s.Name,
			ControlAddr: "127.0.0.1:0",
			Routes:      routes,
			L4Routes:    l4routes,
			Sink:        sink,
			RNG:         childRNG(rng),
		})
		if err != nil {
			return fmt.Errorf("topology: agent for %s: %w", s.Name, err)
		}
		agent.Start()
		app.agents[s.Name] = append(app.agents[s.Name], agent)
		for _, d := range s.DependsOn {
			app.dependents[d] = append(app.dependents[d], agent)
		}

		for _, d := range s.DependsOn {
			u, err := agent.RouteURL(d)
			if err != nil {
				return err
			}
			dep := microservice.Dependency{Name: d, BaseURL: u}
			if s.ClientFor != nil {
				base := dep.Client
				if base == nil {
					base = defaultClient()
				}
				dep.Client = s.ClientFor(d, base)
			}
			deps = append(deps, dep)
		}
	}

	handler := s.Handler
	if handler == nil && len(s.DependsOn) > 0 {
		// Honor the ServiceSpec contract: a service with dependencies
		// defaults to fanning out over them (microservice.New alone would
		// default to a leaf echo, silently orphaning the graph edges).
		handler = microservice.FanOutHandler(microservice.FailFast)
	}
	svc, err := microservice.New(microservice.Config{
		Name:         s.Name,
		ListenAddr:   "127.0.0.1:0",
		Dependencies: deps,
		Handler:      handler,
		WorkTime:     s.WorkTime,
	})
	if err != nil {
		return fmt.Errorf("topology: service %s: %w", s.Name, err)
	}
	svc.Start()
	app.services[s.Name] = append(app.services[s.Name], svc)

	inst := registry.Instance{Service: s.Name, Addr: svc.Addr(), Replica: idx}
	if agent != nil {
		inst.AgentControlURL = agent.ControlURL()
	}
	app.Registry.Add(inst)
	return nil
}

func (app *App) buildEdge(sink eventlog.Sink, rng *rand.Rand) error {
	edge, err := proxy.New(proxy.Config{
		ServiceName: EdgeService,
		ControlAddr: "127.0.0.1:0",
		Routes: []proxy.Route{{
			Dst:        app.entry,
			ListenAddr: "127.0.0.1:0",
			Targets:    app.ReplicaAddrs(app.entry),
		}},
		Sink: sink,
		RNG:  childRNG(rng),
	})
	if err != nil {
		return fmt.Errorf("topology: edge agent: %w", err)
	}
	edge.Start()
	app.edge = edge
	app.dependents[app.entry] = append(app.dependents[app.entry], edge)
	app.Graph.AddEdge(EdgeService, app.entry)
	addr, err := edge.RouteAddr(app.entry)
	if err != nil {
		return err
	}
	app.Registry.Add(registry.Instance{
		Service:         EdgeService,
		Addr:            addr,
		AgentControlURL: edge.ControlURL(),
	})
	return nil
}

// EntryURL returns the URL test load should be sent to: the edge agent's
// route to the entry service.
func (app *App) EntryURL() string {
	u, err := app.edge.RouteURL(app.entry)
	if err != nil {
		// The edge route is built in Build; its absence is a programming
		// error.
		panic(err)
	}
	return u
}

// Entry returns the entry service's logical name.
func (app *App) Entry() string { return app.entry }

// ServiceURL returns the direct URL of a service's first replica
// (bypassing agents), or an error for unknown names.
func (app *App) ServiceURL(name string) (string, error) {
	svcs, ok := app.services[name]
	if !ok || len(svcs) == 0 {
		return "", fmt.Errorf("topology: unknown service %q", name)
	}
	return svcs[0].URL(), nil
}

// Replicas returns how many replicas of a service were built (0 for
// unknown names).
func (app *App) Replicas(name string) int { return len(app.services[name]) }

// ReplicaAddrs returns the listen addresses of every replica of a service,
// in replica order.
func (app *App) ReplicaAddrs(name string) []string {
	svcs := app.services[name]
	addrs := make([]string, len(svcs))
	for i, s := range svcs {
		addrs[i] = s.Addr()
	}
	return addrs
}

// KillReplica shuts down one replica's listener (connection-refused to
// dependents and health probes), emulating a crashed instance. The
// replica's sidecar agent keeps running, like a real sidecar outliving its
// workload.
func (app *App) KillReplica(name string, idx int) error {
	svcs := app.services[name]
	if idx < 0 || idx >= len(svcs) {
		return fmt.Errorf("topology: service %q has no replica %d", name, idx)
	}
	return svcs[idx].Close()
}

// L4Addr returns the local address of src's stream relay toward its
// raw-TCP backend dst — the address the service (or a test client) dials
// to reach the backend through the fault-injection plane.
func (app *App) L4Addr(src, dst string) (string, error) {
	agents := app.agents[src]
	if len(agents) == 0 {
		return "", fmt.Errorf("topology: service %q has no agent", src)
	}
	return agents[0].L4RouteAddr(dst)
}

// Agent returns the sidecar agent of a service's first replica (nil for
// leaf services, which make no outbound calls).
func (app *App) Agent(name string) *proxy.Agent {
	if name == EdgeService {
		return app.edge
	}
	if agents := app.agents[name]; len(agents) > 0 {
		return agents[0]
	}
	return nil
}

// Agents returns every replica's sidecar agent for a service, in replica
// order (empty for leaf services).
func (app *App) Agents(name string) []*proxy.Agent {
	if name == EdgeService {
		return []*proxy.Agent{app.edge}
	}
	return append([]*proxy.Agent(nil), app.agents[name]...)
}

// Services returns the logical service names (excluding the edge), sorted.
func (app *App) Services() []string {
	names := make([]string, 0, len(app.services))
	for n := range app.services {
		names = append(names, n)
	}
	sortStrings(names)
	return names
}

// Close shuts down every service and agent.
func (app *App) Close() error {
	var firstErr error
	if app.edge != nil {
		if err := app.edge.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, replicas := range app.agents {
		for _, a := range replicas {
			if err := a.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, replicas := range app.services {
		for _, s := range replicas {
			if err := s.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func (app *App) closePartial() { _ = app.Close() }

// childRNG derives an independent deterministic RNG per agent so builds
// with a seeded Spec.RNG are reproducible regardless of construction
// concurrency.
func childRNG(rng *rand.Rand) *rand.Rand {
	if rng == nil {
		return nil
	}
	return rand.New(rand.NewSource(rng.Int63()))
}

func defaultClient() resilience.Doer {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
}

func sortStrings(ss []string) { sort.Strings(ss) }
