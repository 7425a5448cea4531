// Package gremlin is the public API of the Gremlin resilience-testing
// framework — a from-scratch Go reproduction of "Gremlin: Systematic
// Resilience Testing of Microservices" (Heorhiadi et al., ICDCS 2016).
//
// Gremlin stages failures by manipulating the network interactions between
// microservices and validates the application's recovery behaviour from
// the same vantage point. It is split, SDN-style, into:
//
//   - a data plane of Gremlin agents (sidecar Layer-7 proxies) that
//     intercept inter-service messages, apply Abort/Delay/Modify faults to
//     matching request flows, and log every observation; and
//   - a control plane — the Recipe Translator (Scenario/Recipe), the
//     Failure Orchestrator (Orchestrator), and the Assertion Checker
//     (Checker) — that turns high-level outage descriptions into agent
//     rules and validates assertions against the collected event logs.
//
// # Quickstart
//
// Run an agent next to each microservice, point the service's dependency
// URLs at the agent's local routes, and execute a recipe:
//
//	runner := gremlin.NewRunner(appGraph, gremlin.NewOrchestrator(reg), store, store)
//	report, err := runner.Run(ctx, gremlin.Recipe{
//	    Name:      "overload-b",
//	    Scenarios: []gremlin.Scenario{gremlin.Overload{Service: "serviceB"}},
//	    Checks:    []gremlin.Check{gremlin.ExpectBoundedRetries("serviceA", "serviceB", 5)},
//	}, gremlin.RunOptions{Load: injectTestTraffic})
//
// The package re-exports the recipe, scenario, check and rule vocabulary
// and the constructors a test program needs. The planes' plumbing (store
// options, registry servers, the telemetry plane) stays internal and is
// driven through the gremlin command.
//
// See examples/ for complete programs and DESIGN.md for the system map.
package gremlin

import (
	"context"

	"gremlin/internal/agentapi"
	"gremlin/internal/campaign"
	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/explore"
	"gremlin/internal/graph"
	"gremlin/internal/orchestrator"
	"gremlin/internal/proxy"
	"gremlin/internal/registry"
	"gremlin/internal/rules"
	"gremlin/internal/trace"
)

// DefaultPattern is the request-ID pattern recipes default to, confining
// fault injection to synthetic test traffic ("test-*").
const DefaultPattern = core.DefaultPattern

// HeaderRequestID is the header carrying the request ID between services.
const HeaderRequestID = trace.HeaderRequestID

// Data-plane types: fault-injection rules and the agent (sidecar proxy).
type (
	// Rule is a primitive fault-injection rule (Abort/Delay/Modify) as
	// installed on an agent.
	Rule = rules.Rule

	// RuleSet is an agent's complete desired rule state: a versioned,
	// content-hashed set applied as an idempotent atomic swap, optionally
	// leased with an agent-side TTL.
	RuleSet = rules.RuleSet

	// RuleSetStatus reports an agent's current generation, content hash
	// and rule count.
	RuleSetStatus = rules.RuleSetStatus

	// Agent is a running Gremlin agent: per-dependency proxy listeners
	// plus a REST control API.
	Agent = proxy.Agent

	// AgentConfig configures an Agent.
	AgentConfig = proxy.Config

	// Route maps one outbound dependency of the co-located microservice.
	Route = proxy.Route

	// L4Route maps one outbound raw-TCP dependency, served by a stream
	// relay that injects connection-level faults (the L4 plane).
	L4Route = proxy.L4Route

	// Layer selects which plane a rule acts on: LayerHTTP (the L7 proxy,
	// the default) or LayerL4 (the stream relays).
	Layer = rules.Layer

	// AgentClient drives a remote agent's control API.
	AgentClient = agentapi.Client
)

// Fault actions and message types.
const (
	ActionAbort  = rules.ActionAbort
	ActionDelay  = rules.ActionDelay
	ActionModify = rules.ActionModify

	// Stream (L4) fault actions.
	ActionSever    = rules.ActionSever
	ActionHalfOpen = rules.ActionHalfOpen
	ActionThrottle = rules.ActionThrottle
	ActionJitter   = rules.ActionJitter

	// Rule layers.
	LayerHTTP = rules.LayerHTTP
	LayerL4   = rules.LayerL4

	// Sever modes.
	SeverRST = rules.SeverRST
	SeverFIN = rules.SeverFIN

	OnRequest  = rules.OnRequest
	OnResponse = rules.OnResponse

	// AbortSeverConnection as a Rule.ErrorCode severs the TCP connection
	// instead of returning an HTTP error (crash emulation).
	AbortSeverConnection = rules.AbortSeverConnection

	// NoMatch, passed as the If-Match argument of AgentClient.PutRuleSet,
	// disables the compare-and-swap precondition.
	NoMatch = rules.NoMatch
)

// NewAgent creates a Gremlin agent. Call Start to begin proxying and Close
// to shut down.
func NewAgent(cfg AgentConfig) (*Agent, error) { return proxy.New(cfg) }

// NewAgentClient returns a client for an agent's REST control API.
func NewAgentClient(controlURL string) *AgentClient { return agentapi.New(controlURL, nil) }

// Event-log types: the centralized observation store.
type (
	// Record is one observation (request or reply) logged by an agent.
	Record = eventlog.Record

	// Query selects records from the store.
	Query = eventlog.Query

	// Store is the event store: records partition across shards by
	// request-ID namespace, reads scatter-gather with a time-sorted merge,
	// a data directory makes every acknowledged append crash-durable, and
	// a live subscription is one channel whose buffer bounds the whole
	// feed. NewStore gives one volatile shard.
	Store = eventlog.Store

	// StoreServer exposes a Store over HTTP (the logstash/Elasticsearch
	// substitute).
	StoreServer = eventlog.Server

	// StoreClient ships records to and queries a remote StoreServer.
	StoreClient = eventlog.Client

	// Sink consumes observation records (agents log through it).
	Sink = eventlog.Sink

	// Source answers record queries (the checker reads through it).
	Source = eventlog.Source
)

// Record kinds.
const (
	KindRequest = eventlog.KindRequest
	KindReply   = eventlog.KindReply

	// Stream-connection lifecycle records emitted by the L4 relays.
	KindConnOpen  = eventlog.KindConnOpen
	KindConnClose = eventlog.KindConnClose
)

// NewStore creates an empty, volatile, single-shard event store.
func NewStore() *Store { return eventlog.NewStore() }

// NewStoreServer starts an event-store server on addr ("127.0.0.1:0" for
// an ephemeral port).
func NewStoreServer(addr string, store *Store) (*StoreServer, error) {
	return eventlog.NewServer(addr, store)
}

// NewStoreClient returns a client for a remote event store.
func NewStoreClient(baseURL string) *StoreClient { return eventlog.NewClient(baseURL, nil) }

// Application graph and registry types.
type (
	// Graph is the logical application graph (caller→callee edges).
	Graph = graph.Graph

	// GraphEdge is one caller→callee dependency.
	GraphEdge = graph.Edge

	// Registry resolves logical service names to physical instances and
	// their agents.
	Registry = registry.Registry

	// Instance is one physical service instance plus its agent.
	Instance = registry.Instance

	// DynamicRegistry is a lease-based Registry: instances register with
	// a TTL, stay members while heartbeats renew the lease, and expire
	// otherwise. Membership changes stream through WaitEvents.
	DynamicRegistry = registry.Dynamic
)

// NewGraph creates an empty application graph.
func NewGraph() *Graph { return graph.New() }

// GraphFromEdges builds a graph from an edge list.
func GraphFromEdges(edges []GraphEdge) *Graph { return graph.FromEdges(edges) }

// NewRegistry builds a fixed registry from instances: a DynamicRegistry
// whose leases last about a century.
func NewRegistry(instances ...Instance) *DynamicRegistry { return registry.NewStatic(instances...) }

// Control-plane types: orchestrator, checker, recipes, runner.
type (
	// Orchestrator is the Failure Orchestrator: a declarative reconciler
	// that converges every agent toward the registered desired state.
	Orchestrator = orchestrator.Orchestrator

	// Checker is the Assertion Checker over an event-log source.
	Checker = checker.Checker

	// CheckResult is the outcome of one assertion.
	CheckResult = checker.Result

	// RList is a time-ordered record list returned by checker queries.
	RList = checker.RList

	// Scenario is a high-level failure scenario.
	Scenario = core.Scenario

	// Recipe is a complete test: scenarios plus assertions.
	Recipe = core.Recipe

	// Check is one assertion evaluated after load injection.
	Check = core.Check

	// Runner executes recipes end to end.
	Runner = core.Runner

	// RunOptions tunes recipe execution.
	RunOptions = core.RunOptions

	// Report is the outcome of one recipe run, with per-phase timings.
	Report = core.Report
)

// Failure scenarios (paper §5). Each decomposes into primitive rules over
// the application graph.
type (
	// Abort aborts matching messages on one edge.
	Abort = core.Abort

	// Delay delays matching messages on one edge.
	Delay = core.Delay

	// Modify rewrites bytes in matching messages on one edge.
	Modify = core.Modify

	// Disconnect returns an HTTP error for every request on one edge.
	Disconnect = core.Disconnect

	// Crash severs connections from all dependents of a service.
	Crash = core.Crash

	// Hang delays all requests to a service by a very long interval.
	Hang = core.Hang

	// Overload aborts a fraction of requests to a service and delays the
	// rest.
	Overload = core.Overload

	// FakeSuccess corrupts a service's successful responses.
	FakeSuccess = core.FakeSuccess

	// DegradeNetwork delays every edge of the application graph.
	DegradeNetwork = core.DegradeNetwork

	// Partition severs all edges crossing a cut of the graph.
	Partition = core.Partition

	// StreamSever terminates matching stream connections mid-transfer
	// (RST or FIN), optionally after a byte threshold.
	StreamSever = core.StreamSever

	// StreamHalfOpen stops relaying one direction of matching stream
	// connections while keeping both sockets open.
	StreamHalfOpen = core.StreamHalfOpen

	// StreamThrottle paces one direction of matching stream connections
	// with a token bucket.
	StreamThrottle = core.StreamThrottle

	// StreamJitter delays each relayed chunk of matching stream
	// connections.
	StreamJitter = core.StreamJitter

	// ConnectRefuse resets matching stream connections at accept.
	ConnectRefuse = core.ConnectRefuse

	// ConnectDelay holds matching stream connections before dialing the
	// upstream.
	ConnectDelay = core.ConnectDelay
)

// NewOrchestrator creates a Failure Orchestrator over a registry.
func NewOrchestrator(reg Registry) *Orchestrator { return orchestrator.New(reg) }

// NewChecker creates an Assertion Checker reading from source.
func NewChecker(source Source) *Checker { return checker.New(source) }

// NewRunner creates a recipe Runner. store may be nil if recipes never
// clear logs between steps; pass the same *Store used as the agents' sink
// for in-process deployments.
func NewRunner(g *Graph, orch *Orchestrator, source Source, store core.Clearer) *Runner {
	return core.NewRunner(g, orch, source, store)
}

// Assertion constructors (Table 3 pattern checks).
var (
	// ExpectTimeouts asserts the service answers upstreams within a bound.
	ExpectTimeouts = core.ExpectTimeouts

	// ExpectBoundedRetries asserts bounded retries on one edge.
	ExpectBoundedRetries = core.ExpectBoundedRetries

	// ExpectCircuitBreaker asserts a breaker opens after repeated failures.
	ExpectCircuitBreaker = core.ExpectCircuitBreaker

	// ExpectBulkhead asserts healthy dependencies keep their request rate
	// while one dependency is slow.
	ExpectBulkhead = core.ExpectBulkhead

	// ExpectNoCalls asserts an edge carried no test traffic.
	ExpectNoCalls = core.ExpectNoCalls

	// ExpectFallback asserts the service kept succeeding during the outage.
	ExpectFallback = core.ExpectFallback

	// ExpectExponentialBackoff asserts retry gaps grow between attempts.
	ExpectExponentialBackoff = core.ExpectExponentialBackoff

	// ExpectCustom wraps an arbitrary closure as a named assertion.
	ExpectCustom = core.ExpectCustom

	// ExpectStreamFaults asserts that staged L4 faults were actually
	// actuated on an edge, attributed by fault-rule-ID prefix.
	ExpectStreamFaults = core.ExpectStreamFaults
)

// GenerateOptions tunes GenerateRecipes.
type GenerateOptions = core.GenerateOptions

// ChaosOptions tunes RandomScenario.
type ChaosOptions = core.ChaosOptions

// RandomScenario generates one randomized failure over the application
// graph — the Chaos Monkey baseline the paper contrasts itself with
// (§8.1). A seeded rng yields a reproducible chaos schedule.
var RandomScenario = core.RandomScenario

// GenerateRecipes proposes a systematic test plan from the application
// graph alone: an Overload and a Crash recipe per service with dependents,
// asserting bounded retries, timeouts, and circuit breakers on every
// caller edge (the automation sketched in the paper's §9).
func GenerateRecipes(g *Graph, opts GenerateOptions) ([]Recipe, error) {
	return core.GenerateRecipes(g, opts)
}

// ParseRecipe decodes a recipe from its JSON wire form (see
// internal/core.ParseRecipe for the schema).
func ParseRecipe(data []byte) (Recipe, error) { return core.ParseRecipe(data) }

// Campaign types: systematic, parallel, resumable exploration of the fault
// space (see internal/campaign).
type (
	// CampaignUnit is one point of the enumerated fault space.
	CampaignUnit = campaign.Unit

	// CampaignOptions tunes campaign execution (parallelism, journal,
	// load and cleanup hooks).
	CampaignOptions = campaign.Options

	// CampaignEntry is one settled unit as journalled.
	CampaignEntry = campaign.Entry

	// EnumerateOptions tunes fault-space enumeration.
	EnumerateOptions = campaign.EnumerateOptions

	// Scorecard is a campaign's aggregate resilience report: the
	// per-edge and per-service pass-fail matrix.
	Scorecard = campaign.Scorecard
)

// EnumerateCampaign expands the application graph into a deterministic
// list of campaign units: scenario templates × targets × parameter grids.
func EnumerateCampaign(g *Graph, opts EnumerateOptions) ([]CampaignUnit, error) {
	return campaign.Enumerate(g, opts)
}

// RunCampaign executes units through a bounded worker pool, isolating
// concurrent runs by request-ID namespace, pruning redundant scenarios by
// coverage signature, and journalling outcomes for resume.
func RunCampaign(ctx context.Context, r *Runner, units []CampaignUnit, opts CampaignOptions) (*Scorecard, error) {
	return campaign.Run(ctx, r, units, opts)
}

// Explore types: coverage-guided fault-space search driven by observed
// execution indexes rather than the static edge grid (see internal/explore).
type (
	// ExploreOptions tunes an exploration: identity, journal, load hook,
	// round and combination bounds.
	ExploreOptions = explore.Options

	// ExploreResult is a finished (or interrupted) exploration: the point
	// inventory with coverage, plus the campaign scorecard.
	ExploreResult = explore.Result

	// ExplorePoint is one discovered injection point, named by its
	// canonical execution index.
	ExplorePoint = explore.Point
)

// Explore runs a coverage-guided fault exploration: probe the application
// fault-free to inventory its injection points by execution index, then
// iteratively fault each unexercised point (replaying the prerequisite
// faults that revealed it) until the frontier stays dry — discovering
// retry, fallback and other paths that only execute under failure.
func Explore(ctx context.Context, r *Runner, opts ExploreOptions) (*ExploreResult, error) {
	return explore.Explore(ctx, r, opts)
}
