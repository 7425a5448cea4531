package proxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/httpx"
	"gremlin/internal/metrics"
	"gremlin/internal/pattern"
	"gremlin/internal/rules"
	"gremlin/internal/streamproxy"
	"gremlin/internal/trace"
)

// maxLoggedBody bounds how much of a message body the agent will buffer for
// Modify rules and forwarding.
const maxBodyBytes = 32 << 20 // 32 MiB

// Agent is a running Gremlin agent: one data-path listener per route plus
// an optional control API server.
type Agent struct {
	cfg     Config
	matcher *rules.Matcher
	sink    eventlog.Sink

	// spanGen mints one span ID per proxied hop; the agent identity in the
	// prefix keeps span namespaces disjoint across agents sharing a store.
	spanGen *trace.Generator

	routes  map[string]*routeProxy        // by Dst
	relays  map[string]*streamproxy.Relay // L4 plane, by Dst
	control *httpx.Server
	started bool

	// leaseMu guards the rule-set lease timer. A rule set shipped with a
	// TTL self-expires: if no PUT renews it in time, the agent clears all
	// rules itself, so a dead control plane cannot leak faults into the
	// fleet. Control-path only; the data path never touches it.
	leaseMu    sync.Mutex
	leaseTimer *time.Timer
	nExpired   atomic.Int64

	// Data-path counters, exposed via GET /v1/info.
	nProxied  atomic.Int64
	nAborted  atomic.Int64
	nDelayed  atomic.Int64
	nModified atomic.Int64
	nSevered  atomic.Int64
	nStreamed atomic.Int64
	nSpans    atomic.Int64
	nEITrunc  atomic.Int64

	// ordMu guards ordinals, the bounded call-ordinal state used to build
	// execution indices: how many calls with the same (parent span,
	// destination) this agent has already proxied.
	ordMu    sync.Mutex
	ordinals map[string]int

	// latency observes each proxied exchange's time to reply headers in
	// seconds (including injected delays), the latency its reply record
	// carries, exposed via GET /metrics.
	latency *metrics.Histogram
}

// The streaming fast path relays a reply through a buffer sized to it. A
// reply that declares a Content-Length of at least largeCopySize borrows a
// 256 KiB buffer from largeBufs, so a bulk transfer makes an eighth of the
// read/write round trips. Every other reply (small, of unknown length, or
// a stream that may stay open for minutes) borrows a 32 KiB buffer from
// copyBufs. Once warm, neither allocates per reply.
const (
	copySize      = 32 << 10
	largeCopySize = 256 << 10

	// largeBufsMax bounds the 256 KiB buffers a process ever makes, so
	// large replies retain at most 2 MiB. A large reply that finds them
	// all in use relays through a 32 KiB buffer instead.
	largeBufsMax = 8
)

// copyBufs holds the 32 KiB relay buffers.
var copyBufs = sync.Pool{
	New: func() any {
		b := make([]byte, copySize)
		return &b
	},
}

// largeBufs is the bounded store of 256 KiB relay buffers: largeMade
// counts those made, never more than largeBufsMax, so returning one to
// the channel never blocks. Unlike a sync.Pool it keeps its buffers
// across garbage collections and under the race detector.
var (
	largeBufs = make(chan *[]byte, largeBufsMax)
	largeMade atomic.Int32
)

// relayBuffer borrows the buffer a streamed reply that declares length n
// (-1 when unknown) is relayed through; releaseBuffer returns it.
func relayBuffer(n int64) *[]byte {
	if n >= largeCopySize {
		select {
		case b := <-largeBufs:
			return b
		default:
		}
		if largeMade.Add(1) <= largeBufsMax {
			b := make([]byte, largeCopySize)
			return &b
		}
		largeMade.Add(-1)
	}
	return copyBufs.Get().(*[]byte)
}

func releaseBuffer(b *[]byte) {
	if len(*b) == largeCopySize {
		largeBufs <- b
		return
	}
	copyBufs.Put(b)
}

// Stats is a snapshot of the agent's data-path counters.
type Stats struct {
	// Proxied counts messages handled on the data path.
	Proxied int64 `json:"proxied"`
	// Aborted counts messages terminated by an Abort rule with an HTTP
	// error code.
	Aborted int64 `json:"aborted"`
	// Severed counts connections cut by Abort rules with
	// AbortSeverConnection.
	Severed int64 `json:"severed"`
	// Delayed counts messages held back by Delay rules.
	Delayed int64 `json:"delayed"`
	// Modified counts messages rewritten by Modify rules.
	Modified int64 `json:"modified"`
	// Streamed counts replies whose bodies passed through the proxy
	// without being buffered (the fast path: no Modify rule applied).
	Streamed int64 `json:"streamed"`

	// SpansMinted counts the span IDs this agent minted — one per proxied
	// hop — so scrapers can confirm causal tracing is live on the data
	// path.
	SpansMinted int64 `json:"spansMinted"`

	// EITruncated counts hops whose execution index hit the depth or byte
	// bound and was terminated with the truncation marker instead of
	// growing — nonzero means the topology is deeper (or more cyclic)
	// than X-Gremlin-Ei can name, and explore-plane coverage of those
	// hops is necessarily coarse.
	EITruncated int64 `json:"eiTruncated,omitempty"`

	// RulesetExpirations counts rule sets the agent cleared itself because
	// their lease TTL lapsed without a renewing PUT — each one is a
	// control plane that died holding faults.
	RulesetExpirations int64 `json:"rulesetExpirations"`

	// LogDropped, LogFlushes, and LogRetries report event-log shipping
	// health when the agent's sink exposes it (eventlog.BufferedSink does).
	// A run with LogDropped > 0 evaluated its assertions on partial data —
	// campaigns flag such runs as lossy rather than trusting a pass.
	LogDropped int64 `json:"logDropped"`
	LogFlushes int64 `json:"logFlushes"`
	LogRetries int64 `json:"logRetries"`

	// LogBatchRecords and LogMaxBatch describe the sink's batching:
	// total records shipped in successful flushes (divide by LogFlushes
	// for the mean batch size — how well HTTP and encode overhead are
	// being amortized) and the largest single batch.
	LogBatchRecords int64 `json:"logBatchRecords,omitempty"`
	LogMaxBatch     int64 `json:"logMaxBatch,omitempty"`

	// L4 aggregates the agent's stream relays (connections, bytes, and
	// actuated stream faults). Nil when the agent has no L4 routes.
	L4 *streamproxy.Stats `json:"l4,omitempty"`
}

// sinkHealth is the optional shipping-health surface of a sink.
type sinkHealth interface {
	Dropped() int64
	Flushes() int64
	Retries() int64
}

// sinkBatchHealth is the optional batching surface of a sink
// (eventlog.BufferedSink has it).
type sinkBatchHealth interface {
	BatchRecords() int64
	MaxBatch() int64
}

// Stats returns a snapshot of the agent's counters.
func (a *Agent) Stats() Stats {
	s := Stats{
		Proxied:            a.nProxied.Load(),
		Aborted:            a.nAborted.Load(),
		Severed:            a.nSevered.Load(),
		Delayed:            a.nDelayed.Load(),
		Modified:           a.nModified.Load(),
		Streamed:           a.nStreamed.Load(),
		SpansMinted:        a.nSpans.Load(),
		EITruncated:        a.nEITrunc.Load(),
		RulesetExpirations: a.nExpired.Load(),
	}
	if h, ok := a.sink.(sinkHealth); ok {
		s.LogDropped = h.Dropped()
		s.LogFlushes = h.Flushes()
		s.LogRetries = h.Retries()
	}
	if h, ok := a.sink.(sinkBatchHealth); ok {
		s.LogBatchRecords = h.BatchRecords()
		s.LogMaxBatch = h.MaxBatch()
	}
	if len(a.relays) > 0 {
		l4 := a.L4Stats()
		s.L4 = &l4
	}
	return s
}

// L4Stats aggregates the agent's stream relays' counters (zero-valued
// when the agent has no L4 routes).
func (a *Agent) L4Stats() streamproxy.Stats {
	var total streamproxy.Stats
	for _, relay := range a.relays {
		total.Add(relay.Stats())
	}
	return total
}

// countFault bumps the counter matching a fired decision.
func (a *Agent) countFault(d rules.Decision) {
	if !d.Fired {
		return
	}
	switch d.Rule.Action {
	case rules.ActionAbort:
		if d.Rule.ErrorCode == rules.AbortSeverConnection {
			a.nSevered.Add(1)
		} else {
			a.nAborted.Add(1)
		}
	case rules.ActionDelay:
		a.nDelayed.Add(1)
	case rules.ActionModify:
		a.nModified.Add(1)
	}
}

// flow is one exchange's data-path state in a single allocation.
type flow struct {
	start time.Time
	// target is the picked replica, counted in flight until ServeHTTP returns.
	target *poolTarget
	// recs are the request and reply records, logged from here.
	recs [2]eventlog.Record
	// ids are the span ID, parent span and execution index of this hop: the
	// backing array of the three outbound header values.
	ids [3]string
	// out is the outbound request, a shallow copy of the inbound one re-aimed
	// at the target by url.
	out http.Request
	url url.URL
}

// maxOrdinalKeys bounds the ordinal map. When the cap is reached the
// whole map is dropped: a coarse reset that keeps agent memory bounded on
// long-lived processes at the cost of restarting ordinal counts for
// (rare) flows still in flight across the reset. Execution indices stay
// well-formed either way — at worst two sibling calls straddling a reset
// share an ordinal and collapse into one explore point.
const maxOrdinalKeys = 8192

// nextOrdinal returns the 0-based ordinal of this call among its
// siblings: calls from the same parent execution (identified by the
// inbound span, which is minted fresh per request) to the same
// destination. Sequential retries and repeated fan-out calls to one
// dependency get 0, 1, 2, … so their execution indices differ.
//
// An entry hop — no parent span — is always ordinal 0: every request at
// the application edge roots a fresh execution, even when a load
// generator replays the same request ID across runs. Keying entry hops on
// the request ID would make replayed IDs count up forever and drift every
// downstream execution index between sessions.
func (a *Agent) nextOrdinal(parentSpan, dst string) int {
	if parentSpan == "" {
		return 0
	}
	key := parentSpan + "\x00" + dst
	a.ordMu.Lock()
	defer a.ordMu.Unlock()
	if a.ordinals == nil || len(a.ordinals) >= maxOrdinalKeys {
		a.ordinals = make(map[string]int, 64)
	}
	n := a.ordinals[key]
	a.ordinals[key] = n + 1
	return n
}

type routeProxy struct {
	agent  *Agent
	route  Route
	server *httpx.Server
	// up holds the kept-alive connections to the route's targets, canaries
	// and mirrors.
	up upstream
	// recProto carries the parts of an eventlog.Record that are constant
	// for this route, so the data path only fills in per-message fields.
	recProto eventlog.Record
	// pool is the live, health-aware target set (seeded from
	// route.Targets; swapped at runtime via Agent.SetRouteTargets).
	pool       *targetPool
	canaryPat  pattern.Pattern
	mirrorPat  pattern.Pattern
	canaryNext atomic.Uint64 // round-robin canary index
	mirrorNext atomic.Uint64 // round-robin mirror index
	mirrors    sync.WaitGroup
}

// New creates an agent. Listeners for all routes and the control API are
// bound immediately (so ephemeral addresses are known), but no traffic is
// served until Start.
func New(cfg Config) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.AgentID = cfg.agentID() // resolved once: every record carries it
	a := &Agent{
		cfg:     cfg,
		matcher: rules.NewMatcher(cfg.RNG),
		sink:    cfg.Sink,
		// The span generator deliberately does not consume cfg.RNG: the
		// matcher's probability sampling stream must not shift when span
		// minting is added. Agent-identity prefix plus process-global salt
		// keep span IDs unique across the deployment.
		spanGen: trace.NewGenerator("sp-"+cfg.agentID()+"-", nil),
		routes:  make(map[string]*routeProxy, len(cfg.Routes)),
		latency: new(metrics.Histogram),
	}
	for _, r := range cfg.Routes {
		canaryPat, err := pattern.Compile(r.CanaryPattern)
		if err != nil {
			// Unreachable after Validate, kept as a guard.
			a.closeBound()
			return nil, err
		}
		mirrorPat, err := pattern.Compile(r.MirrorPattern)
		if err != nil {
			a.closeBound()
			return nil, err
		}
		rp := &routeProxy{
			agent:     a,
			route:     r,
			recProto:  eventlog.Record{Src: cfg.ServiceName, Dst: r.Dst},
			pool:      newTargetPool(r.Targets),
			canaryPat: canaryPat,
			mirrorPat: mirrorPat,
		}
		srv, err := httpx.NewServer(r.ListenAddr, rp)
		if err != nil {
			a.closeBound()
			return nil, fmt.Errorf("proxy: bind route %s->%s: %w", cfg.ServiceName, r.Dst, err)
		}
		rp.server = srv
		a.routes[r.Dst] = rp
	}
	a.relays = make(map[string]*streamproxy.Relay, len(cfg.L4Routes))
	// Connection IDs share the span generator's collision-free scheme;
	// the "l4-" prefix keeps them recognizable in rule patterns and logs.
	connIDs := trace.NewGenerator("l4-"+cfg.agentID()+"-", nil)
	for _, r := range cfg.L4Routes {
		relay, err := streamproxy.New(streamproxy.Config{
			Src:        cfg.ServiceName,
			Dst:        r.Dst,
			ListenAddr: r.ListenAddr,
			Targets:    r.Targets,
			Matcher:    a.matcher,
			Log:        func(rec eventlog.Record) { a.log(rec) },
			ConnID:     connIDs.Next,
			Agent:      cfg.agentID(),
		})
		if err != nil {
			a.closeBound()
			return nil, fmt.Errorf("proxy: bind l4 route %s->%s: %w", cfg.ServiceName, r.Dst, err)
		}
		a.relays[r.Dst] = relay
	}
	if cfg.ControlAddr != "" {
		srv, err := httpx.NewServer(cfg.ControlAddr, a.controlHandler())
		if err != nil {
			a.closeBound()
			return nil, fmt.Errorf("proxy: bind control API: %w", err)
		}
		a.control = srv
	}
	return a, nil
}

func (a *Agent) closeBound() {
	for _, rp := range a.routes {
		_ = rp.server.Close()
	}
	for _, relay := range a.relays {
		_ = relay.Close()
	}
	if a.control != nil {
		_ = a.control.Close()
	}
}

// Start begins serving all routes and the control API.
func (a *Agent) Start() {
	if a.started {
		return
	}
	a.started = true
	for _, rp := range a.routes {
		rp.server.Start()
	}
	for _, relay := range a.relays {
		relay.Start()
	}
	if a.control != nil {
		a.control.Start()
	}
}

// Close shuts down all listeners and waits for their goroutines,
// including any in-flight mirror copies.
func (a *Agent) Close() error {
	a.leaseMu.Lock()
	if a.leaseTimer != nil {
		a.leaseTimer.Stop()
		a.leaseTimer = nil
	}
	a.leaseMu.Unlock()
	var firstErr error
	for _, rp := range a.routes {
		if err := rp.server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		rp.mirrors.Wait()
		rp.up.close()
	}
	for _, relay := range a.relays {
		if err := relay.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if a.control != nil {
		if err := a.control.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// RouteAddr returns the bound local address for the route to dst, or an
// error if the agent has no such route. Microservices use this address as
// the base URL for the dependency.
func (a *Agent) RouteAddr(dst string) (string, error) {
	rp, ok := a.routes[dst]
	if !ok {
		return "", fmt.Errorf("proxy: agent for %q has no route to %q", a.cfg.ServiceName, dst)
	}
	return rp.server.Addr(), nil
}

// L4RouteAddr returns the bound local address of the stream relay to
// dst, or an error if the agent has no such L4 route. The co-located
// microservice dials this address to reach the raw-TCP dependency.
func (a *Agent) L4RouteAddr(dst string) (string, error) {
	relay, ok := a.relays[dst]
	if !ok {
		return "", fmt.Errorf("proxy: agent for %q has no l4 route to %q", a.cfg.ServiceName, dst)
	}
	return relay.Addr(), nil
}

// RouteURL returns the base http URL for the route to dst.
func (a *Agent) RouteURL(dst string) (string, error) {
	addr, err := a.RouteAddr(dst)
	if err != nil {
		return "", err
	}
	return "http://" + addr, nil
}

// ControlURL returns the base URL of the control API ("" if disabled).
func (a *Agent) ControlURL() string {
	if a.control == nil {
		return ""
	}
	return a.control.URL()
}

// Matcher exposes the agent's rule matcher for in-process rule management
// (tests and embedded deployments). Remote control uses the REST API.
func (a *Agent) Matcher() *rules.Matcher { return a.matcher }

// log sends records to the sink, tagging the agent identity. The data path
// passes a slice of its flow (recs...): a lone record would be boxed in a
// slice of its own on every call.
func (a *Agent) log(recs ...eventlog.Record) {
	if a.sink == nil {
		return
	}
	for i := range recs {
		recs[i].Agent = a.cfg.AgentID
	}
	// A full or unreachable store must not break the data path; the paper's
	// agents ship logs asynchronously via logstash with the same property.
	_ = a.sink.Log(recs...)
}

// ServeHTTP is the data path for one route: log, match rules, inject
// faults, forward, and log the reply.
//
// Bodies are buffered only when something needs the bytes — a Modify
// rewrite or a mirror copy. Every other exchange streams request and reply
// bodies straight between the two connections through pooled buffers, so
// the proxy's memory cost is independent of body size.
func (rp *routeProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var (
		a = rp.agent
		// The inbound span — minted by the agent of the hop that delivered
		// this request to our service — becomes the parent of the span this
		// hop mints; at the application edge it is empty and the minted
		// span is a trace root.
		reqID      = trace.FromRequest(r)
		parentSpan = trace.SpanFromRequest(r)
		f          = &flow{start: time.Now()}
	)

	a.nProxied.Add(1)
	a.nSpans.Add(1)
	// This hop's execution index extends the caller's (relayed in
	// X-Gremlin-Ei) with one (destination, call-ordinal) frame. AppendEI
	// bounds depth and bytes; a hop past the bound is counted and its
	// index marker-terminated rather than grown.
	hopEI, eiTruncated := trace.AppendEI(trace.EIFromRequest(r),
		rp.route.Dst, a.nextOrdinal(parentSpan, rp.route.Dst))
	if eiTruncated {
		a.nEITrunc.Add(1)
	}
	spanID := a.spanGen.Next()
	f.ids = [3]string{spanID, parentSpan, hopEI}
	// Deferred so every exit path — including severed connections, which
	// unwind via ErrAbortHandler — keeps the replica counted as busy until
	// its reply body is relayed or discarded.
	defer func() {
		if f.target != nil {
			f.target.pending.Add(-1)
		}
	}()
	reqMsg := rules.Message{
		Src:       a.cfg.ServiceName,
		Dst:       rp.route.Dst,
		Type:      rules.OnRequest,
		RequestID: reqID,
		CallPath:  hopEI,
	}
	reqDecision := a.matcher.Decide(reqMsg)
	a.countFault(reqDecision)

	reqRec := &f.recs[0]
	*reqRec = rp.recProto
	reqRec.Timestamp = f.start
	reqRec.RequestID = reqID
	reqRec.SpanID = spanID
	reqRec.ParentSpanID = parentSpan
	reqRec.EI = hopEI
	reqRec.Kind = eventlog.KindRequest
	reqRec.Method = r.Method
	reqRec.URI = r.URL.RequestURI()
	reqRec.FaultAction = firedAction(reqDecision)
	reqRec.FaultRuleID = firedRuleID(reqDecision)
	a.log(f.recs[:1]...)

	var (
		injected     time.Duration
		faultActions []string
		faultRules   []string
	)
	if reqDecision.Fired {
		faultActions = append(faultActions, string(reqDecision.Rule.Action))
		faultRules = append(faultRules, reqDecision.Rule.ID)
	}

	// Request-side faults.
	bufferReq := rp.wantsMirror(reqID)
	if reqDecision.Fired {
		switch reqDecision.Rule.Action {
		case rules.ActionAbort:
			rp.abort(w, reqDecision, f, injected, faultActions, faultRules)
			return
		case rules.ActionDelay:
			d := reqDecision.Rule.Delay()
			injected += d
			sleepOrDisconnect(r, d)
		case rules.ActionModify:
			bufferReq = true
		}
	}
	var reqBody []byte
	if bufferReq {
		var err error
		reqBody, err = io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
		if err != nil {
			rp.logReply(f, http.StatusBadGateway, injected, faultActions, faultRules, false)
			httpx.WriteError(w, http.StatusBadGateway, "proxy: read request body: %v", err)
			return
		}
		if reqDecision.Fired && reqDecision.Rule.Action == rules.ActionModify {
			reqBody = bytes.ReplaceAll(reqBody,
				[]byte(reqDecision.Rule.SearchBytes),
				[]byte(reqDecision.Rule.ReplaceBytes))
		}
	}

	// Forward upstream.
	resp, err := rp.forward(r, f, reqBody, bufferReq)
	if err != nil {
		rp.logReply(f, http.StatusBadGateway, injected, faultActions, faultRules, false)
		httpx.WriteError(w, http.StatusBadGateway, "proxy: forward to %s: %v", rp.route.Dst, err)
		return
	}

	// Response-side faults. The decision depends only on message metadata,
	// so it is made before deciding how to handle the reply body.
	respMsg := reqMsg
	respMsg.Type = rules.OnResponse
	respDecision := a.matcher.Decide(respMsg)
	a.countFault(respDecision)
	if respDecision.Fired {
		faultActions = append(faultActions, string(respDecision.Rule.Action))
		faultRules = append(faultRules, respDecision.Rule.ID)
	}
	status := resp.StatusCode

	if respDecision.Fired && respDecision.Rule.Action == rules.ActionAbort {
		discardBody(resp.Body)
		if respDecision.Rule.ErrorCode == rules.AbortSeverConnection {
			// The severed reply must still reach the event log: the checker
			// cannot reason about a connection cut it never saw.
			rp.logReply(f, 0, injected, faultActions, faultRules, true)
			rp.sever(w)
			return
		}
		status = respDecision.Rule.ErrorCode
		rp.logReply(f, status, injected, faultActions, faultRules, true)
		body := http.StatusText(status) + "\n"
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		_, _ = io.WriteString(w, body)
		return
	}
	if respDecision.Fired && respDecision.Rule.Action == rules.ActionDelay {
		d := respDecision.Rule.Delay()
		injected += d
		sleepOrDisconnect(r, d)
	}

	if respDecision.Fired && respDecision.Rule.Action == rules.ActionModify {
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		closeErr := resp.Body.Close()
		if err == nil {
			err = closeErr
		}
		if err != nil {
			rp.logReply(f, http.StatusBadGateway, injected, faultActions, faultRules, false)
			httpx.WriteError(w, http.StatusBadGateway, "proxy: read response from %s: %v", rp.route.Dst, err)
			return
		}
		respBody = bytes.ReplaceAll(respBody,
			[]byte(respDecision.Rule.SearchBytes),
			[]byte(respDecision.Rule.ReplaceBytes))
		rp.logReply(f, status, injected, faultActions, faultRules, false)
		copyHeaders(w.Header(), resp.Header)
		// The body was rewritten; the upstream framing headers no longer
		// apply.
		w.Header().Del("Transfer-Encoding")
		w.Header().Set("Content-Length", strconv.Itoa(len(respBody)))
		w.WriteHeader(status)
		_, _ = w.Write(respBody)
		return
	}

	// Streaming fast path: the reply body flows upstream→client through a
	// pooled buffer without ever being held whole in memory.
	rp.logReply(f, status, injected, faultActions, faultRules, false)
	a.nStreamed.Add(1)
	copyHeaders(w.Header(), resp.Header)
	// The reply's trailers: the keys it announced are announced to the
	// client, and once the body has been relayed to its end its trailers
	// follow, all under TrailerPrefix if it sent one it did not announce
	// (as httputil.ReverseProxy does).
	announced := len(resp.Trailer)
	if announced > 0 {
		keys := make([]string, 0, announced)
		for k := range resp.Trailer {
			keys = append(keys, k)
		}
		w.Header()["Trailer"] = keys
	}
	w.WriteHeader(status)
	var flusher http.Flusher
	if flushEach(resp) {
		flusher, _ = w.(http.Flusher)
	}
	buf := relayBuffer(resp.ContentLength)
	ended := relay(w, flusher, resp.Body, *buf)
	releaseBuffer(buf)
	_ = resp.Body.Close()
	if !ended {
		// A reply cut short by either side must reach the client as a
		// cut: returning would let net/http end a chunked body with its
		// last chunk, and the client would read a short body as whole.
		// Aborting drops the connection instead, as
		// httputil.ReverseProxy does.
		panic(http.ErrAbortHandler)
	}
	if len(resp.Trailer) > 0 {
		for k, vs := range resp.Trailer {
			if len(resp.Trailer) != announced {
				k = http.TrailerPrefix + k
			}
			w.Header()[k] = vs
		}
	}
}

// flushEach reports whether a streamed reply reaches the client write by
// write: one of unknown length or an event stream may be read as it
// arrives (SSE, long-poll), so it is flushed as httputil.ReverseProxy
// flushes it. Any other reply leaves flushing to the server's buffering.
func flushEach(resp *http.Response) bool {
	if resp.ContentLength == -1 {
		return true
	}
	mediaType, _, _ := strings.Cut(resp.Header.Get("Content-Type"), ";")
	return strings.EqualFold(strings.TrimSpace(mediaType), "text/event-stream")
}

// relay copies body to w through buf, flushing after every write when
// flusher is non-nil, until either side fails or body ends, and reports
// whether body ended. It is a loop of its own because io.CopyBuffer would
// hand the copy to the ResponseWriter's ReadFrom, which ignores buf and,
// for a reply with a Content-Length, allocates a 32 KiB buffer per reply.
func relay(w io.Writer, flusher http.Flusher, body io.Reader, buf []byte) bool {
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return false
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return err == io.EOF
		}
	}
}

// logReply completes the exchange's reply-side record — the request record
// with the outcome filled in — logs it, and observes the same latency in
// the agent's histogram. Every exit of ServeHTTP calls it exactly once, at
// the instant the reply's status is decided: an exchange's latency is its
// time to reply headers, so the record and the histogram read one clock.
func (rp *routeProxy) logReply(f *flow, status int,
	injected time.Duration, actions, ruleIDs []string, gremlin bool) {

	now := time.Now()
	latency := now.Sub(f.start)
	rp.agent.latency.Observe(latency.Seconds())
	rec := &f.recs[1]
	*rec = f.recs[0]
	rec.Timestamp = now
	rec.Kind = eventlog.KindReply
	rec.Status = status
	rec.LatencyMillis = float64(latency) / float64(time.Millisecond)
	rec.FaultAction = strings.Join(actions, ",")
	rec.FaultRuleID = strings.Join(ruleIDs, ",")
	rec.InjectedDelayMillis = float64(injected) / float64(time.Millisecond)
	rec.GremlinGenerated = gremlin
	rp.agent.log(f.recs[1:]...)
}

// abort terminates a request without forwarding it: either by returning the
// rule's HTTP error code or, for AbortSeverConnection, by severing the TCP
// connection to emulate a crashed process. Either way the reply is logged,
// severed connections as status 0.
func (rp *routeProxy) abort(w http.ResponseWriter, d rules.Decision,
	f *flow, injected time.Duration, actions, ruleIDs []string) {

	severed := d.Rule.ErrorCode == rules.AbortSeverConnection
	status := d.Rule.ErrorCode
	if severed {
		status = 0
	}
	rp.logReply(f, status, injected, actions, ruleIDs, true)
	if severed {
		rp.sever(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	_, _ = io.WriteString(w, http.StatusText(status)+"\n")
}

// sever closes the client connection without writing an HTTP response,
// emulating an abrupt TCP-level failure (Error=-1 in the paper's recipes).
func (rp *routeProxy) sever(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		conn, _, err := hj.Hijack()
		if err == nil {
			_ = conn.Close()
			return
		}
	}
	// Fallback: abort the handler, which closes the connection mid-stream.
	panic(http.ErrAbortHandler)
}

// forward sends the (possibly modified) request to the next upstream
// target — or, when the route has a canary and the request ID matches the
// canary pattern, to the next canary instance, keeping test traffic's side
// effects away from production state (§9).
//
// When buffered is false (no Modify rewrite, no mirror), the inbound body
// is handed straight to the outbound connection instead of being read into
// memory; body must then be nil.
func (rp *routeProxy) forward(r *http.Request, f *flow, body []byte, buffered bool) (*http.Response, error) {
	var target string
	if len(rp.route.CanaryTargets) > 0 && rp.canaryPat.Match(f.recs[0].RequestID) {
		target = rp.route.CanaryTargets[int(rp.canaryNext.Add(1)-1)%len(rp.route.CanaryTargets)]
	} else {
		// Live pool: least-pending replica wins, round-robin among equals.
		// A fully drained pool (every replica unhealthy) fails the exchange,
		// which the caller reports as 502.
		if f.target = rp.pool.pick(); f.target == nil {
			return nil, fmt.Errorf("no live targets (all replicas of %s drained)", rp.route.Dst)
		}
		target = f.target.addr
	}
	// The outbound request is the inbound one re-aimed at the target: same
	// method, context, framing, header map and trailers (a streamed body
	// fills in their values at EOF, before Request.Write sends them).
	out := &f.out
	*out = *r
	f.url = *r.URL
	f.url.Scheme, f.url.Host = "http", target
	out.URL, out.Host, out.RequestURI = &f.url, target, ""
	out.Close = false
	if buffered {
		rp.mirror(r, body)
		// A sized body cannot carry trailers.
		out.ContentLength, out.TransferEncoding, out.Trailer = int64(len(body)), nil, nil
		if len(body) == 0 {
			// An empty body goes as nil: Request.Write cannot tell that a
			// non-nil one of length 0 is empty, and would send it chunked.
			out.Body, out.GetBody = nil, nil
		} else {
			// GetBody lets the body be sent again on a new connection
			// when a kept-alive one turns out stale (canRetry says when).
			out.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
			out.Body, _ = out.GetBody()
		}
	} else if r.ContentLength == 0 {
		// Bodyless request: a nil body keeps the outbound call from being
		// framed as chunked, and lets it be retried on a stale connection.
		out.Body = nil
	}
	// The outbound request carries this hop's span so the callee's agent
	// (and any microservice relaying headers via trace.Propagate) links its
	// own span to ours, and this hop's execution index so the callee's
	// outbound calls extend the causal path.
	trace.Stamp(out.Header, &f.ids)
	delete(out.Header, "Connection")
	return rp.up.roundTrip(out, target)
}

// wantsMirror reports whether this request would be mirrored to a shadow
// deployment — in which case the body must be buffered for the copy.
func (rp *routeProxy) wantsMirror(reqID string) bool {
	return len(rp.route.MirrorTargets) > 0 && rp.mirrorPat.Match(reqID)
}

// discardBody drains (bounded) and closes an upstream reply body that the
// data path will not relay, so the connection can be reused.
func discardBody(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, maxBodyBytes))
	_ = rc.Close()
}

// mirror asynchronously copies the request to the next mirror target
// (shadow deployment); the copy's outcome never affects the live call.
func (rp *routeProxy) mirror(r *http.Request, body []byte) {
	if !rp.wantsMirror(trace.FromRequest(r)) {
		return
	}
	target := rp.route.MirrorTargets[int(rp.mirrorNext.Add(1)-1)%len(rp.route.MirrorTargets)]
	url := "http://" + target + r.URL.RequestURI()
	// Detach from the live request's context: the shadow call must not be
	// cancelled when the live one completes first.
	out, err := http.NewRequest(r.Method, url, bytes.NewReader(body))
	if err != nil {
		return
	}
	// The copy's own header map: the live request goes on to stamp r.Header.
	out.Header = r.Header.Clone()
	out.Header.Del("Connection")
	out.ContentLength = int64(len(body))
	rp.mirrors.Add(1)
	go func() {
		defer rp.mirrors.Done()
		resp, err := rp.up.roundTrip(out, target)
		if err != nil {
			return
		}
		discardBody(resp.Body)
	}()
}

// sleepOrDisconnect sleeps for d but returns early if the caller goes away,
// so huge Hang delays do not pin goroutines after the client disconnects.
func sleepOrDisconnect(r *http.Request, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.Context().Done():
	}
}

// copyHeaders hands src's value slices to dst. src is a reply header the
// data path owns and reads no further; keys from the wire are canonical.
// A reply without a Content-Type gets none: the nil entry keeps net/http
// from sniffing one.
func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		dst[k] = vs
	}
	if _, ok := src["Content-Type"]; !ok {
		dst["Content-Type"] = nil
	}
}

func firedAction(d rules.Decision) string {
	if !d.Fired {
		return ""
	}
	return string(d.Rule.Action)
}

func firedRuleID(d rules.Decision) string {
	if !d.Fired {
		return ""
	}
	return d.Rule.ID
}
