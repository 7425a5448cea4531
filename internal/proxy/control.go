package proxy

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gremlin/internal/httpx"
	"gremlin/internal/metrics"
	"gremlin/internal/rules"
)

// InfoBody describes an agent to the control plane (GET /v1/info).
// RuleSet carries the agent's current rule-set generation and content
// hash, which is how reconcilers detect drift (a restarted agent reports
// generation zero) without fetching rule bodies.
type InfoBody struct {
	Service   string              `json:"service"`
	AgentID   string              `json:"agentId"`
	Routes    []RouteInfo         `json:"routes"`
	Rules     int                 `json:"rules"`
	RuleSet   rules.RuleSetStatus `json:"ruleset"`
	Stats     Stats               `json:"stats"`
	RuleStats []rules.RuleStat    `json:"ruleStats,omitempty"`
	Extra     map[string]string   `json:"extra,omitempty"`
}

// RuleSetBody is the GET /v1/ruleset response: the full versioned rule
// state plus its content hash.
type RuleSetBody struct {
	Generation uint64       `json:"generation"`
	Hash       string       `json:"hash"`
	Rules      []rules.Rule `json:"rules"`
	// Leased reports whether a TTL timer is armed: the rules will
	// self-expire unless a PUT renews them first.
	Leased bool `json:"leased,omitempty"`
}

// conflictBody is the 409/412 payload: the error plus the agent's current
// version, so a reconciler can retry without an extra round trip.
type conflictBody struct {
	Error   string              `json:"error"`
	Current rules.RuleSetStatus `json:"current"`
}

// RouteInfo is one route as reported by the control API. Layer is "l4"
// for stream-relay routes and empty (implicitly "http") for proxy
// routes, mirroring the rule schema's back-compat convention.
type RouteInfo struct {
	Dst        string      `json:"dst"`
	ListenAddr string      `json:"listenAddr"`
	Layer      rules.Layer `json:"layer,omitempty"`
}

// controlHandler builds the agent's REST control API. This is the
// "well-defined interface to the control plane" of the paper's Table 2:
// rules reach the agent only as a whole versioned rule set (PUT
// /v1/ruleset); DELETE /v1/rules clears them all.
func (a *Agent) controlHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", httpx.Healthz)
	mux.HandleFunc("GET /v1/info", a.handleInfo)
	mux.HandleFunc("GET /v1/ruleset", a.handleGetRuleSet)
	mux.HandleFunc("PUT /v1/ruleset", a.handlePutRuleSet)
	mux.HandleFunc("DELETE /v1/rules", a.handleClearRules)
	mux.HandleFunc("POST /v1/flush", a.handleFlush)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	return mux
}

func (a *Agent) handleInfo(w http.ResponseWriter, _ *http.Request) {
	info := InfoBody{
		Service:   a.cfg.ServiceName,
		AgentID:   a.cfg.agentID(),
		Rules:     a.matcher.Len(),
		RuleSet:   a.matcher.Status(),
		Stats:     a.Stats(),
		RuleStats: a.matcher.RuleStats(),
	}
	for _, rp := range a.routes {
		info.Routes = append(info.Routes, RouteInfo{Dst: rp.route.Dst, ListenAddr: rp.server.Addr()})
	}
	for dst, relay := range a.relays {
		info.Routes = append(info.Routes, RouteInfo{Dst: dst, ListenAddr: relay.Addr(), Layer: rules.LayerL4})
	}
	httpx.WriteJSON(w, http.StatusOK, info)
}

func (a *Agent) handleGetRuleSet(w http.ResponseWriter, _ *http.Request) {
	set := a.matcher.RuleSet()
	if set.Rules == nil {
		set.Rules = []rules.Rule{}
	}
	a.leaseMu.Lock()
	leased := a.leaseTimer != nil
	a.leaseMu.Unlock()
	httpx.WriteJSON(w, http.StatusOK, RuleSetBody{
		Generation: set.Generation,
		Hash:       a.matcher.Hash(),
		Rules:      set.Rules,
		Leased:     leased,
	})
}

// handlePutRuleSet is the declarative install path: an idempotent atomic
// swap of the agent's whole rule state, versioned by generation. An
// If-Match header (the generation the caller observed) turns the apply
// into a compare-and-swap; without it, stale or conflicting generations
// are rejected with 409 and a failed precondition with 412, both carrying
// the agent's current version.
func (a *Agent) handlePutRuleSet(w http.ResponseWriter, r *http.Request) {
	var set rules.RuleSet
	if err := httpx.ReadJSON(w, r, &set); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ifMatch := rules.NoMatch
	if h := strings.Trim(r.Header.Get("If-Match"), `"`); h != "" {
		v, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			httpx.WriteError(w, http.StatusBadRequest, "bad If-Match %q: %v", h, err)
			return
		}
		ifMatch = v
	}
	st, err := a.ApplyRuleSet(set, ifMatch)
	switch {
	case errors.Is(err, rules.ErrPreconditionFailed):
		httpx.WriteJSON(w, http.StatusPreconditionFailed, conflictBody{Error: err.Error(), Current: st})
	case errors.Is(err, rules.ErrStaleGeneration), errors.Is(err, rules.ErrGenerationConflict):
		httpx.WriteJSON(w, http.StatusConflict, conflictBody{Error: err.Error(), Current: st})
	case err != nil:
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
	default:
		httpx.WriteJSON(w, http.StatusOK, st)
	}
}

// handleClearRules drops every rule at the next generation: the
// orchestrator's ClearAll, which must work whatever generation or lease
// an agent holds.
func (a *Agent) handleClearRules(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string]int{"removed": a.matcher.Clear()})
}

func (a *Agent) handleFlush(w http.ResponseWriter, _ *http.Request) {
	if f, ok := a.sink.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil {
			httpx.WriteError(w, http.StatusInternalServerError, "flush: %v", err)
			return
		}
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "flushed"})
}

// handleMetrics renders the agent's state as Prometheus text exposition:
// the data-path counters, per-rule match/injection tallies, the request
// latency histogram, and the log-shipping health gauges.
func (a *Agent) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := a.Stats()
	mw := metrics.NewWriter()
	svc := a.cfg.ServiceName
	mw.Counter("gremlin_agent_proxied_total", "Messages handled on the data path.", float64(st.Proxied), "service", svc)
	mw.Counter("gremlin_agent_aborted_total", "Messages terminated by an Abort rule with an HTTP error code.", float64(st.Aborted), "service", svc)
	mw.Counter("gremlin_agent_severed_total", "Connections cut by Abort rules emulating a crash.", float64(st.Severed), "service", svc)
	mw.Counter("gremlin_agent_delayed_total", "Messages held back by Delay rules.", float64(st.Delayed), "service", svc)
	mw.Counter("gremlin_agent_modified_total", "Messages rewritten by Modify rules.", float64(st.Modified), "service", svc)
	mw.Counter("gremlin_agent_streamed_total", "Replies relayed on the unbuffered fast path.", float64(st.Streamed), "service", svc)
	mw.Counter("gremlin_agent_spans_minted_total", "Span IDs minted for causal tracing, one per proxied hop.", float64(st.SpansMinted), "service", svc)
	mw.Counter("gremlin_agent_ei_truncated_total", "Hops whose execution index hit the depth or byte bound and was marker-terminated instead of grown.", float64(st.EITruncated), "service", svc)
	mw.Gauge("gremlin_agent_ruleset_generation", "Current rule-set generation; reconcilers compare it against the desired generation to detect drift.", float64(a.matcher.Generation()), "service", svc)
	mw.Gauge("gremlin_agent_ruleset_rules", "Rules currently installed.", float64(a.matcher.Len()), "service", svc)
	mw.Counter("gremlin_agent_ruleset_expired_total", "Leased rule sets the agent cleared itself after their TTL lapsed without renewal.", float64(st.RulesetExpirations), "service", svc)
	for _, rs := range a.matcher.RuleStats() {
		mw.Counter("gremlin_rule_matched_total", "Messages that matched a rule's criteria, before probability sampling.", float64(rs.Matched), "service", svc, "rule", rs.ID)
		mw.Counter("gremlin_rule_fired_total", "Fault injections actually applied by a rule.", float64(rs.Fired), "service", svc, "rule", rs.ID)
	}
	mw.Histogram("gremlin_agent_request_duration_seconds", "Time to reply headers per proxied exchange, including injected delays.", a.latency.Snapshot(), "service", svc)
	mw.Gauge("gremlin_agent_log_dropped", "Records dropped by the log-shipping buffer.", float64(st.LogDropped), "service", svc)
	mw.Gauge("gremlin_agent_log_flushes", "Batches shipped to the event store.", float64(st.LogFlushes), "service", svc)
	mw.Gauge("gremlin_agent_log_retries", "Failed ship attempts that were retried.", float64(st.LogRetries), "service", svc)
	mw.Gauge("gremlin_agent_log_batch_records", "Records shipped in successful flush batches.", float64(st.LogBatchRecords), "service", svc)
	mw.Gauge("gremlin_agent_log_max_batch", "Largest batch shipped in one flush.", float64(st.LogMaxBatch), "service", svc)
	// L4 plane. Emitted (zero-valued) even without L4 routes so the
	// metric inventory is uniform across agents.
	l4 := a.L4Stats()
	mw.Counter("gremlin_agent_l4_connections_total", "TCP connections accepted by the agent's stream relays.", float64(l4.Conns), "service", svc)
	mw.Gauge("gremlin_agent_l4_open_connections", "Currently relayed TCP connections.", float64(l4.Open), "service", svc)
	mw.Counter("gremlin_agent_l4_bytes_total", "Bytes relayed by the L4 plane, by direction.", float64(l4.BytesUp), "service", svc, "direction", "up")
	mw.Counter("gremlin_agent_l4_bytes_total", "Bytes relayed by the L4 plane, by direction.", float64(l4.BytesDown), "service", svc, "direction", "down")
	for _, fam := range []struct {
		action string
		count  int64
	}{
		{"sever", l4.Severed},
		{"halfopen", l4.HalfOpened},
		{"throttle", l4.Throttled},
		{"jitter", l4.Jittered},
		{"refuse", l4.Refused},
		{"connect_delay", l4.ConnectDelayed},
	} {
		mw.Counter("gremlin_agent_l4_faults_total", "Stream faults actuated by the L4 plane, by action.", float64(fam.count), "service", svc, "action", fam.action)
	}
	mw.Serve(w)
}

// InstallRules validates and installs rules on an in-process agent, at the
// next generation; the wire has no such call. Every rule must name this
// agent's service as its source and one of the agent's routes as its
// destination — a mismatch indicates a mis-targeted rule.
func (a *Agent) InstallRules(batch ...rules.Rule) error {
	for _, rule := range batch {
		if err := a.validateTarget(rule); err != nil {
			return err
		}
	}
	return a.matcher.Install(batch...)
}

// validateTarget checks that a rule belongs on this agent at all: the
// Src must be this service and the Dst a route on the rule's layer (an
// L4 rule can only actuate on a stream relay, an HTTP rule only on a
// proxy route).
func (a *Agent) validateTarget(rule rules.Rule) error {
	if err := rule.Validate(); err != nil {
		return err
	}
	if rule.Src != a.cfg.ServiceName {
		return fmt.Errorf("proxy: rule %q targets source %q but this agent serves %q",
			rule.ID, rule.Src, a.cfg.ServiceName)
	}
	if rule.EffectiveLayer() == rules.LayerL4 {
		if _, ok := a.relays[rule.Dst]; !ok {
			return fmt.Errorf("proxy: l4 rule %q targets destination %q but agent for %q has no such l4 route",
				rule.ID, rule.Dst, a.cfg.ServiceName)
		}
		return nil
	}
	if _, ok := a.routes[rule.Dst]; !ok {
		return fmt.Errorf("proxy: rule %q targets destination %q but agent for %q has no such route",
			rule.ID, rule.Dst, a.cfg.ServiceName)
	}
	return nil
}

// ApplyRuleSet atomically replaces the agent's whole rule state with a
// versioned rule set (see rules.Matcher.ApplyRuleSet for the
// generation/If-Match semantics). Any PUT — including an identical no-op
// re-send — renews the set's lease when it carries a TTL; a lapsed lease
// makes the agent clear its rules itself.
func (a *Agent) ApplyRuleSet(set rules.RuleSet, ifMatch uint64) (rules.RuleSetStatus, error) {
	for _, rule := range set.Rules {
		if err := a.validateTarget(rule); err != nil {
			return a.matcher.Status(), err
		}
	}
	// leaseMu spans the apply and the timer update so a racing PUT cannot
	// leave a timer armed for a rule set it did not ship.
	a.leaseMu.Lock()
	defer a.leaseMu.Unlock()
	st, err := a.matcher.ApplyRuleSet(set, ifMatch)
	if err != nil {
		return st, err
	}
	if a.leaseTimer != nil {
		a.leaseTimer.Stop()
		a.leaseTimer = nil
	}
	if ttl := set.TTL(); ttl > 0 && len(set.Rules) > 0 {
		a.leaseTimer = time.AfterFunc(ttl, a.expireRuleSet)
	}
	return st, nil
}

// expireRuleSet fires when a leased rule set was not renewed in time: the
// agent clears all rules itself (a versioned compare-and-swap on the
// generation it is expiring, so a PUT that slipped in concurrently — and
// re-armed or disarmed the lease — is never clobbered).
func (a *Agent) expireRuleSet() {
	a.leaseMu.Lock()
	defer a.leaseMu.Unlock()
	cur := a.matcher.Status()
	if cur.Rules == 0 {
		return
	}
	if _, err := a.matcher.ApplyRuleSet(rules.RuleSet{Generation: cur.Generation + 1}, cur.Generation); err == nil {
		a.nExpired.Add(1)
	}
}
