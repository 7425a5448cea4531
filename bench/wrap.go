package main

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/microservice"
	"gremlin/internal/orchestrator"
	"gremlin/internal/proxy"
	"gremlin/internal/rules"
	"gremlin/internal/trace"
)

// Every wrapper here sits on an interface a layer already exposes and is
// installed only in a traced run; the end-to-end run wires the bare
// values. A wrapper whose tracer is off forwards at the cost of one
// atomic load.

// requestID builds "<class>-<seed>-<n>": the class prefix is what rules
// match on, the trailing op number is what ties spans recorded on the
// server side back to the client op.
func requestID(class string, seed int64, n uint64) string {
	b := make([]byte, 0, len(class)+24)
	b = append(b, class...)
	b = append(b, '-')
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, n, 10)
	return string(b)
}

// opOfID recovers the op number from a request ID built by requestID
// (0 when the ID has no numeric tail). It does not allocate.
func opOfID(id string) uint64 {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == len(id) || i == 0 || id[i-1] != '-' {
		return 0
	}
	var n uint64
	for _, c := range []byte(id[i:]) {
		n = n*10 + uint64(c-'0')
	}
	return n
}

// tracedSink times Sink.Log where the agent calls it: on the request
// path. Embedding the BufferedSink keeps Flush and the shipping-health
// counters visible to the agent's control API.
type tracedSink struct {
	*eventlog.BufferedSink
	tr      *tracer
	records atomic.Int64 // records logged while tracing was on
}

func (s *tracedSink) Log(recs ...eventlog.Record) error {
	t0, traced := s.tr.begin()
	err := s.BufferedSink.Log(recs...)
	if traced {
		s.records.Add(int64(len(recs)))
		s.tr.end(kSinkLog, opOfID(recs[0].RequestID), t0)
	}
	return err
}

// tracedShipper sits between a BufferedSink and the eventlog.Client it
// ships through. It offers LogBatch, so the sink keeps using the batch
// path, and measures how old a batch's first record is once the store
// has acknowledged it — the flush lag an assertion would wait out.
type tracedShipper struct {
	c     *eventlog.Client
	tr    *tracer
	lagNs atomic.Int64
	n     atomic.Int64
}

func (s *tracedShipper) Log(recs ...eventlog.Record) error { return s.LogBatch(recs) }

func (s *tracedShipper) LogBatch(recs []eventlog.Record) error {
	t0, traced := s.tr.begin()
	err := s.c.LogBatch(recs)
	if traced {
		s.lagNs.Add(int64(time.Since(recs[0].Timestamp)))
		s.n.Add(1)
		s.tr.end(kLogBatch, 0, t0)
	}
	return err
}

// tracedSource times and counts the checker's reads.
type tracedSource struct {
	src     eventlog.Source
	tr      *tracer
	calls   atomic.Int64
	records atomic.Int64
}

func (s *tracedSource) Select(q eventlog.Query) ([]eventlog.Record, error) {
	t0, traced := s.tr.begin()
	recs, err := s.src.Select(q)
	if traced {
		s.calls.Add(1)
		s.records.Add(int64(len(recs)))
		s.tr.end(kSelect, currentOp.Load(), t0)
	}
	return recs, err
}

// currentOp is the op a sequential workload (one client) is executing;
// wrappers that see no request ID attribute their spans to it.
var currentOp atomic.Uint64

// tracedControl times the orchestrator's calls to one agent's control
// API. It is installed through orchestrator.WithDialer.
type tracedControl struct {
	inner orchestrator.AgentControl
	tr    *tracer
	calls *atomic.Int64
}

func (c *tracedControl) span(kind spanKind) func() {
	t0, traced := c.tr.begin()
	if !traced {
		return func() {}
	}
	c.calls.Add(1)
	return func() { c.tr.end(kind, currentOp.Load(), t0) }
}

func (c *tracedControl) GetRuleSet(ctx context.Context) (proxy.RuleSetBody, error) {
	defer c.span(kGetRuleSet)()
	return c.inner.GetRuleSet(ctx)
}

func (c *tracedControl) PutRuleSet(ctx context.Context, set rules.RuleSet, ifMatch uint64) (rules.RuleSetStatus, error) {
	defer c.span(kPutRuleSet)()
	return c.inner.PutRuleSet(ctx, set, ifMatch)
}

func (c *tracedControl) ClearRules(ctx context.Context) (int, error) {
	defer c.span(kClearRules)()
	return c.inner.ClearRules(ctx)
}

func (c *tracedControl) Flush(ctx context.Context) error {
	defer c.span(kAgentFlush)()
	return c.inner.Flush(ctx)
}

// tracedHandler times a service's Handler, attributing the span to the
// op named by the request's ID.
func tracedHandler(h microservice.Handler, tr *tracer) microservice.Handler {
	if tr == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request, call *microservice.Caller) {
		t0, traced := tr.begin()
		h(w, r, call)
		if traced {
			tr.end(kHandler, opOfID(r.Header.Get(trace.HeaderRequestID)), t0)
		}
	}
}

// tracedTransport times each HTTP round trip of the client handed to
// eventlog.NewClient, up to the response headers. eventlog.Client builds
// its own requests and offers no way to tag them, so each bench client
// owns one transport and publishes the op it is executing in op.
type tracedTransport struct {
	rt http.RoundTripper
	tr *tracer
	op *atomic.Uint64
}

func (t *tracedTransport) CloseIdleConnections() {
	if c, ok := t.rt.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0, traced := t.tr.begin()
	resp, err := t.rt.RoundTrip(r)
	if traced {
		t.tr.end(kHTTP, t.op.Load(), t0)
	}
	return resp, err
}
