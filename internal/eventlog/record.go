// Package eventlog implements Gremlin's centralized observation store.
//
// During a test, Gremlin agents log every API call they proxy — the message
// timestamp and request ID, parts of the message (status code, request
// URI), and any fault actions applied (paper §4.1 "Logging observations").
// The control plane's Assertion Checker queries this store to validate the
// assertions in a recipe.
//
// The paper ships agent logs through logstash into Elasticsearch; this
// package provides the equivalent: an in-memory indexed store with an HTTP
// ingest/query API (Server) and a Go client (Client). The checker only
// depends on the Source interface, so tests can also query a Store directly
// in-process.
package eventlog

import (
	"time"
)

// Kind distinguishes the two halves of an HTTP exchange in the log, and
// the two endpoints of an L4 connection's lifetime.
type Kind string

// Record kinds. Request/reply pair up HTTP exchanges; conn-open and
// conn-close bracket one relayed L4 connection (shared RequestID = the
// relay's connection ID).
const (
	KindRequest   Kind = "request"
	KindReply     Kind = "reply"
	KindConnOpen  Kind = "conn-open"
	KindConnClose Kind = "conn-close"
)

// Record is one observation logged by a Gremlin agent: either a request
// forwarded from Src to Dst, or the corresponding reply as delivered back
// to Src.
type Record struct {
	// Seq is a store-assigned sequence number, increasing in append order
	// within a shard and never issued twice by a store: a durable store
	// reopens past the highest seq its log ever held, cleared records'
	// included. Zero until the record is appended; a seq a sender sets is
	// replaced. It breaks timestamp ties so queries have a stable total
	// order.
	Seq uint64 `json:"seq,omitempty"`

	// Timestamp is when the agent observed the message.
	Timestamp time.Time `json:"ts"`

	// RequestID is the flow ID from the message headers ("" if absent).
	RequestID string `json:"requestId,omitempty"`

	// SpanID identifies the proxied hop that produced this record; the
	// agent mints one span ID per exchange, so a hop's request and reply
	// records share it. Empty on records logged before span propagation
	// existed — trace assembly falls back to timestamp nesting for those.
	SpanID string `json:"spanId,omitempty"`

	// ParentSpanID is the span of the hop that delivered the request to
	// the calling service, as read from the inbound HeaderSpan ("" at the
	// application edge).
	ParentSpanID string `json:"parentSpanId,omitempty"`

	// EI is the execution index of this hop: the causal call path from
	// the system edge down to and including this call, in canonical
	// X-Gremlin-EI wire form. Empty on records logged before execution
	// indexing existed, and on L4 connection records.
	EI string `json:"ei,omitempty"`

	// Src and Dst are the logical caller and callee service names.
	Src string `json:"src"`
	Dst string `json:"dst"`

	// Kind is request or reply.
	Kind Kind `json:"kind"`

	// Method and URI describe the request line.
	Method string `json:"method,omitempty"`
	URI    string `json:"uri,omitempty"`

	// Status is the HTTP status delivered to Src (replies only).
	Status int `json:"status,omitempty"`

	// LatencyMillis is the reply latency as observed by Src, including any
	// Gremlin-injected delay (replies only).
	LatencyMillis float64 `json:"latencyMillis,omitempty"`

	// FaultAction names the fault primitive applied to this message, if
	// any ("abort", "delay", "modify").
	FaultAction string `json:"faultAction,omitempty"`

	// FaultRuleID identifies the rule that fired.
	FaultRuleID string `json:"faultRuleId,omitempty"`

	// InjectedDelayMillis is the delay Gremlin added to this exchange.
	InjectedDelayMillis float64 `json:"injectedDelayMillis,omitempty"`

	// GremlinGenerated marks replies synthesized by the agent itself
	// (aborts) rather than produced by Dst. Assertion queries with
	// withRule=false exclude these to recover the callee's untampered
	// behaviour.
	GremlinGenerated bool `json:"gremlinGenerated,omitempty"`

	// Agent identifies the reporting Gremlin agent instance.
	Agent string `json:"agent,omitempty"`

	// BytesUp and BytesDown are the byte counts an L4 relay moved
	// downstream→upstream and upstream→downstream over the connection's
	// lifetime (conn-close records only). On conn-close, LatencyMillis
	// holds the connection's total duration.
	BytesUp   int64 `json:"bytesUp,omitempty"`
	BytesDown int64 `json:"bytesDown,omitempty"`
}

// Before reports whether r precedes other in the store's total order
// (timestamp, then sequence number).
func (r Record) Before(other Record) bool {
	if !r.Timestamp.Equal(other.Timestamp) {
		return r.Timestamp.Before(other.Timestamp)
	}
	return r.Seq < other.Seq
}

// Latency returns the observed reply latency as a duration.
func (r Record) Latency() time.Duration {
	return time.Duration(r.LatencyMillis * float64(time.Millisecond))
}

// InjectedDelay returns the Gremlin-injected delay as a duration.
func (r Record) InjectedDelay() time.Duration {
	return time.Duration(r.InjectedDelayMillis * float64(time.Millisecond))
}

// UntamperedLatency returns the reply latency with Gremlin's injected delay
// removed: an estimate of what Src would have observed had the fault not
// been injected.
func (r Record) UntamperedLatency() time.Duration {
	d := r.Latency() - r.InjectedDelay()
	if d < 0 {
		return 0
	}
	return d
}
