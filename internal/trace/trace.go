// Package trace provides request-ID generation and propagation helpers,
// plus the per-hop span headers that turn flat request IDs into causal
// trees.
//
// Microservice applications commonly assign a globally unique ID to every
// user request and propagate it to downstream services via a message header
// (the paper cites Dapper and Zipkin). Gremlin agents use this ID to confine
// fault injection and observation logging to specific request flows, e.g.
// synthetic test traffic carrying IDs that match the pattern "test-*".
//
// On top of the flat request ID, every Gremlin agent mints a span ID per
// proxied hop and forwards it downstream (HeaderSpan); the receiving
// service relays it on its own outbound calls (Propagate), where the next
// agent reads it as the parent of the span it mints. The resulting
// parent/child links let internal/tracing reassemble each request flow into
// a Dapper-style trace tree instead of an unordered record bag.
package trace

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
)

// HeaderRequestID is the header used to propagate the request ID between
// microservices and through Gremlin agents. Every header constant here is
// in canonical MIME form, so Get/Set/Del allocate no canonicalised key and
// Stamp can index the map directly; the wire is case-insensitive.
const HeaderRequestID = "X-Gremlin-Id"

// HeaderSpan carries the span ID of the hop that delivered a request: the
// agent proxying a hop mints a fresh span ID, stamps it on the outbound
// request, and the callee's own outbound calls relay it (Propagate) so the
// next agent can use it as the parent span.
const HeaderSpan = "X-Gremlin-Span"

// HeaderParentSpan carries the parent span of the hop named by HeaderSpan.
// It is informational for downstream debugging; trace assembly links spans
// through the (SpanID, ParentSpanID) pairs each agent logs.
const HeaderParentSpan = "X-Gremlin-Parent-Span"

// TestIDPrefix is the conventional prefix for synthetic test traffic. Rules
// installed by recipes default to matching the pattern "test-*" so that
// production requests pass through untouched.
const TestIDPrefix = "test-"

// globalSalt derives process-unique salts for generators constructed
// without an rng, so that two nil-rng generators never share a salt.
var globalSalt atomic.Uint64

// Generator produces unique request (or span) IDs with a fixed prefix. The
// zero value is not usable; construct with NewGenerator. Generator is safe
// for concurrent use.
//
// Every ID has the shape
//
//	<prefix><6 hex salt chars>-<decimal counter>
//
// Because the salt is always exactly six hex characters (no dashes) and
// the counter is decimal digits only, two generators with distinct
// prefixes can never emit the same ID, even when one prefix extends the
// other (e.g. "camp-" and "camp-1-"): aligning the two shapes would
// require a dash inside the salt or a non-digit inside the counter.
// Campaigns rely on this to keep per-run ID namespaces disjoint in a
// shared event store. Two generators sharing a prefix are disjoint as
// long as their salts differ — guaranteed for nil-rng generators in one
// process, probabilistic for seeded ones.
type Generator struct {
	prefix string // caller's prefix plus "<salt>-": everything but the counter
	ctr    atomic.Uint64
}

// NewGenerator returns a Generator whose IDs carry the given prefix
// (typically TestIDPrefix). The prefix must be non-empty — an unprefixed
// generator would defeat the pattern-based namespace isolation every
// consumer of these IDs depends on — and an empty prefix panics.
//
// The rng seeds the generator's salt; pass a deterministic rand.Rand in
// tests for reproducible IDs. A nil rng draws the salt from a
// process-global sequence instead, so distinct generators in one process
// still never collide; cross-process uniqueness requires a seeded rng.
func NewGenerator(prefix string, rng *rand.Rand) *Generator {
	if prefix == "" {
		panic("trace: NewGenerator requires a non-empty prefix")
	}
	var salt uint64
	if rng != nil {
		salt = rng.Uint64() % 0xffffff
	} else {
		salt = globalSalt.Add(1) % 0xffffff
	}
	return &Generator{prefix: fmt.Sprintf("%s%06x-", prefix, salt)}
}

// Next returns a fresh unique ID: one allocation, the returned string.
func (g *Generator) Next() string {
	var scratch [64]byte
	b := append(scratch[:0], g.prefix...)
	return string(strconv.AppendUint(b, g.ctr.Add(1), 10))
}

// FromRequest extracts the request ID from an HTTP request, returning the
// empty string if none is present.
func FromRequest(r *http.Request) string {
	return r.Header.Get(HeaderRequestID)
}

// SetRequestID stamps the request ID onto an outgoing HTTP request.
func SetRequestID(r *http.Request, id string) {
	if id != "" {
		r.Header.Set(HeaderRequestID, id)
	}
}

// SpanFromRequest extracts the span ID of the hop that delivered the
// request ("" if none). For a Gremlin agent this is the parent of the span
// it is about to mint.
func SpanFromRequest(r *http.Request) string {
	return r.Header.Get(HeaderSpan)
}

// SetSpan stamps span identity onto an outgoing request: spanID becomes
// HeaderSpan and parentID becomes HeaderParentSpan. Empty values delete
// the corresponding header rather than leaving a stale inherited value —
// agents rewrite both on every hop.
func SetSpan(r *http.Request, spanID, parentID string) {
	if spanID == "" {
		r.Header.Del(HeaderSpan)
	} else {
		r.Header.Set(HeaderSpan, spanID)
	}
	if parentID == "" {
		r.Header.Del(HeaderParentSpan)
	} else {
		r.Header.Set(HeaderParentSpan, parentID)
	}
}

// Stamp is SetSpan plus SetEI for a hop with per-exchange storage: the
// one-element value slices are cut from vals — {span ID, parent span ID,
// execution index}, which must outlive h — not allocated per header.
func Stamp(h http.Header, vals *[3]string) {
	for i, key := range [...]string{HeaderSpan, HeaderParentSpan, HeaderEI} {
		if vals[i] == "" {
			delete(h, key)
		} else {
			h[key] = vals[i : i+1 : i+1]
		}
	}
}

// Propagate copies the flow identity — the request ID, the span headers,
// and the execution index — from an inbound request to an outbound
// request, preserving both the flat flow ID and the causal chain across a
// microservice hop. It returns the propagated request ID ("" when the
// inbound request carried none).
func Propagate(in *http.Request, out *http.Request) string {
	id := FromRequest(in)
	SetRequestID(out, id)
	SetSpan(out, in.Header.Get(HeaderSpan), in.Header.Get(HeaderParentSpan))
	SetEI(out, in.Header.Get(HeaderEI))
	return id
}
