// Package checker implements Gremlin's Assertion Checker: the control-plane
// component that validates a recipe's expectations against the event logs
// collected from the data plane (paper §4.2, Table 3).
//
// The checker exposes three layers, mirroring the paper:
//
//   - Queries (GetRequests, GetReplies) fetch filtered, time-sorted record
//     lists ("RList") from the event store.
//   - Base assertions (NumRequests, ReplyLatency, AtMostRequests,
//     CheckStatus, RequestRate) compute statistics over an RList; boolean
//     ones can be chained with Combine, a state machine in which each
//     assertion consumes the prefix of records that satisfied it.
//   - Pattern checks (HasTimeouts, HasBoundedRetries, HasCircuitBreaker,
//     HasBulkhead) validate the resiliency design patterns of §2.1, built
//     from the base assertions.
//
// Beside them, the upper-bound base assertions also run live: a Bound
// (built from a JSON Spec) consumes the store's record feed one record at
// a time, selecting records with the same predicate as Store.Select, and a
// Monitor fed by Watch reports the first violation while the run is still
// in progress, so a campaign can abort a failing unit early.
//
// The withRule parameter: Gremlin's own fault injections appear in the
// logs. withRule=true evaluates records as the calling service observed
// them — including Gremlin-injected delays and Gremlin-synthesized error
// replies — which is what you want when validating the caller's reaction to
// a staged failure. withRule=false removes Gremlin's interference
// (subtracting injected delays and dropping synthesized replies), exposing
// the callee's untampered behaviour.
package checker

import (
	"fmt"
	"strings"
	"time"

	"gremlin/internal/eventlog"
)

// RList is a time-ordered list of observation records, as returned by the
// queries.
type RList []eventlog.Record

// Checker runs queries and assertions against an event-log source.
type Checker struct {
	source  eventlog.Source
	pattern string
}

// New creates a Checker reading from the given source (an in-process
// eventlog.Store or a remote store via eventlog.Client).
func New(source eventlog.Source) *Checker {
	return &Checker{source: source}
}

// Source exposes the event-log source the checker reads from, so layers
// holding only a Checker (e.g. campaign blast-radius analysis via
// internal/tracing) can run their own queries against the same records.
func (c *Checker) Source() eventlog.Source { return c.source }

// Scoped returns a checker over the same source whose Pattern is pattern:
// the request-ID pattern of the run whose checks it evaluates.
func (c *Checker) Scoped(pattern string) *Checker {
	return &Checker{source: c.source, pattern: pattern}
}

// Pattern is the request-ID pattern the checker is scoped to; "" (an
// unscoped checker) matches every ID.
func (c *Checker) Pattern() string { return c.pattern }

// GetRequests returns all observed requests from src to dst whose request
// ID matches idPattern (Table 3). Empty src, dst, or idPattern match
// anything.
func (c *Checker) GetRequests(src, dst, idPattern string) (RList, error) {
	recs, err := c.source.Select(eventlog.Query{
		Src: src, Dst: dst, Kind: eventlog.KindRequest, IDPattern: idPattern,
	})
	if err != nil {
		return nil, fmt.Errorf("checker: get requests %s->%s: %w", src, dst, err)
	}
	return recs, nil
}

// GetReplies returns all observed replies delivered to src for its calls to
// dst, filtered by request-ID pattern (Table 3). Every completed API call
// produces exactly one reply record carrying the request line, status, and
// latency, so an RList of replies doubles as the list of completed calls.
func (c *Checker) GetReplies(src, dst, idPattern string) (RList, error) {
	recs, err := c.source.Select(eventlog.Query{
		Src: src, Dst: dst, Kind: eventlog.KindReply, IDPattern: idPattern,
	})
	if err != nil {
		return nil, fmt.Errorf("checker: get replies %s->%s: %w", src, dst, err)
	}
	return recs, nil
}

// GetConns returns the conn-close records for relayed src→dst stream
// connections whose connection ID matches idPattern. Every relayed L4
// connection produces exactly one conn-close record carrying the bytes
// moved in each direction, the connection duration, and any stream fault
// that fired, so an RList of conn-closes doubles as the list of completed
// connections.
func (c *Checker) GetConns(src, dst, idPattern string) (RList, error) {
	recs, err := c.source.Select(eventlog.Query{
		Src: src, Dst: dst, Kind: eventlog.KindConnClose, IDPattern: idPattern,
	})
	if err != nil {
		return nil, fmt.Errorf("checker: get conns %s->%s: %w", src, dst, err)
	}
	return recs, nil
}

// CountStreamFaults counts the records in rl that closed with a stream
// fault fired, i.e. carry a fault rule ID starting with ruleIDPrefix. An
// empty prefix counts every faulted connection. Campaign units attribute
// L4 faults this way: stream connections carry relay-minted IDs rather
// than per-run request-ID namespaces, so attribution keys off the
// installed rule's ID instead of the ID pattern.
func CountStreamFaults(rl RList, ruleIDPrefix string) int {
	n := 0
	for _, r := range rl {
		if r.FaultRuleID != "" && strings.HasPrefix(r.FaultRuleID, ruleIDPrefix) {
			n++
		}
	}
	return n
}

// CountRequests reports how many requests from src to dst match
// idPattern without materializing them: against a sharded or remote
// store the count is computed store-side (shard-locally for namespaced
// patterns), so existence and volume checks never copy record bodies.
// limit > 0 stops counting early — an existence check passes limit 1.
func (c *Checker) CountRequests(src, dst, idPattern string, limit int) (int, error) {
	n, err := eventlog.CountRecords(c.source, eventlog.Query{
		Src: src, Dst: dst, Kind: eventlog.KindRequest, IDPattern: idPattern, Limit: limit,
	})
	if err != nil {
		return 0, fmt.Errorf("checker: count requests %s->%s: %w", src, dst, err)
	}
	return n, nil
}

// Destinations returns the distinct destination services that src was
// observed calling, in first-seen order. Pattern checks that must reason
// about "all other dependencies" (HasBulkhead) use it.
func (c *Checker) Destinations(src string) ([]string, error) {
	recs, err := c.source.Select(eventlog.Query{Src: src, Kind: eventlog.KindRequest})
	if err != nil {
		return nil, fmt.Errorf("checker: destinations of %s: %w", src, err)
	}
	seen := make(map[string]bool)
	var dsts []string
	for _, r := range recs {
		if !seen[r.Dst] {
			seen[r.Dst] = true
			dsts = append(dsts, r.Dst)
		}
	}
	return dsts, nil
}

// untouched reports whether a record shows no Gremlin interference.
func untouched(r eventlog.Record) bool {
	return r.FaultAction == "" && !r.GremlinGenerated
}

// counted reports whether a record participates in counting assertions
// under the given withRule mode.
func counted(r eventlog.Record, withRule bool) bool {
	return withRule || untouched(r)
}

// NumRequests computes the number of records in rl (Table 3). A non-zero
// tdelta restricts counting to the window [first, first+tdelta) anchored at
// the first record. withRule=false counts only records untouched by
// Gremlin.
func NumRequests(rl RList, tdelta time.Duration, withRule bool) int {
	if len(rl) == 0 {
		return 0
	}
	var (
		n      int
		cutoff time.Time
	)
	if tdelta > 0 {
		cutoff = rl[0].Timestamp.Add(tdelta)
	}
	for _, r := range rl {
		if tdelta > 0 && !r.Timestamp.Before(cutoff) {
			break
		}
		if counted(r, withRule) {
			n++
		}
	}
	return n
}

// ReplyLatency computes the reply latency for each reply in rl (Table 3).
// withRule=true returns latencies as the caller observed them, including
// Gremlin-injected delays; withRule=false subtracts injected delays and
// drops Gremlin-synthesized replies.
func ReplyLatency(rl RList, withRule bool) []time.Duration {
	var out []time.Duration
	for i := range rl {
		if d, ok := latency(&rl[i], withRule); ok {
			out = append(out, d)
		}
	}
	return out
}

// latency is a reply's latency under the withRule mode; ok is false for a
// record the mode leaves out: a non-reply, or a Gremlin-synthesized reply
// when withRule is false. The batch checks and the live replyLatency bound
// both read latencies through it.
func latency(r *eventlog.Record, withRule bool) (d time.Duration, ok bool) {
	switch {
	case r.Kind != eventlog.KindReply:
		return 0, false
	case withRule:
		return r.Latency(), true
	case r.GremlinGenerated:
		return 0, false
	}
	return r.UntamperedLatency(), true
}

// AtMostRequests checks that at most num records occur within the window
// tdelta anchored at the first record (Table 3).
func AtMostRequests(rl RList, tdelta time.Duration, withRule bool, num int) bool {
	return NumRequests(rl, tdelta, withRule) <= num
}

// CheckStatus checks that at least numMatch records in rl carry the given
// HTTP status (Table 3). Pass status 0 to match severed connections.
func CheckStatus(rl RList, status, numMatch int, withRule bool) bool {
	n := 0
	for _, r := range rl {
		if r.Kind != eventlog.KindReply || !counted(r, withRule) {
			continue
		}
		if r.Status == status {
			n++
			if n >= numMatch {
				return true
			}
		}
	}
	return numMatch <= 0
}

// IsFailureStatus reports whether a reply status indicates a failed call:
// HTTP 4xx/5xx or 0 (severed connection).
func IsFailureStatus(status int) bool {
	return status == 0 || status >= 400
}

// CountFailures counts the reply records in rl with a failure status.
func CountFailures(rl RList, withRule bool) int {
	n := 0
	for _, r := range rl {
		if r.Kind == eventlog.KindReply && counted(r, withRule) && IsFailureStatus(r.Status) {
			n++
		}
	}
	return n
}

// RequestRate computes the average record rate in requests/second over rl's
// time span (Table 3). Lists spanning no measurable time (or a single
// record) report 0.
func RequestRate(rl RList) float64 {
	if len(rl) < 2 {
		return 0
	}
	span := rl[len(rl)-1].Timestamp.Sub(rl[0].Timestamp)
	if span <= 0 {
		return 0
	}
	return float64(len(rl)) / span.Seconds()
}

// faulted reports whether an injected fault landed on a record: an action
// fired, Gremlin synthesized the reply, or it added a delay.
func faulted(r *eventlog.Record) bool {
	return r.FaultAction != "" || r.GremlinGenerated || r.InjectedDelayMillis > 0
}

// CountFaulted counts the records in rl that carry an injected fault — the
// minimal evidence that a staged outage reached the data plane.
func CountFaulted(rl RList) int {
	n := 0
	for i := range rl {
		if faulted(&rl[i]) {
			n++
		}
	}
	return n
}

// CountFaultedAt counts the records in rl that carry an injected fault and
// whose execution index equals ei. Explore units attribute point-scoped
// faults this way: a rule pinned to one call path must be observed firing
// at that call path — the same fault firing elsewhere proves nothing about
// the targeted point.
func CountFaultedAt(rl RList, ei string) int {
	n := 0
	for i := range rl {
		if rl[i].EI == ei && faulted(&rl[i]) {
			n++
		}
	}
	return n
}

// MaxLatency returns the largest observed latency among replies in rl under
// the given withRule mode, or 0 for an empty list.
func MaxLatency(rl RList, withRule bool) time.Duration {
	var max time.Duration
	for i := range rl {
		if d, ok := latency(&rl[i], withRule); ok && d > max {
			max = d
		}
	}
	return max
}
