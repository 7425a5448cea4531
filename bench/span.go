package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded at. Spans are
// recorded from the benchmark's own wrappers around each layer's public
// interface; nothing inside the programs under test is instrumented.
type spanKind uint8

const (
	kOp         spanKind = iota // one whole client op (the root of its tree)
	kHandler                    // microservice.Handler invocation
	kSinkLog                    // eventlog.Sink.Log on the agent's request path
	kLogBatch                   // eventlog.Client.LogBatch
	kSelect                     // eventlog.Client.Select / Source.Select
	kCount                      // eventlog.Client.Count
	kClear                      // eventlog.Client.ClearMatching
	kHTTP                       // one round trip of the http.Client under eventlog.Client
	kConnSetup                  // dial through the L4 relay up to the first echoed byte
	kTranslate                  // core.Recipe.Translate
	kApply                      // orchestrator.ApplyOwned
	kLoad                       // recipe test requests
	kFlushAll                   // orchestrator.FlushAll
	kAssert                     // recipe checks
	kRevert                     // Applied.Revert
	kPutRuleSet                 // AgentControl.PutRuleSet
	kGetRuleSet                 // AgentControl.GetRuleSet
	kAgentFlush                 // AgentControl.Flush
	kClearRules                 // AgentControl.ClearRules
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"bench.op", "microservice.handler", "eventlog.sink_log", "eventlog.logbatch",
	"eventlog.select", "eventlog.count", "eventlog.clear", "eventlog.http",
	"streamproxy.conn_setup", "core.translate", "orchestrator.apply", "bench.load",
	"orchestrator.flush_all", "checker.assert", "orchestrator.revert",
	"agentapi.put_ruleset", "agentapi.get_ruleset", "agentapi.flush", "agentapi.clear_rules",
}

// span is one recorded interval. Start and End are nanoseconds since the
// tracer's epoch on the monotonic clock. Op ties the spans of one client
// operation together (0 = background work outside any op). Parent is the
// index of the enclosing span, filled in by resolveParents.
type span struct {
	Kind   spanKind
	Op     uint64
	Start  int64
	End    int64
	Parent int32
}

// tracer collects spans into a preallocated ring, so recording one costs
// three atomic adds and a struct store — no allocation, no lock. A nil
// tracer, or one switched off, records nothing: untraced segments of a
// traced run pay one atomic load per boundary.
//
// A wrapper brackets the call it times with begin and end. Server-side
// wrappers can still be inside that bracket when the client has its
// answer and the segment is over, so open counts the brackets in flight
// and spans waits for them: no span is read while it is being written.
type tracer struct {
	on    atomic.Bool
	open  atomic.Int64
	next  atomic.Uint64
	ring  []span
	epoch time.Time
}

// traceRing bounds a traced run's memory (40 B per span). When a workload
// records more, the ring keeps the most recent spans.
const traceRing = 1 << 18

func newTracer() *tracer {
	return &tracer{ring: make([]span, traceRing), epoch: time.Now()}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a bracket: it returns the current time and true when
// tracing is on, and the caller must then call end (or release) exactly
// once.
func (t *tracer) begin() (start int64, ok bool) {
	if !t.active() {
		return 0, false
	}
	t.open.Add(1)
	return t.now(), true
}

// end records a span from start to now and closes the bracket.
func (t *tracer) end(kind spanKind, op uint64, start int64) {
	t.put(kind, op, start, t.now())
	t.open.Add(-1)
}

// release closes a bracket without recording.
func (t *tracer) release() { t.open.Add(-1) }

// put records a span with explicit times; call it inside a bracket.
func (t *tracer) put(kind spanKind, op uint64, start, end int64) {
	i := t.next.Add(1) - 1
	t.ring[i%uint64(len(t.ring))] = span{Kind: kind, Op: op, Start: start, End: end, Parent: -1}
}

// spans switches tracing off, waits for the brackets still open, and
// returns the recorded spans, oldest first.
func (t *tracer) spans() []span {
	t.on.Store(false)
	for t.open.Load() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	n := t.next.Load()
	if n <= uint64(len(t.ring)) {
		return append([]span(nil), t.ring[:n]...)
	}
	at := n % uint64(len(t.ring))
	return append(append([]span(nil), t.ring[at:]...), t.ring[:at]...)
}

// resolveParents fills in Parent: within one op every span's parent is
// the smallest span of that op enclosing it. An op's work is sequential,
// so its spans nest; a span that merely overlaps its predecessor (a
// reply record logged while the handler is still streaming the body) is
// attached to the span it started inside. Spans with Op 0 stay roots.
// The result is sorted by (Op, Start, longest first).
func resolveParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	var stack []int32
	for i := range spans {
		s := &spans[i]
		s.Parent = -1
		if s.Op == 0 {
			continue
		}
		if i > 0 && spans[i-1].Op != s.Op {
			stack = stack[:0]
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].End <= s.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
		}
		stack = append(stack, int32(i))
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover (children clipped to
// the parent, overlaps between siblings counted once). spans must have
// been through resolveParents.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	// covered[i] is how far into span i its children have been accounted
	// for; children arrive in start order, so a running high-water mark
	// yields the union.
	covered := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		covered[i] = s.Start
	}
	for _, s := range spans {
		p := s.Parent
		if p < 0 {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < covered[p] {
			lo = covered[p]
		}
		if hi > spans[p].End {
			hi = spans[p].End
		}
		if hi > lo {
			self[p] -= hi - lo
			covered[p] = hi
		}
	}
	return self
}

// writeSpans writes the spans as one JSON array of
// {name,start,end,parent,op} objects (times in ns since the tracer epoch,
// parent an index into the array or -1).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	buf := make([]byte, 0, 160)
	_, _ = w.WriteString("[\n")
	for i, s := range spans {
		buf = buf[:0]
		buf = append(buf, `{"name":"`...)
		buf = append(buf, spanKindNames[s.Kind]...)
		buf = append(buf, `","start":`...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, `,"end":`...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.Parent), 10)
		buf = append(buf, `,"op":`...)
		buf = strconv.AppendUint(buf, s.Op, 10)
		buf = append(buf, '}')
		if i < len(spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		_, _ = w.Write(buf)
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// opTree is the analysed view of a traced run: per-op sums of span
// durations and self times by kind, for the ops whose root span survived
// in the ring.
type opTree struct {
	op    uint64
	dur   [numSpanKinds]int64 // summed span durations
	self  [numSpanKinds]int64 // summed self times
	count [numSpanKinds]int32
	// leafDur and leafCount cover only spans with no child span: in a
	// fan-out these are the leaf services' handlers, the one place where
	// a handler's time is all its own.
	leafDur   [numSpanKinds]int64
	leafCount [numSpanKinds]int32
}

// analyse groups resolved spans into per-op summaries. Ops without a
// kOp root (their head was overwritten in the ring) are dropped.
func analyse(spans []span) []opTree {
	self := selfTimes(spans)
	hasChild := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	var out []opTree
	var cur *opTree
	flush := func() {
		if cur != nil && cur.count[kOp] == 1 {
			out = append(out, *cur)
		}
	}
	for i, s := range spans {
		if s.Op == 0 {
			continue
		}
		if cur == nil || cur.op != s.Op {
			flush()
			cur = &opTree{op: s.Op}
		}
		cur.dur[s.Kind] += s.End - s.Start
		cur.self[s.Kind] += self[i]
		cur.count[s.Kind]++
		if !hasChild[i] {
			cur.leafDur[s.Kind] += s.End - s.Start
			cur.leafCount[s.Kind]++
		}
	}
	flush()
	return out
}
