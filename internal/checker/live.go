package checker

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/metrics"
	"gremlin/internal/pattern"
)

// Spec is the JSON form of one live bound, as consumed by gremlin-watch's
// -assert file and gremlin-campaign's -live-asserts. Example:
//
//	[
//	  {"type": "checkStatus", "src": "gateway", "dst": "payments",
//	   "status": -1, "max": 0},
//	  {"type": "replyLatency", "src": "gateway", "dst": "payments",
//	   "quantile": 0.99, "maxLatencyMillis": 250, "windowMillis": 10000}
//	]
type Spec struct {
	// Type selects the bound: "numRequests", "checkStatus",
	// "requestRate", or "replyLatency".
	Type string `json:"type"`

	// Src, Dst, and Pattern filter the records the bound sees (empty
	// matches anything; Pattern is the shared request-ID glob/"re:" form).
	Src     string `json:"src,omitempty"`
	Dst     string `json:"dst,omitempty"`
	Pattern string `json:"pattern,omitempty"`

	// WindowMillis is the sliding-window span (0 = whole run; requestRate
	// requires it).
	WindowMillis float64 `json:"windowMillis,omitempty"`

	// Max is the bound: a request count for numRequests, an occurrence
	// count for checkStatus (both whole numbers), requests/second for
	// requestRate.
	Max float64 `json:"max,omitempty"`

	// Status is checkStatus's reply status to count (-1 = any failure,
	// 0 = severed connections).
	Status int `json:"status,omitempty"`

	// Quantile and MaxLatencyMillis configure replyLatency: the quantile
	// (0 < q <= 1; defaults to 1, the max) and its ceiling.
	Quantile         float64 `json:"quantile,omitempty"`
	MaxLatencyMillis float64 `json:"maxLatencyMillis,omitempty"`

	// WithRule selects the checker's latency mode for replyLatency: true
	// judges caller-observed latencies, injected delays included.
	WithRule bool `json:"withRule,omitempty"`
}

// LoadSpecs reads a JSON array of specs and returns them once each has
// built. It rejects unknown fields, so a misspelled bound cannot silently
// read as 0.
func LoadSpecs(r io.Reader) ([]Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var specs []Spec
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("checker: decode assertion specs: %w", err)
	}
	if _, err := BuildAll(specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// BuildAll builds one fresh bound per spec, naming the first spec that
// fails. Bounds are stateful, so each run or watch builds its own set.
func BuildAll(specs []Spec) ([]*Bound, error) {
	bounds := make([]*Bound, len(specs))
	for i, s := range specs {
		b, err := Build(s)
		if err != nil {
			return nil, fmt.Errorf("checker: spec %d: %w", i, err)
		}
		bounds[i] = b
	}
	return bounds, nil
}

// Bound is the live form of Table 3's upper bounds: it consumes the record
// feed one record at a time and fires the first time a stream prefix
// exceeds the bound. Only upper bounds are decidable live — a prefix that
// exceeds one stays exceeded whatever arrives later — so lower bounds and
// the multi-step pattern checks stay with the batch checker.
//
// Per Spec.Type it bounds, within the window, the count of src→dst
// requests (numRequests), the count of replies with a status (checkStatus;
// -1 counts every IsFailureStatus reply), the request rate (requestRate),
// or a reply-latency quantile (replyLatency, estimated by a
// metrics.Histogram). A Bound is not safe for concurrent use; a Monitor
// serializes it.
type Bound struct {
	spec  Spec
	sel   eventlog.Query // src, dst and record kind
	pat   pattern.Pattern
	limit float64 // spec.Max, or replyLatency's ceiling in seconds
	q     float64 // replyLatency's quantile
	w     window
	fired bool
}

// Build constructs the bound a spec describes, rejecting a spec whose
// bound would be meaningless: a negative window, a negative or fractional
// count, a non-positive rate or latency ceiling, a window too long for a
// time.Duration, a latency ceiling at or above the histogram's top bound
// (it could never fire), or a quantile outside (0,1].
func Build(s Spec) (*Bound, error) {
	pat, err := pattern.Compile(s.Pattern)
	if err != nil {
		return nil, fmt.Errorf("checker: bad pattern: %w", err)
	}
	if !(s.WindowMillis >= 0 && s.WindowMillis <= maxMillis) {
		return nil, fmt.Errorf("checker: %s windowMillis %v is negative or out of range", s.Type, s.WindowMillis)
	}
	win := millis(s.WindowMillis)
	b := &Bound{
		spec:  s,
		sel:   eventlog.Query{Src: s.Src, Dst: s.Dst, Kind: eventlog.KindRequest},
		pat:   pat,
		limit: s.Max,
		w:     window{span: win},
	}
	switch s.Type {
	case "numRequests", "checkStatus":
		if s.Max < 0 || s.Max != math.Trunc(s.Max) {
			return nil, fmt.Errorf("checker: %s max %v is not a whole number >= 0", s.Type, s.Max)
		}
		if s.Type == "checkStatus" {
			b.sel.Kind = eventlog.KindReply
		}
	case "requestRate":
		if win <= 0 {
			return nil, fmt.Errorf("checker: requestRate needs a positive window, got %v", win)
		}
		if !(s.Max > 0) {
			return nil, fmt.Errorf("checker: requestRate needs a positive bound, got %v", s.Max)
		}
	case "replyLatency":
		b.sel.Kind = eventlog.KindReply
		b.q = s.Quantile
		if b.q == 0 {
			b.q = 1
		}
		if !(b.q > 0 && b.q <= 1) {
			return nil, fmt.Errorf("checker: replyLatency quantile %v outside (0,1]", b.q)
		}
		// Range-check before converting: an out-of-range float to int64
		// conversion is platform-dependent.
		if !(s.MaxLatencyMillis > 0 && s.MaxLatencyMillis <= maxMillis) || millis(s.MaxLatencyMillis) <= 0 {
			return nil, fmt.Errorf("checker: replyLatency maxLatencyMillis %v is not positive or out of range", s.MaxLatencyMillis)
		}
		b.limit = millis(s.MaxLatencyMillis).Seconds()
		if b.limit >= metrics.TopBound {
			return nil, fmt.Errorf("checker: replyLatency maxLatencyMillis %v could never fire: latency quantiles read at most %v", s.MaxLatencyMillis, time.Duration(metrics.TopBound)*time.Second)
		}
		b.w.hist = new(metrics.Histogram)
	default:
		return nil, fmt.Errorf("checker: unknown assertion type %q", s.Type)
	}
	return b, nil
}

// Observe consumes the next record from the feed and returns a non-nil
// Violation the first time the bound is crossed; afterwards it stays
// silent (a violated bound stays violated).
func (b *Bound) Observe(rec eventlog.Record) *Violation {
	if b.fired || !eventlog.Matches(&rec, b.sel, b.pat) {
		return nil
	}
	var v float64
	switch b.spec.Type {
	case "checkStatus":
		want := b.spec.Status
		if (want < 0 && !IsFailureStatus(rec.Status)) || (want >= 0 && rec.Status != want) {
			return nil
		}
	case "replyLatency":
		d, ok := latency(&rec, b.spec.WithRule)
		if !ok {
			return nil
		}
		v = d.Seconds()
	}
	if !b.w.admit(rec.Timestamp, v) {
		return nil
	}
	got := float64(b.w.len())
	switch b.spec.Type {
	case "requestRate":
		got /= b.w.span.Seconds()
	case "replyLatency":
		got, _ = b.w.hist.Quantile(b.q) // never empty: a sample was just admitted
	}
	if got <= b.limit {
		return nil
	}
	b.fired = true
	return &Violation{Assertion: b.spec.Type, Detail: b.detail(got), Record: rec, Time: rec.Timestamp}
}

// detail renders the observed value against the bound.
func (b *Bound) detail(got float64) string {
	s := b.spec
	edge := orAny(s.Src) + "->" + orAny(s.Dst)
	switch s.Type {
	case "numRequests":
		return fmt.Sprintf("%.0f requests %s exceed the bound of %.0f%s", got, edge, s.Max, inWindow(b.w.span))
	case "checkStatus":
		what := fmt.Sprintf("status-%d replies", s.Status)
		if s.Status < 0 {
			what = "failure replies"
		}
		return fmt.Sprintf("%.0f %s %s exceed the bound of %.0f%s", got, what, edge, s.Max, inWindow(b.w.span))
	case "requestRate":
		return fmt.Sprintf("%.1f req/s %s exceeds the bound of %.1f req/s over %v", got, edge, s.Max, b.w.span)
	default:
		return fmt.Sprintf("p%g reply latency %s is %.1fms, exceeding the bound of %v%s",
			b.q*100, edge, got*1000, millis(s.MaxLatencyMillis), inWindow(b.w.span))
	}
}

// window holds the (timestamp, value) samples of the last span of record
// time, (newest − span, newest], where newest is the largest timestamp
// admitted so far. Record time rather than wall time keeps evaluation
// deterministic under replay. Keying the window to the newest timestamp
// rather than the arriving one matters because the feed is not in
// timestamp order: an agent stamps a request record with its start time
// but ships it after the reply, and agents flush independently.
type window struct {
	span    time.Duration // 0 = unbounded (whole run)
	samples []sample      // samples[head:] are live; in timestamp order when span > 0
	head    int
	// hist, when set, mirrors the live values so a quantile can be read.
	hist *metrics.Histogram
}

type sample struct {
	ts time.Time
	v  float64
}

// admit adds a sample and evicts the samples that fall out of the window.
// It reports false, admitting nothing, for a sample already older than
// the window.
func (w *window) admit(ts time.Time, v float64) bool {
	// A whole-run window evicts nothing, so only a bounded one keeps order.
	live := w.samples[w.head:]
	if n := len(live); w.span > 0 && n > 0 && ts.Before(live[n-1].ts) {
		if !ts.After(live[n-1].ts.Add(-w.span)) {
			return false
		}
		// Late but inside the window: insert in order, after any equal
		// timestamps; the newest timestamp and so the window are unchanged.
		i := w.head + sort.Search(n, func(i int) bool { return ts.Before(live[i].ts) })
		w.samples = append(w.samples, sample{})
		copy(w.samples[i+1:], w.samples[i:])
		w.samples[i] = sample{ts, v}
	} else {
		if w.span > 0 {
			cutoff := ts.Add(-w.span)
			for w.head < len(w.samples) && !w.samples[w.head].ts.After(cutoff) {
				if w.hist != nil {
					w.hist.Remove(w.samples[w.head].v)
				}
				w.head++
			}
			// Compact once the dead prefix dominates, keeping memory
			// proportional to the live window.
			if w.head > 64 && w.head*2 > len(w.samples) {
				w.samples = append(w.samples[:0], w.samples[w.head:]...)
				w.head = 0
			}
		}
		w.samples = append(w.samples, sample{ts, v})
	}
	if w.hist != nil {
		w.hist.Observe(v)
	}
	return true
}

func (w *window) len() int { return len(w.samples) - w.head }

// millis converts a spec's milliseconds to a duration.
func millis(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// maxMillis is the most milliseconds a time.Duration holds.
const maxMillis = float64(math.MaxInt64 / int64(time.Millisecond))

func orAny(s string) string {
	if s == "" {
		return "*"
	}
	return s
}

func inWindow(span time.Duration) string {
	if span <= 0 {
		return ""
	}
	return fmt.Sprintf(" in %v", span)
}
