package checker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gremlin/internal/eventlog"
)

// Violation reports one bound failing against the live feed.
type Violation struct {
	// Assertion names the bound that fired, e.g. "numRequests".
	Assertion string `json:"assertion"`
	// Detail is a human-readable account of the bound and the observed value.
	Detail string `json:"detail"`
	// Record is the record whose arrival crossed the bound.
	Record eventlog.Record `json:"record"`
	// Time is the violating record's timestamp.
	Time time.Time `json:"time"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Assertion, v.Detail)
}

// Monitor runs a set of bounds against a record feed, collecting
// violations and invoking an optional callback as each fires. It is safe
// for concurrent use.
type Monitor struct {
	mu          sync.Mutex
	bounds      []*Bound
	onViolation func(Violation)
	violations  []Violation
	observed    int64
}

// NewMonitor creates a monitor over the given bounds. onViolation, if
// non-nil, is called synchronously (under the monitor's lock) each time a
// bound first fires — keep it fast; campaigns use it to cancel load.
func NewMonitor(bounds []*Bound, onViolation func(Violation)) *Monitor {
	return &Monitor{bounds: bounds, onViolation: onViolation}
}

// Observe feeds one record to every bound.
func (m *Monitor) Observe(rec eventlog.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observed++
	for _, b := range m.bounds {
		if v := b.Observe(rec); v != nil {
			m.violations = append(m.violations, *v)
			if m.onViolation != nil {
				m.onViolation(*v)
			}
		}
	}
}

// Violated reports whether any bound has fired.
func (m *Monitor) Violated() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.violations) > 0
}

// FirstViolation returns the earliest violation, if any.
func (m *Monitor) FirstViolation() (Violation, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.violations) == 0 {
		return Violation{}, false
	}
	return m.violations[0], true
}

// Violations returns a copy of all violations so far, in firing order.
func (m *Monitor) Violations() []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Violation, len(m.violations))
	copy(out, m.violations)
	return out
}

// Observed reports how many records the monitor has consumed.
func (m *Monitor) Observed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.observed
}

// Feed delivers live records whose request ID matches pattern to fn until
// ctx is cancelled (returning ctx.Err()) or the feed breaks (returning the
// underlying error). The two implementations mirror the two ways a checker
// reads the store: in-process (StoreFeed) and over HTTP (ClientFeed), so a
// Monitor works identically against both.
type Feed func(ctx context.Context, pattern string, fn func(eventlog.Record)) error

// StoreFeed taps an in-process store's subscription fan-out.
func StoreFeed(s *eventlog.Store) Feed {
	return func(ctx context.Context, pattern string, fn func(eventlog.Record)) error {
		sub, err := s.Subscribe(pattern)
		if err != nil {
			return err
		}
		defer sub.Close()
		for {
			select {
			case rec, ok := <-sub.C():
				if !ok {
					return errors.New("checker: subscription closed")
				}
				fn(rec)
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

// ClientFeed tails a remote store server's SSE stream.
func ClientFeed(c *eventlog.Client) Feed {
	return func(ctx context.Context, pattern string, fn func(eventlog.Record)) error {
		return c.Stream(ctx, pattern, func(rec eventlog.Record) error {
			fn(rec)
			return nil
		})
	}
}

// Watch runs a feed into a monitor until ctx is cancelled or, when
// stopOnViolation is set, the monitor records its first violation. It
// returns the feed's error (ctx.Err() on cancellation, nil on a
// stop-on-violation exit).
func Watch(ctx context.Context, feed Feed, pattern string, m *Monitor, stopOnViolation bool) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopped := false
	err := feed(ctx, pattern, func(rec eventlog.Record) {
		m.Observe(rec)
		if stopOnViolation && m.Violated() {
			stopped = true
			cancel()
		}
	})
	if stopped && errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
