package resilience

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// ErrCircuitOpen is returned (wrapped) when a call is rejected because the
// breaker is open.
var ErrCircuitOpen = errors.New("resilience: circuit breaker open")

// State is a circuit breaker state.
type State int

// Circuit breaker states (paper §2.1).
const (
	// Closed: calls flow normally; consecutive failures are counted.
	Closed State = iota + 1
	// Open: calls fail fast without touching the dependency.
	Open
	// HalfOpen: a limited number of probe calls test whether the
	// dependency has recovered.
	HalfOpen
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// BreakerConfig configures a circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that opens
	// the breaker (default 5).
	FailureThreshold int

	// OpenTimeout is how long the breaker stays open before allowing probe
	// calls (default 30 s).
	OpenTimeout time.Duration

	// SuccessThreshold is the number of consecutive half-open successes
	// that close the breaker (default 1).
	SuccessThreshold int

	// Now is the clock; nil uses time.Now. Injectable for tests.
	Now func() time.Time

	// Fallback, when non-nil, is invoked instead of returning
	// ErrCircuitOpen while the breaker is open — the paper's "caller
	// service returns a cached (or default) response to its upstream".
	Fallback func(req *http.Request) (*http.Response, error)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 30 * time.Second
	}
	if c.SuccessThreshold <= 0 {
		c.SuccessThreshold = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a circuit breaker around a Doer: after FailureThreshold
// consecutive failures it opens and fails fast (preventing failures from
// cascading up the microservice chain); after OpenTimeout it lets probe
// calls through, closing again once SuccessThreshold of them succeed.
type Breaker struct {
	next Doer
	cfg  BreakerConfig

	mu         sync.Mutex
	state      State
	failures   int // consecutive failures while closed
	successes  int // consecutive successes while half-open
	openedAt   time.Time
	probing    bool // a half-open probe is in flight
	shortCount int  // calls rejected while open, for introspection
}

var _ Doer = (*Breaker)(nil)

// NewBreaker wraps next with a circuit breaker.
func NewBreaker(next Doer, cfg BreakerConfig) *Breaker {
	return &Breaker{next: next, cfg: cfg.withDefaults(), state: Closed}
}

// State reports the current breaker state, applying the open→half-open
// transition if the open timeout has elapsed.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	return b.state
}

// Rejected reports how many calls have been rejected while open.
func (b *Breaker) Rejected() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shortCount
}

// Do implements Doer.
func (b *Breaker) Do(req *http.Request) (*http.Response, error) {
	if proceed, err := b.admit(); !proceed {
		if b.cfg.Fallback != nil {
			return b.cfg.Fallback(req)
		}
		return nil, err
	}

	resp, err := b.next.Do(req)
	b.record(failed(resp, err))
	return resp, err
}

// admit decides whether a call may proceed under the current state.
func (b *Breaker) admit() (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case Closed:
		return true, nil
	case HalfOpen:
		if b.probing {
			b.shortCount++
			return false, fmt.Errorf("%w (half-open, probe in flight)", ErrCircuitOpen)
		}
		b.probing = true
		return true, nil
	default: // Open
		b.shortCount++
		retryIn := b.cfg.OpenTimeout - b.cfg.Now().Sub(b.openedAt)
		return false, fmt.Errorf("%w (retry in %s)", ErrCircuitOpen, retryIn.Round(time.Millisecond))
	}
}

// record applies an outcome to the state machine.
func (b *Breaker) record(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if !failed {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case HalfOpen:
		b.probing = false
		if failed {
			b.trip()
			return
		}
		b.successes++
		if b.successes >= b.cfg.SuccessThreshold {
			b.state = Closed
			b.failures = 0
			b.successes = 0
		}
	case Open:
		// A call admitted before the breaker tripped finished late; its
		// outcome no longer matters.
	}
}

func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.cfg.Now()
	b.failures = 0
	b.successes = 0
	b.probing = false
}

// maybeHalfOpen transitions Open → HalfOpen once the open timeout elapses.
// Callers must hold b.mu.
func (b *Breaker) maybeHalfOpen() {
	if b.state == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.OpenTimeout {
		b.state = HalfOpen
		b.successes = 0
		b.probing = false
	}
}

// StaticFallback builds a Fallback returning a canned response with the
// given status and body — the "cached or default response" of §2.1.
func StaticFallback(status int, body string) func(*http.Request) (*http.Response, error) {
	return func(req *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: status,
			Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
			Proto:      "HTTP/1.1",
			ProtoMajor: 1, ProtoMinor: 1,
			Header:        http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
}
