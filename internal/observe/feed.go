package observe

import (
	"context"
	"errors"

	"gremlin/internal/eventlog"
)

// Feed delivers live records whose request ID matches pattern to fn until
// ctx is cancelled (returning ctx.Err()) or the feed breaks (returning the
// underlying error). The two implementations mirror the two ways a checker
// reads the store: in-process (StoreFeed) and over HTTP (ClientFeed), so a
// Monitor works identically against both.
type Feed func(ctx context.Context, pattern string, fn func(eventlog.Record)) error

// StoreFeed taps an in-process store's subscription fan-out.
func StoreFeed(s *eventlog.Store) Feed {
	return func(ctx context.Context, pattern string, fn func(eventlog.Record)) error {
		sub, err := s.SubscribeBuffer(pattern, eventlog.DefaultSubscriberBuffer)
		if err != nil {
			return err
		}
		defer sub.Close()
		for {
			select {
			case rec, ok := <-sub.C():
				if !ok {
					return errors.New("observe: subscription closed")
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
