package eventlog

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gremlin/internal/pattern"
)

// Subscription is one live feed of records appended to a Store, filtered
// by a request-ID pattern. It owns one channel and is registered in every
// shard its pattern can reach — the one shard a pinned pattern routes to,
// all of them otherwise — and each shard's appends send to that channel
// directly. Records from one shard arrive on C in that shard's append
// order; records from different shards interleave as their appends do.
//
// The feed is bounded: a subscriber that falls behind by more than its
// buffer loses the overflow — dropped records are counted, never waited
// for, so a slow or stuck consumer cannot block the append hot path.
// Close the subscription to stop receiving; C is closed afterwards.
type Subscription struct {
	store  *Store
	shards []*shard // where it is registered
	pat    pattern.Pattern
	ch     chan Record

	dropped atomic.Int64
	once    sync.Once
}

// C returns the record feed. It is closed by Close.
func (sub *Subscription) C() <-chan Record { return sub.ch }

// Dropped reports how many matching records were discarded because this
// subscriber's buffer was full when they were appended.
func (sub *Subscription) Dropped() int64 { return sub.dropped.Load() }

// Close detaches the subscription from the store and closes C. It is safe
// to call more than once and concurrently with appends.
func (sub *Subscription) Close() {
	sub.once.Do(func() {
		// Each shard drops the subscription under its publisher lock held
		// exclusively, so once all have, no append is mid-send on ch and
		// closing it cannot panic a publisher.
		for _, sh := range sub.shards {
			sh.subMu.Lock()
			for i, other := range sh.subs {
				if other == sub {
					last := len(sh.subs) - 1
					sh.subs[i], sh.subs[last] = sh.subs[last], nil
					sh.subs = sh.subs[:last]
					break
				}
			}
			sh.nsubs.Store(int32(len(sh.subs)))
			sh.subMu.Unlock()
		}
		sub.store.subscribers.Add(-1)
		close(sub.ch)
	})
}

// DefaultSubscriberBuffer is the channel capacity Subscribe gives a feed.
const DefaultSubscriberBuffer = 1024

// Subscribe opens a live feed of records whose request ID matches
// idPattern (the shared glob/"re:" language; empty matches everything).
// Only records appended after Subscribe returns are delivered — pair it
// with Select to also see the past.
func (s *Store) Subscribe(idPattern string) (*Subscription, error) {
	return s.SubscribeBuffer(idPattern, DefaultSubscriberBuffer)
}

// SubscribeBuffer is Subscribe with an explicit buffer capacity (minimum
// 1) — a bound on the whole feed, whichever shards it draws from. Smaller
// buffers drop sooner under a slow consumer; they never block the
// appender.
func (s *Store) SubscribeBuffer(idPattern string, buffer int) (*Subscription, error) {
	pat, err := pattern.Compile(idPattern)
	if err != nil {
		return nil, fmt.Errorf("eventlog: bad subscribe pattern: %w", err)
	}
	sub := &Subscription{store: s, shards: s.shards, pat: pat, ch: make(chan Record, max(buffer, 1))}
	if si := s.shardOfPattern(pat); si >= 0 {
		sub.shards = s.shards[si : si+1]
	}
	for _, sh := range sub.shards {
		sh.subMu.Lock()
		sh.subs = append(sh.subs, sub)
		sh.nsubs.Store(int32(len(sh.subs)))
		sh.subMu.Unlock()
	}
	s.subscribers.Add(1)
	return sub, nil
}

// Subscribers reports the number of open subscriptions.
func (s *Store) Subscribers() int { return int(s.subscribers.Load()) }

// Published reports the total records delivered to subscribers since the
// store was created.
func (s *Store) Published() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.published.Load()
	}
	return n
}

// SubscriberDropped reports the total records dropped across all
// subscriptions (including closed ones) since the store was created.
func (s *Store) SubscriberDropped() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.subDropped.Load()
	}
	return n
}

// publish fans appended records out to the shard's subscriptions. It runs
// after the shard's main lock is released; each delivery is a non-blocking
// send, so the cost per append is bounded by the subscriber count alone.
func (sh *shard) publish(recs []Record) {
	if sh.nsubs.Load() == 0 {
		return
	}
	sh.subMu.RLock()
	defer sh.subMu.RUnlock()
	for i := range recs {
		r := &recs[i]
		for _, sub := range sh.subs {
			if !sub.pat.MatchAll() && !sub.pat.Match(r.RequestID) {
				continue
			}
			select {
			case sub.ch <- *r:
				sh.published.Add(1)
			default:
				sub.dropped.Add(1)
				sh.subDropped.Add(1)
			}
		}
	}
}
