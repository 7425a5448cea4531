package streamproxy

import "time"

// bucket is a token bucket pacing one relay direction. It is only ever
// used by that direction's single pump goroutine, so it needs no
// locking.
type bucket struct {
	rate  float64 // tokens (bytes) per second
	burst float64
	allow float64
	last  time.Time
}

// newBucket builds a bucket for rate bytes/second. The burst is kept
// small relative to the rate so pacing is visible even for transfers
// near the copy buffer size.
func newBucket(rate int64) *bucket {
	b := &bucket{rate: float64(rate), last: time.Now()}
	b.burst = float64(rate) / 4
	if b.burst < 8192 {
		b.burst = 8192
	}
	b.allow = b.burst
	return b
}

// wait blocks until n bytes of budget are available (the balance may go
// negative, which simply lengthens the next wait) or the session is
// torn down, in which case it reports false.
func (b *bucket) wait(n int, done <-chan struct{}) bool {
	now := time.Now()
	b.allow += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if b.allow > b.burst {
		b.allow = b.burst
	}
	b.allow -= float64(n)
	if b.allow >= 0 {
		return true
	}
	return sleep(time.Duration(-b.allow/b.rate*float64(time.Second)), done)
}
