package loadgen

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/stats"
	"gremlin/internal/trace"
)

// Arrival is an arrival process: it yields the interval until the next
// request arrival. Implementations draw from the provided RNG only, so a
// seeded run is deterministic.
type Arrival interface {
	// Next returns the time until the next arrival.
	Next(rng *rand.Rand) time.Duration
}

// Poisson is an arrival process with exponentially distributed
// interarrival times — the memoryless arrivals of open-system queueing
// models — at RatePerSec mean arrivals per second.
type Poisson struct {
	RatePerSec float64
}

// Next draws an exponential interarrival.
func (p Poisson) Next(rng *rand.Rand) time.Duration {
	if p.RatePerSec <= 0 {
		return time.Second
	}
	return time.Duration(rng.ExpFloat64() / p.RatePerSec * float64(time.Second))
}

// Constant is a fixed-rate arrival process: one arrival every
// 1/RatePerSec seconds, jitter-free.
type Constant struct {
	RatePerSec float64
}

// Next returns the fixed interarrival.
func (c Constant) Next(*rand.Rand) time.Duration {
	if c.RatePerSec <= 0 {
		return time.Second
	}
	return time.Duration(float64(time.Second) / c.RatePerSec)
}

// Bursty is a two-state Markov-modulated Poisson process (MMPP): arrivals
// are Poisson at BaseRatePerSec, except during bursts when they come at
// BurstRatePerSec. State dwell times are exponential with means
// MeanCalm and MeanBurst. It models the load spikes that push an open
// system into queueing collapse while a closed-loop generator would just
// slow down.
type Bursty struct {
	BaseRatePerSec  float64
	BurstRatePerSec float64
	MeanCalm        time.Duration // mean dwell in the calm state
	MeanBurst       time.Duration // mean dwell in the burst state

	inBurst   bool
	stateLeft time.Duration // time remaining in the current state
}

// Next draws an interarrival, advancing the modulating state as dwell
// time is consumed.
func (b *Bursty) Next(rng *rand.Rand) time.Duration {
	if b.MeanCalm <= 0 {
		b.MeanCalm = time.Second
	}
	if b.MeanBurst <= 0 {
		b.MeanBurst = b.MeanCalm / 4
	}
	if b.stateLeft <= 0 {
		mean := b.MeanCalm
		if b.inBurst {
			mean = b.MeanBurst
		}
		b.stateLeft = time.Duration(rng.ExpFloat64() * float64(mean))
	}
	rate := b.BaseRatePerSec
	if b.inBurst {
		rate = b.BurstRatePerSec
	}
	gap := Poisson{RatePerSec: rate}.Next(rng)
	b.stateLeft -= gap
	if b.stateLeft <= 0 {
		b.inBurst = !b.inBurst
	}
	return gap
}

// OpenLoopOptions configures RunOpenLoop.
type OpenLoopOptions struct {
	// Arrival is the arrival process (required).
	Arrival Arrival

	// Duration bounds the run; arrivals stop when it elapses (required
	// unless Context cancels first).
	Duration time.Duration

	// Context, when non-nil, stops the run early.
	Context context.Context

	// MaxInFlight caps concurrently outstanding requests (default 512).
	// An arrival that finds the cap exhausted is SHED — counted, not
	// queued — which is what makes overload measurable: a closed-loop
	// generator would implicitly self-throttle instead.
	MaxInFlight int

	// IDPrefix prefixes generated request IDs (default trace.TestIDPrefix).
	IDPrefix string

	// RNG drives arrivals and ID salt; nil is non-deterministic.
	RNG *rand.Rand
}

// OpenLoopResult aggregates an open-loop run. Each sample's Latency runs
// from the instant the arrival was due on the schedule, not from the
// instant it was sent, so a request the generator sent late is charged the
// wait it would have imposed on a real caller.
type OpenLoopResult struct {
	Result

	// Arrivals is how many arrivals the process generated (issued + shed).
	Arrivals int

	// Shed is how many arrivals found MaxInFlight outstanding requests
	// and were dropped without being issued.
	Shed int

	// PeakInFlight is the highest concurrently-outstanding count observed.
	PeakInFlight int

	// LateP99 is the 99th percentile of how long after its due instant a
	// request was sent: the generator's own lateness. When it is not small
	// beside the latencies, they measure the generator, not the target.
	LateP99 time.Duration
}

// OfferedRate returns the arrival rate the process actually generated,
// in arrivals per second (issued + shed).
func (r *OpenLoopResult) OfferedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Arrivals) / r.Elapsed.Seconds()
}

// RunOpenLoop injects open-loop load: arrivals fire on the Arrival
// process's schedule regardless of how many responses have come back, so
// a slow or faulted system accumulates in-flight requests (up to
// MaxInFlight, beyond which arrivals are shed) instead of silently
// slowing the generator down. It blocks until Duration (or Context)
// elapses and every issued request completes.
func RunOpenLoop(target string, opts OpenLoopOptions) (*OpenLoopResult, error) {
	if target == "" {
		return nil, errors.New("loadgen: target is required")
	}
	if opts.Arrival == nil {
		return nil, errors.New("loadgen: open-loop run needs an Arrival process")
	}
	if opts.Duration <= 0 && opts.Context == nil {
		return nil, errors.New("loadgen: open-loop run needs a Duration or a Context")
	}
	maxInFlight := opts.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 512
	}
	prefix := opts.IDPrefix
	if prefix == "" {
		prefix = trace.TestIDPrefix
	}
	// A transparent client with no timeout: measurement must not mask
	// slow responses.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	rng := opts.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	gen := trace.NewGenerator(prefix, rng)
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Duration)
		defer cancel()
	}

	res := &OpenLoopResult{}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inFlight atomic.Int64
		peak     atomic.Int64
		late     []time.Duration // send − due, one per issued request
	)
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}

	// Arrivals follow an absolute schedule: each fires at the previous
	// scheduled instant plus the drawn interarrival, not at "now" plus the
	// gap — so timer and dispatch overhead never dilutes the offered rate
	// (the defining property of an open loop).
	next := start
arrivals:
	for {
		next = next.Add(opts.Arrival.Next(rng))
		if wait := time.Until(next); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break arrivals
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break arrivals
		}
		res.Arrivals++

		// Bounded in-flight: an arrival over the cap is shed, not queued.
		n := inFlight.Add(1)
		if n > int64(maxInFlight) {
			inFlight.Add(-1)
			res.Shed++
			continue
		}
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}

		id := gen.Next()
		wg.Add(1)
		go func(id string, due time.Time) {
			defer wg.Done()
			defer inFlight.Add(-1)
			behind := time.Since(due)
			// Issued requests run to completion even after the run window
			// closes, so the result never undercounts in-flight work.
			s := shoot(context.Background(), client, target+"/", id)
			s.Latency += behind
			mu.Lock()
			res.Samples = append(res.Samples, s)
			late = append(late, behind)
			mu.Unlock()
		}(id, next)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.PeakInFlight = int(peak.Load())
	if p99, err := stats.NewDurationCDF(late).Quantile(0.99); err == nil {
		res.LateP99 = time.Duration(p99 * float64(time.Second))
	}
	return res, nil
}
