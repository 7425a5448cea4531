package eventlog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BufferedSink batches records in memory and ships them to an underlying
// Sink from a background goroutine, either when the buffer reaches its
// flush threshold or on a periodic interval — so a full buffer never
// charges a store round trip (an HTTP call, for remote sinks) to the live
// data path that logged the record. This mirrors the paper's agents, which
// ship logs asynchronously via logstash.
//
// The buffer is bounded: under overload (the store slower than the data
// path for long enough to accumulate Max records) the oldest unshipped
// records are dropped and counted in Dropped. When the underlying sink
// fails, the records it did not take are kept (within the same bound) and
// retried on the next flush.
//
// BufferedSink is safe for concurrent use. Call Flush (or Close) before
// reading assertions to make all observations visible.
type BufferedSink struct {
	sink     Sink
	size     int           // flush threshold
	max      int           // buffer bound; overflow drops oldest records
	interval time.Duration // background flush period

	mu     sync.Mutex // guards buf and closed
	buf    []Record
	closed bool

	// flushMu serializes shipments so records reach the sink in log order
	// even when Flush races the background flusher.
	flushMu sync.Mutex

	dropped      atomic.Int64
	flushes      atomic.Int64
	retries      atomic.Int64
	batchRecords atomic.Int64
	maxBatch     atomic.Int64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// BufferOptions tunes a BufferedSink. Zero values select defaults.
type BufferOptions struct {
	// Size is the flush threshold in records (default 128): reaching it
	// wakes the background flusher.
	Size int

	// Max bounds the buffer (default 32×Size). Records logged while the
	// buffer holds Max entries displace the oldest, which are dropped and
	// counted.
	Max int

	// Interval is the periodic flush cadence (default 1s), so observations
	// reach the store promptly even under light traffic.
	Interval time.Duration
}

func (o BufferOptions) withDefaults() BufferOptions {
	if o.Size <= 0 {
		o.Size = 128
	}
	if o.Max <= 0 {
		o.Max = 32 * o.Size
	}
	if o.Max < o.Size {
		o.Max = o.Size
	}
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	return o
}

// NewBufferedSink wraps sink with a buffer flushing at the given size
// (records); size <= 0 defaults to 128. Flushing happens off the caller's
// path, on size or on a 1 s interval; use NewBufferedSinkOpts to tune.
// Call Close to stop the background flusher.
func NewBufferedSink(sink Sink, size int) *BufferedSink {
	return NewBufferedSinkOpts(sink, BufferOptions{Size: size})
}

// NewBufferedSinkOpts wraps sink with a buffer configured by opts.
func NewBufferedSinkOpts(sink Sink, opts BufferOptions) *BufferedSink {
	o := opts.withDefaults()
	b := &BufferedSink{
		sink:     sink,
		size:     o.Size,
		max:      o.Max,
		interval: o.Interval,
		buf:      make([]Record, 0, o.Size),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// Log buffers records and returns immediately; it never performs a store
// round trip. When the buffer reaches the flush threshold the background
// flusher is woken, and when it is at its bound the oldest buffered
// records are dropped to make room (counted in Dropped).
func (b *BufferedSink) Log(recs ...Record) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("eventlog: sink closed")
	}
	b.buf = append(b.buf, recs...)
	if over := len(b.buf) - b.max; over > 0 {
		b.dropped.Add(int64(over))
		b.buf = append(b.buf[:0], b.buf[over:]...)
	}
	full := len(b.buf) >= b.size
	b.mu.Unlock()

	if full {
		select {
		case b.kick <- struct{}{}:
		default: // flusher already signalled
		}
	}
	return nil
}

// Flush synchronously ships all buffered records, returning the sink's
// error if the shipment fails (the records are retained for retry).
func (b *BufferedSink) Flush() error { return b.flush() }

// Close stops the background flusher, ships remaining records, and marks
// the sink closed.
func (b *BufferedSink) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()

	close(b.stop)
	<-b.done
	return b.flush()
}

// Dropped reports how many records were discarded because the buffer was
// at its bound (store overload) since the sink was created.
func (b *BufferedSink) Dropped() int64 { return b.dropped.Load() }

// Flushes reports how many non-empty batches were shipped successfully.
func (b *BufferedSink) Flushes() int64 { return b.flushes.Load() }

// Retries reports how many shipments failed and were kept for retry.
// Together with Dropped these let a campaign flag runs whose assertions
// may have evaluated partial data.
func (b *BufferedSink) Retries() int64 { return b.retries.Load() }

// BatchRecords reports the total records shipped in successful flushes;
// divided by Flushes it gives the mean batch size, the measure of how
// well the sink is amortizing per-request overhead.
func (b *BufferedSink) BatchRecords() int64 { return b.batchRecords.Load() }

// MaxBatch reports the largest batch shipped in one flush.
func (b *BufferedSink) MaxBatch() int64 { return b.maxBatch.Load() }

// run is the background flusher: it ships on size signals and on the
// periodic interval until Close.
func (b *BufferedSink) run() {
	defer close(b.done)
	ticker := time.NewTicker(b.interval)
	defer ticker.Stop()
	for {
		select {
		case <-b.kick:
		case <-ticker.C:
		case <-b.stop:
			return
		}
		// Errors are retried on the next wakeup; a full or unreachable
		// store must not break anything upstream.
		_ = b.flush()
	}
}

// flush takes the buffered records and ships them. On failure what the
// sink did not take — the whole batch, or the unshipped part a
// *PartialBatchError names — is put back at the front of the buffer
// (bounded by Max, dropping the oldest overflow) so the next flush retries
// it, and only it.
func (b *BufferedSink) flush() error {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()

	b.mu.Lock()
	recs := b.buf
	if len(recs) == 0 {
		// Nothing buffered: keep the empty buffer rather than swap in a
		// fresh one, so idle ticks and flush barriers allocate nothing.
		b.mu.Unlock()
		return nil
	}
	b.buf = make([]Record, 0, b.size)
	b.mu.Unlock()

	if err := b.sink.Log(recs...); err != nil {
		var partial *PartialBatchError
		if errors.As(err, &partial) {
			recs = partial.Unshipped
		}
		b.retries.Add(1)
		b.mu.Lock()
		if over := len(recs) + len(b.buf) - b.max; over > 0 {
			if over >= len(recs) {
				b.dropped.Add(int64(len(recs)))
				recs = recs[:0]
			} else {
				b.dropped.Add(int64(over))
				recs = recs[over:]
			}
		}
		b.buf = append(recs, b.buf...)
		b.mu.Unlock()
		return err
	}
	b.flushes.Add(1)
	b.batchRecords.Add(int64(len(recs)))
	if n := int64(len(recs)); n > b.maxBatch.Load() {
		b.maxBatch.Store(n)
	}
	return nil
}
