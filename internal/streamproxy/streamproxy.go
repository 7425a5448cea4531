// Package streamproxy implements Gremlin's L4 data plane: a TCP stream
// relay that sits between a downstream service and one of its non-HTTP
// dependencies (database, cache, message broker) and injects
// connection-shaped faults the HTTP proxy cannot express.
//
// Each accepted connection is relayed byte-for-byte to an upstream
// target. At accept time the relay consults the agent's rule matcher
// once per direction (rules.OnRequest = downstream→upstream,
// rules.OnResponse = upstream→downstream) with a freshly minted
// connection ID, so the same versioned rule sets that program the HTTP
// plane drive stream faults too:
//
//   - Abort (connect-refuse): reset the downstream socket before dialing.
//   - Delay (connect-delay): sleep before dialing upstream.
//   - Sever: terminate the connection mid-stream (RST or FIN), optionally
//     after AbortAfterBytes have been relayed in the rule's direction.
//   - HalfOpen: stop relaying one direction while keeping both sockets
//     open — the peer sees silence, not an error.
//   - Throttle: token-bucket pacing of one direction to RateBytesPerSec.
//   - Jitter: a fixed sleep before each relayed chunk.
//
// The accept-time decision holds for the connection's life. A direction
// no mid-stream fault fired for is passed through with io.Copy between
// the two TCP sockets (splice(2) on Linux), so its bytes never enter
// the process.
//
// Every connection emits a paired conn-open/conn-close record into the
// event log (shared RequestID = connection ID) carrying the bytes moved
// each way, the connection's duration, and the fault that fired, so the
// checker, tracing, and campaign scorecards observe L4 faults alongside
// HTTP ones.
package streamproxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/rules"
)

// copyBufSize is a faulted direction's relay buffer. 32 KiB matches the
// HTTP proxy's streaming fast path.
const copyBufSize = 32 * 1024

// chunk is how many bytes an unfaulted direction hands to one io.Copy
// (one splice(2) run on Linux) before adding them to the counters, so
// the byte counters advance while a long-lived connection is open.
const chunk = 1 << 20

// copyBufs holds the faulted path's buffers, so a throttled or jittered
// connection costs no per-connection buffer allocation.
var copyBufs = sync.Pool{New: func() any { return new([copyBufSize]byte) }}

// dialTimeout bounds the upstream dial.
const dialTimeout = 5 * time.Second

// Config describes one L4 relay: a listen address fronting an upstream
// dependency on behalf of a downstream service.
type Config struct {
	// Src is the logical name of the downstream service whose outbound
	// connections this relay carries (the rule's Src).
	Src string
	// Dst is the logical name of the upstream dependency (the rule's
	// Dst).
	Dst string
	// ListenAddr is the TCP address the relay binds ("127.0.0.1:0" for
	// an ephemeral port).
	ListenAddr string
	// Targets are the upstream addresses, dialed round-robin per
	// connection.
	Targets []string
	// Matcher supplies fault decisions; typically the owning agent's
	// matcher, shared with the HTTP plane.
	Matcher *rules.Matcher
	// Log receives the conn-open/conn-close records. Nil drops them.
	Log func(eventlog.Record)
	// ConnID mints connection IDs (matched against rule patterns and
	// used as the records' RequestID). Nil uses an internal counter.
	ConnID func() string
	// Agent tags emitted records with the reporting agent instance.
	Agent string
}

func (c Config) validate() error {
	if c.Src == "" {
		return errors.New("streamproxy: config needs a Src service")
	}
	if c.Dst == "" {
		return errors.New("streamproxy: config needs a Dst service")
	}
	if len(c.Targets) == 0 {
		return fmt.Errorf("streamproxy: relay %s->%s has no targets", c.Src, c.Dst)
	}
	if c.Matcher == nil {
		return errors.New("streamproxy: config needs a rule matcher")
	}
	return nil
}

// Stats is a snapshot of one relay's lifetime counters. Fault counters
// count actuated faults (after probability sampling), once per
// connection and direction.
type Stats struct {
	Conns          int64 `json:"conns"`
	Open           int64 `json:"open"`
	BytesUp        int64 `json:"bytesUp"`
	BytesDown      int64 `json:"bytesDown"`
	Severed        int64 `json:"severed"`
	HalfOpened     int64 `json:"halfOpened"`
	Throttled      int64 `json:"throttled"`
	Jittered       int64 `json:"jittered"`
	Refused        int64 `json:"refused"`
	ConnectDelayed int64 `json:"connectDelayed"`
}

// Add accumulates other into s, for aggregating an agent's relays.
func (s *Stats) Add(other Stats) {
	s.Conns += other.Conns
	s.Open += other.Open
	s.BytesUp += other.BytesUp
	s.BytesDown += other.BytesDown
	s.Severed += other.Severed
	s.HalfOpened += other.HalfOpened
	s.Throttled += other.Throttled
	s.Jittered += other.Jittered
	s.Refused += other.Refused
	s.ConnectDelayed += other.ConnectDelayed
}

// Faults is the total number of actuated stream faults.
func (s Stats) Faults() int64 {
	return s.Severed + s.HalfOpened + s.Throttled + s.Jittered + s.Refused + s.ConnectDelayed
}

// Relay is one listening L4 stream relay. Create with New, serve with
// Start, stop with Close. Safe for concurrent use; rule swaps through
// the shared matcher take effect for subsequently accepted connections.
type Relay struct {
	cfg Config
	ln  net.Listener

	nextTarget atomic.Uint64
	connSeq    atomic.Uint64

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool

	// quit is cancelled by Close: it cuts short the connect phase
	// (connect-delay and upstream dial) of connections not yet
	// registered as sessions.
	quit context.Context
	stop context.CancelFunc

	wg sync.WaitGroup

	conns, open          atomic.Int64
	bytesUp, bytesDown   atomic.Int64
	severed, halfOpened  atomic.Int64
	throttled, jittered  atomic.Int64
	refused, connDelayed atomic.Int64
}

// New validates the config and binds the listen address. The relay does
// not accept connections until Start.
func New(cfg Config) (*Relay, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("streamproxy: listen %s: %w", cfg.ListenAddr, err)
	}
	r := &Relay{cfg: cfg, ln: ln, sessions: make(map[*session]struct{})}
	r.quit, r.stop = context.WithCancel(context.Background())
	return r, nil
}

// Addr returns the bound listen address (useful with ":0").
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// Start begins accepting connections in a background goroutine.
func (r *Relay) Start() {
	r.wg.Add(1)
	go r.acceptLoop()
}

// Close stops the listener, cuts short connections still in their
// connect phase, tears down every live session (all of them emitting
// their conn-close records), and waits for all connection goroutines to
// finish.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return nil
	}
	r.closed = true
	live := make([]*session, 0, len(r.sessions))
	for s := range r.sessions {
		live = append(live, s)
	}
	r.mu.Unlock()

	r.stop()
	err := r.ln.Close()
	for _, s := range live {
		s.teardown(rules.SeverFIN)
	}
	r.wg.Wait()
	return err
}

// Stats returns a snapshot of the relay's counters.
func (r *Relay) Stats() Stats {
	return Stats{
		Conns:          r.conns.Load(),
		Open:           r.open.Load(),
		BytesUp:        r.bytesUp.Load(),
		BytesDown:      r.bytesDown.Load(),
		Severed:        r.severed.Load(),
		HalfOpened:     r.halfOpened.Load(),
		Throttled:      r.throttled.Load(),
		Jittered:       r.jittered.Load(),
		Refused:        r.refused.Load(),
		ConnectDelayed: r.connDelayed.Load(),
	}
}

func (r *Relay) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		r.wg.Add(1)
		go r.handle(conn)
	}
}

func (r *Relay) log(rec eventlog.Record) {
	if r.cfg.Log == nil {
		return
	}
	rec.Agent = r.cfg.Agent
	r.cfg.Log(rec)
}

func (r *Relay) mintID() string {
	if r.cfg.ConnID != nil {
		return r.cfg.ConnID()
	}
	return fmt.Sprintf("l4-conn-%d", r.connSeq.Add(1))
}

// dial connects to the next upstream target; Close aborts it.
func (r *Relay) dial() (net.Conn, error) {
	target := r.cfg.Targets[r.nextTarget.Add(1)%uint64(len(r.cfg.Targets))]
	d := net.Dialer{Timeout: dialTimeout}
	return d.DialContext(r.quit, "tcp", target)
}

// streamFault filters a decision down to the mid-stream actions; the
// connect-phase ones (abort, delay) are actuated by handle before the
// pumps start.
func streamFault(d rules.Decision) rules.Decision {
	if !d.Fired {
		return rules.Decision{}
	}
	switch d.Rule.Action {
	case rules.ActionSever, rules.ActionHalfOpen, rules.ActionThrottle, rules.ActionJitter:
		return d
	}
	return rules.Decision{}
}

// handle runs one relayed connection end to end and always emits the
// paired conn-open/conn-close records, torn connections included.
func (r *Relay) handle(down net.Conn) {
	defer r.wg.Done()
	connID := r.mintID()
	r.conns.Add(1)
	r.open.Add(1)
	opened := time.Now()

	base := rules.Message{Src: r.cfg.Src, Dst: r.cfg.Dst, RequestID: connID, Layer: rules.LayerL4}
	upMsg, downMsg := base, base
	upMsg.Type = rules.OnRequest
	downMsg.Type = rules.OnResponse
	upDec := r.cfg.Matcher.Decide(upMsg)
	downDec := r.cfg.Matcher.Decide(downMsg)

	r.log(eventlog.Record{
		Timestamp: opened,
		RequestID: connID,
		Src:       r.cfg.Src,
		Dst:       r.cfg.Dst,
		Kind:      eventlog.KindConnOpen,
	})
	closeRec := eventlog.Record{
		RequestID: connID,
		Src:       r.cfg.Src,
		Dst:       r.cfg.Dst,
		Kind:      eventlog.KindConnClose,
	}
	// emitClose is called exactly once on every path out of handle — the
	// close record is never skipped, torn connections included.
	emitClose := func() {
		closeRec.Timestamp = time.Now()
		closeRec.LatencyMillis = float64(time.Since(opened)) / float64(time.Millisecond)
		r.open.Add(-1)
		r.log(closeRec)
	}

	// Connect-phase faults ride the downstream→upstream decision: on the
	// L4 plane Abort means connect-refuse and Delay means connect-delay.
	if upDec.Fired {
		switch upDec.Rule.Action {
		case rules.ActionAbort:
			r.refused.Add(1)
			abortConn(down)
			closeRec.FaultAction = string(rules.ActionAbort)
			closeRec.FaultRuleID = upDec.Rule.ID
			closeRec.GremlinGenerated = true
			emitClose()
			return
		case rules.ActionDelay:
			r.connDelayed.Add(1)
			closeRec.FaultAction = string(rules.ActionDelay)
			closeRec.FaultRuleID = upDec.Rule.ID
			closeRec.InjectedDelayMillis = float64(upDec.Rule.DelayMillis)
			closeRec.GremlinGenerated = true
			if !sleep(upDec.Rule.Delay(), r.quit.Done()) {
				down.Close()
				emitClose()
				return
			}
		}
	}

	up, err := r.dial()
	if err != nil {
		down.Close()
		emitClose()
		return
	}

	s := &session{relay: r, down: down, up: up, done: make(chan struct{})}
	if !r.register(s) {
		s.teardown(rules.SeverFIN)
		emitClose()
		return
	}

	results := make(chan pumpResult, 2)
	go func() {
		res := s.pump(down, up, streamFault(upDec), &r.bytesUp)
		res.dir = rules.OnRequest
		results <- res
	}()
	go func() {
		res := s.pump(up, down, streamFault(downDec), &r.bytesDown)
		res.dir = rules.OnResponse
		results <- res
	}()
	first := <-results
	second := <-results

	// Record the most telling fault: a terminal stream fault beats a
	// pacing one, which beats the connect-delay already stamped above.
	for _, res := range []pumpResult{first, second} {
		if res.action == "" {
			continue
		}
		if closeRec.FaultAction == "" || closeRec.FaultAction == string(rules.ActionDelay) ||
			res.action == rules.ActionSever || res.action == rules.ActionHalfOpen {
			closeRec.FaultAction = string(res.action)
			closeRec.FaultRuleID = res.ruleID
			closeRec.GremlinGenerated = true
		}
		if res.action == rules.ActionJitter {
			closeRec.InjectedDelayMillis += res.injectedMillis
		}
	}
	if first.dir == rules.OnRequest {
		closeRec.BytesUp, closeRec.BytesDown = first.bytes, second.bytes
	} else {
		closeRec.BytesUp, closeRec.BytesDown = second.bytes, first.bytes
	}

	if first.halfOpen && second.halfOpen {
		// Both directions went dark but both sockets must stay alive: the
		// session lingers until the relay shuts down (or a peer error
		// surfaces through teardown). The close record is emitted then.
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			<-s.done
			emitClose()
			r.unregister(s)
		}()
		return
	}
	// Every other combination means the connection is over: both
	// directions finished (EOF, error, or sever), or one went half-open
	// and the other's EOF/error says the peer is done — the half-open
	// hold has been delivered for the connection's whole useful life.
	s.teardown(rules.SeverFIN)
	emitClose()
	r.unregister(s)
}

func (r *Relay) register(s *session) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.sessions[s] = struct{}{}
	return true
}

func (r *Relay) unregister(s *session) {
	r.mu.Lock()
	delete(r.sessions, s)
	r.mu.Unlock()
}

// session is one live relayed connection: the downstream and upstream
// sockets plus the teardown latch shared by both pump goroutines.
type session struct {
	relay *Relay
	down  net.Conn
	up    net.Conn

	once sync.Once
	done chan struct{}
}

// teardown closes both sockets exactly once. mode rules.SeverRST resets
// the sockets (SO_LINGER 0) for an abrupt kill; anything else closes
// them cleanly (FIN).
func (s *session) teardown(mode string) {
	s.once.Do(func() {
		if mode == rules.SeverRST {
			abortConn(s.down)
			abortConn(s.up)
		} else {
			s.down.Close()
			s.up.Close()
		}
		close(s.done)
	})
}

// pumpResult reports one direction's outcome.
type pumpResult struct {
	dir            rules.MessageType
	bytes          int64
	action         rules.Action // actuated stream fault, "" if none
	ruleID         string
	injectedMillis float64
	halfOpen       bool
}

// pump relays src→dst until EOF, error, or a fault terminates the
// direction. total accumulates the relay-wide byte counter for this
// direction. A direction no fault fired for is passed through; a faulted
// one is copied through a pooled buffer, so the fault can act between
// reads.
func (s *session) pump(src, dst net.Conn, dec rules.Decision, total *atomic.Int64) pumpResult {
	if !dec.Fired {
		return s.passThrough(src, dst, total)
	}
	var res pumpResult
	var (
		severAfter int64 = -1
		severMode  string
		halfAfter  int64 = -1
		tb         *bucket
		jitter     time.Duration
	)
	switch rule := dec.Rule; rule.Action {
	case rules.ActionSever:
		severAfter, severMode = rule.AbortAfterBytes, rule.EffectiveSeverMode()
	case rules.ActionHalfOpen:
		halfAfter = rule.AbortAfterBytes
	case rules.ActionThrottle:
		tb = newBucket(rule.RateBytesPerSec)
	case rules.ActionJitter:
		jitter = rule.Delay()
	}
	actuate := func(a rules.Action, counter *atomic.Int64) {
		if res.action == "" {
			res.action, res.ruleID = a, dec.Rule.ID
			counter.Add(1)
		}
	}

	pooled := copyBufs.Get().(*[copyBufSize]byte)
	defer copyBufs.Put(pooled)
	buf := pooled[:]
	for {
		if halfAfter >= 0 && res.bytes >= halfAfter {
			actuate(rules.ActionHalfOpen, &s.relay.halfOpened)
			res.halfOpen = true
			return res
		}
		if severAfter >= 0 && res.bytes >= severAfter {
			actuate(rules.ActionSever, &s.relay.severed)
			s.teardown(severMode)
			return res
		}
		n, err := src.Read(buf)
		if n > 0 {
			out := buf[:n]
			// Clip at a pending sever/half-open threshold so the logged
			// byte counts are exact; the remainder is dropped because the
			// direction dies on the next loop iteration anyway.
			if severAfter >= 0 && res.bytes+int64(n) > severAfter {
				out = buf[:severAfter-res.bytes]
			} else if halfAfter >= 0 && res.bytes+int64(n) > halfAfter {
				out = buf[:halfAfter-res.bytes]
			}
			if jitter > 0 {
				actuate(rules.ActionJitter, &s.relay.jittered)
				if !sleep(jitter, s.done) {
					return res
				}
				res.injectedMillis += float64(jitter) / float64(time.Millisecond)
			}
			if tb != nil {
				actuate(rules.ActionThrottle, &s.relay.throttled)
				if !tb.wait(len(out), s.done) {
					return res
				}
			}
			if len(out) > 0 {
				if _, werr := dst.Write(out); werr != nil {
					s.teardown(rules.SeverFIN)
					return res
				}
				res.bytes += int64(len(out))
				total.Add(int64(len(out)))
			}
		}
		if err != nil {
			if err == io.EOF {
				// Clean half-close: propagate the FIN and let the other
				// direction keep flowing.
				closeWrite(dst)
			} else {
				s.teardown(rules.SeverFIN)
			}
			return res
		}
	}
}

// passThrough relays src→dst for a direction no fault fired for. Each
// io.Copy moves up to chunk bytes through the destination's ReadFrom,
// which between two TCP connections on Linux is splice(2): the bytes
// never enter the process. Their count is published after every chunk.
func (s *session) passThrough(src, dst net.Conn, total *atomic.Int64) pumpResult {
	var res pumpResult
	lr := &io.LimitedReader{R: src}
	for {
		lr.N = chunk
		n, err := io.Copy(dst, lr)
		res.bytes += n
		total.Add(n)
		if err != nil {
			s.teardown(rules.SeverFIN)
			return res
		}
		if lr.N > 0 {
			// The source sent EOF before the chunk filled: propagate the
			// FIN and let the other direction keep flowing.
			closeWrite(dst)
			return res
		}
	}
}

// sleep pauses for d and reports true, or reports false as soon as done
// is closed (session teardown, relay Close).
func sleep(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// abortConn resets a TCP connection (SO_LINGER 0 turns Close into RST);
// non-TCP conns fall back to a plain close.
func abortConn(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// closeWrite half-closes the write side when the transport supports it.
func closeWrite(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}
