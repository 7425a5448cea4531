package streamproxy

import (
	"bytes"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/rules"
)

// pattern returns n deterministic bytes that differ per seed, so a
// reordered, duplicated or cross-wired chunk shows in a comparison.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+i/251) ^ seed
	}
	return b
}

// received is what a peer read from one connection.
type received struct {
	n   int64
	sum uint32
}

// newPeer starts a test upstream. On each connection it reads until EOF,
// counting and checksumming what arrived, and writes reply: after that
// EOF when afterEOF is set, concurrently with the read otherwise. Then it
// closes the connection and reports what it read on the returned channel.
func newPeer(t *testing.T, reply []byte, afterEOF bool) (addr string, got <-chan received) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan received, 16) // one per connection; a test makes a few and may not read them all
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				var wrote sync.WaitGroup
				if !afterEOF {
					wrote.Add(1)
					go func() {
						defer wrote.Done()
						c.Write(reply)
						c.(*net.TCPConn).CloseWrite()
					}()
				}
				h := crc32.NewIEEE()
				n, _ := io.Copy(h, c)
				wrote.Wait()
				out <- received{n: n, sum: h.Sum32()}
				if afterEOF {
					c.Write(reply)
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return ln.Addr().String(), out
}

// exchange dials addr, sends send and half-closes, and returns everything
// that arrives until EOF or an error.
func exchange(t *testing.T, addr string, send []byte) ([]byte, error) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(20 * time.Second))
	werr := make(chan error, 1)
	go func() {
		_, err := c.Write(send)
		if err == nil {
			err = c.(*net.TCPConn).CloseWrite()
		}
		werr <- err
	}()
	var got bytes.Buffer
	_, rerr := got.ReadFrom(c)
	if err := <-werr; err != nil {
		return got.Bytes(), err
	}
	return got.Bytes(), rerr
}

// onlyClose returns the single conn-close record, failing otherwise.
func onlyClose(t *testing.T, sink *recordSink) eventlog.Record {
	t.Helper()
	closes := sink.byKind(eventlog.KindConnClose)
	if len(closes) != 1 {
		t.Fatalf("want 1 close record, got %d", len(closes))
	}
	return closes[0]
}

// waitUntil polls cond for up to five seconds and reports whether it held.
func waitUntil(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// TestPassThroughExactCounts moves asymmetric transfers that end mid-chunk
// both ways at once and holds the close record and Stats to the bytes
// each side actually moved.
func TestPassThroughExactCounts(t *testing.T) {
	up, down := pattern(3*chunk+7, 1), pattern(5*chunk-3, 2)
	addr, peer := newPeer(t, down, false)
	sink := &recordSink{}
	r := newRelay(t, rules.NewMatcher(nil), sink, addr)

	got, err := exchange(t, r.Addr(), up)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if !bytes.Equal(got, down) {
		t.Fatalf("client received %d bytes, want the %d the upstream sent, intact", len(got), len(down))
	}
	if p := <-peer; p.n != int64(len(up)) || p.sum != crc32.ChecksumIEEE(up) {
		t.Fatalf("upstream received %d bytes (crc %08x), want %d intact", p.n, p.sum, len(up))
	}
	r.Close()

	cl := onlyClose(t, sink)
	if cl.BytesUp != int64(len(up)) || cl.BytesDown != int64(len(down)) {
		t.Fatalf("close record bytes = %d/%d, want %d/%d", cl.BytesUp, cl.BytesDown, len(up), len(down))
	}
	if st := r.Stats(); st.BytesUp != int64(len(up)) || st.BytesDown != int64(len(down)) || st.Faults() != 0 {
		t.Fatalf("stats = %+v, want bytes %d/%d and no faults", st, len(up), len(down))
	}
	if cl.FaultAction != "" || cl.GremlinGenerated {
		t.Fatalf("fault recorded on a clean connection: %+v", cl)
	}
}

// TestPassThroughHalfClose: the client half-closes, the upstream sees EOF
// and only then replies with several chunks, and the client still
// receives every byte.
func TestPassThroughHalfClose(t *testing.T) {
	reply := pattern(2*chunk+chunk/2, 3)
	addr, peer := newPeer(t, reply, true)
	sink := &recordSink{}
	r := newRelay(t, rules.NewMatcher(nil), sink, addr)

	got, err := exchange(t, r.Addr(), []byte("query"))
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if p := <-peer; p.n != 5 {
		t.Fatalf("upstream read %d bytes before EOF, want 5", p.n)
	}
	if !bytes.Equal(got, reply) {
		t.Fatalf("client received %d bytes after its half-close, want all %d", len(got), len(reply))
	}
	r.Close()
	if cl := onlyClose(t, sink); cl.BytesUp != 5 || cl.BytesDown != int64(len(reply)) {
		t.Fatalf("close record bytes = %d/%d, want 5/%d", cl.BytesUp, cl.BytesDown, len(reply))
	}
}

// TestMixedSessionPassThroughRequest: a fault on the response direction
// leaves the request direction passed through. Both counts stay exact
// and the close record attributes the fault exactly as before.
func TestMixedSessionPassThroughRequest(t *testing.T) {
	const cut = 100_000
	cases := []struct {
		action  rules.Action
		arm     func(*rules.Rule)
		wantOut int // bytes of the reply the client receives
		counter func(Stats) int64
	}{
		{rules.ActionThrottle, func(r *rules.Rule) { r.RateBytesPerSec = 1 << 20 }, 512 << 10,
			func(s Stats) int64 { return s.Throttled }},
		{rules.ActionSever, func(r *rules.Rule) { r.AbortAfterBytes, r.SeverMode = cut, rules.SeverFIN }, cut,
			func(s Stats) int64 { return s.Severed }},
		{rules.ActionHalfOpen, func(r *rules.Rule) { r.AbortAfterBytes = cut }, cut,
			func(s Stats) int64 { return s.HalfOpened }},
	}
	for _, tc := range cases {
		t.Run(string(tc.action), func(t *testing.T) {
			up, reply := pattern(chunk+7, 4), pattern(512<<10, 5)
			addr, peer := newPeer(t, reply, true)
			sink := &recordSink{}
			m := rules.NewMatcher(nil)
			rule := l4Rule("mixed-"+string(tc.action), tc.action)
			rule.On = rules.OnResponse
			tc.arm(&rule)
			if err := m.Install(rule); err != nil {
				t.Fatal(err)
			}
			r := newRelay(t, m, sink, addr)

			start := time.Now()
			got, err := exchange(t, r.Addr(), up)
			if tc.action == rules.ActionThrottle {
				// 512 KiB at 1 MiB/s with a 256 KiB burst: at least 250ms.
				if err != nil || time.Since(start) < 200*time.Millisecond {
					t.Fatalf("throttled exchange took %v, err %v", time.Since(start), err)
				}
			}
			if !bytes.Equal(got, reply[:tc.wantOut]) {
				t.Fatalf("client received %d bytes, want the first %d of the reply", len(got), tc.wantOut)
			}
			if p := <-peer; p.n != int64(len(up)) || p.sum != crc32.ChecksumIEEE(up) {
				t.Fatalf("upstream received %d bytes (crc %08x), want %d intact", p.n, p.sum, len(up))
			}
			r.Close()

			cl := onlyClose(t, sink)
			if cl.BytesUp != int64(len(up)) || cl.BytesDown != int64(tc.wantOut) {
				t.Fatalf("close record bytes = %d/%d, want %d/%d", cl.BytesUp, cl.BytesDown, len(up), tc.wantOut)
			}
			if cl.FaultAction != string(tc.action) || cl.FaultRuleID != rule.ID || !cl.GremlinGenerated {
				t.Fatalf("close record = %+v, want fault %s by %s", cl, tc.action, rule.ID)
			}
			st := r.Stats()
			if st.BytesUp != int64(len(up)) || st.BytesDown != int64(tc.wantOut) || tc.counter(st) != 1 || st.Faults() != 1 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// TestLiveCountersPassThrough: a passed-through direction publishes its
// bytes while the connection is still open, not only at close.
func TestLiveCountersPassThrough(t *testing.T) {
	addr, _ := newPeer(t, nil, true)
	sink := &recordSink{}
	r := newRelay(t, rules.NewMatcher(nil), sink, addr)

	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := pattern(2*chunk+100, 6)
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(func() bool { return r.Stats().BytesUp >= 2*chunk }) {
		t.Fatalf("BytesUp = %d while the connection is open, want at least %d", r.Stats().BytesUp, 2*chunk)
	}
	if st := r.Stats(); st.Open != 1 || len(sink.byKind(eventlog.KindConnClose)) != 0 {
		t.Fatalf("connection closed early: %+v", st)
	}
	c.(*net.TCPConn).CloseWrite()
	io.Copy(io.Discard, c)
	r.Close()
	if cl := onlyClose(t, sink); cl.BytesUp != int64(len(payload)) {
		t.Fatalf("close record BytesUp = %d, want %d", cl.BytesUp, len(payload))
	}
}

// checkNoGoroutinesLeft fails unless the goroutine count settles back
// within two of base.
func checkNoGoroutinesLeft(t *testing.T, base int) {
	t.Helper()
	if !waitUntil(func() bool { return runtime.NumGoroutine() <= base+2 }) {
		t.Fatalf("%d goroutines left behind (%d at start)", runtime.NumGoroutine()-base, base)
	}
}

// TestCloseDuringPassThrough: Relay.Close while both directions sit in a
// passthrough copy, idle or mid-transfer, returns promptly, emits the
// close record, and leaves no goroutine behind.
func TestCloseDuringPassThrough(t *testing.T) {
	for _, flowing := range []bool{false, true} {
		name := "idle"
		if flowing {
			name = "flowing"
		}
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			addr, stop := echoServer(t)
			sink := &recordSink{}
			r := newRelay(t, rules.NewMatcher(nil), sink, addr)

			c, err := net.Dial("tcp", r.Addr())
			if err != nil {
				t.Fatal(err)
			}
			c.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := c.Write([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(c, make([]byte, 4)); err != nil {
				t.Fatal(err)
			}
			var client sync.WaitGroup
			if flowing {
				block := pattern(chunk, 7)
				client.Add(2)
				go func() {
					defer client.Done()
					for {
						if _, err := c.Write(block); err != nil {
							return
						}
					}
				}()
				go func() {
					defer client.Done()
					io.Copy(io.Discard, c)
				}()
				if !waitUntil(func() bool { return r.Stats().BytesDown >= 2*chunk }) {
					t.Fatal("bulk transfer never got going")
				}
			}

			start := time.Now()
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > 500*time.Millisecond {
				t.Fatalf("Close took %v with a connection in passthrough", d)
			}
			onlyClose(t, sink)
			c.Close()
			client.Wait()
			stop()
			checkNoGoroutinesLeft(t, base)
		})
	}
}

// TestCloseDuringConnectDelay: Close must not wait out a connect-delay.
// The delayed connection still gets its close record, attributed to the
// delay, and the relay never dials upstream for it.
func TestCloseDuringConnectDelay(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dialed atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dialed.Add(1)
			c.Close()
		}
	}()
	sink := &recordSink{}
	m := rules.NewMatcher(nil)
	rule := l4Rule("cdelay-long", rules.ActionDelay)
	rule.DelayMillis = 10_000
	if err := m.Install(rule); err != nil {
		t.Fatal(err)
	}
	r := newRelay(t, m, sink, ln.Addr().String())

	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !waitUntil(func() bool { return r.Stats().ConnectDelayed == 1 }) {
		t.Fatal("connection never entered its connect-delay")
	}
	start := time.Now()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Close took %v, waiting out a connect-delay", d)
	}
	cl := onlyClose(t, sink)
	if cl.FaultAction != string(rules.ActionDelay) || cl.FaultRuleID != rule.ID {
		t.Fatalf("close record = %+v, want the connect-delay attributed", cl)
	}
	if n := dialed.Load(); n != 0 {
		t.Fatalf("relay dialed upstream %d times after Close", n)
	}
}
