package streamproxy

import (
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

// steadyEcho is an echo upstream that allocates no buffer per connection
// once warm: its copy buffers come back through a free list (a channel,
// so unlike a sync.Pool it keeps them under -race too), sized above the
// connections the budget test ever has open at once. served counts the
// connections it has finished.
type steadyEcho struct {
	ln     net.Listener
	bufs   chan []byte
	served atomic.Int64
	wg     sync.WaitGroup
}

func newSteadyEcho(t *testing.T) *steadyEcho {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := &steadyEcho{ln: ln, bufs: make(chan []byte, 4)}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.wg.Add(1)
			go e.serve(c)
		}
	}()
	t.Cleanup(func() { ln.Close(); e.wg.Wait() })
	return e
}

func (e *steadyEcho) serve(c net.Conn) {
	defer e.wg.Done()
	var buf []byte
	select {
	case buf = <-e.bufs:
	default:
		buf = make([]byte, 64<<10)
	}
	// The wrappers hide TCPConn's ReadFrom/WriteTo, so this is a plain
	// read-write loop through buf.
	io.CopyBuffer(struct{ io.Writer }{c}, struct{ io.Reader }{c}, buf)
	c.Close()
	select {
	case e.bufs <- buf:
	default:
	}
	e.served.Add(1)
}

// allocPerCycle reports the bytes the process allocates per connect →
// 1 MiB echo → close cycle against addr, averaged over n cycles after a
// warm-up. settled(k) must report when the k-th connection's server-side
// work is over, so none of it falls outside the measurement.
func allocPerCycle(t *testing.T, addr string, n int, settled func(int64) bool) float64 {
	t.Helper()
	payload, echo := pattern(chunk, 8), make([]byte, chunk)
	done := int64(0)
	cycle := func() {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		werr := make(chan error, 1)
		go func() {
			_, err := c.Write(payload)
			werr <- err
		}()
		_, rerr := io.ReadFull(c, echo)
		if err := <-werr; err != nil || rerr != nil {
			t.Fatalf("echo: write %v, read %v", err, rerr)
		}
		c.Close()
		done++
		if !waitUntil(func() bool { return settled(done) }) {
			t.Fatalf("connection %d never settled", done)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestRelayAllocBudget holds a relayed connection to an allocation budget,
// measured as what it adds to the same cycle sent straight to the
// upstream. Unfaulted, both directions are passed through and the relay
// allocates no copy buffer: the budget is 8 KiB, where one buffer per
// direction costs 64 KiB. Throttled, the response direction borrows a
// pooled 32 KiB buffer; the budget of 24 KiB fails a buffer made per
// connection and leaves room for -race, under which sync.Pool drops a
// quarter of what is put back.
func TestRelayAllocBudget(t *testing.T) {
	const cycles = 40
	up := newSteadyEcho(t)
	direct := allocPerCycle(t, up.ln.Addr().String(), cycles, func(k int64) bool { return up.served.Load() >= k })

	throttle := l4Rule("budget-throttle", rules.ActionThrottle)
	throttle.On = rules.OnResponse
	throttle.RateBytesPerSec = 1 << 30 // a burst far above the transfer: paced, never waiting
	for _, tc := range []struct {
		name   string
		rules  []rules.Rule
		budget float64
	}{
		{"passthrough", nil, 8 << 10},
		{"throttled", []rules.Rule{throttle}, 24 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := rules.NewMatcher(nil)
			if err := m.Install(tc.rules...); err != nil {
				t.Fatal(err)
			}
			var closed atomic.Int64
			r, err := New(Config{
				Src: "client", Dst: "db", ListenAddr: "127.0.0.1:0",
				Targets: []string{up.ln.Addr().String()},
				Matcher: m,
				Log: func(rec eventlog.Record) {
					if rec.Kind == eventlog.KindConnClose {
						closed.Add(1)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			defer r.Close()
			relayed := allocPerCycle(t, r.Addr(), cycles, func(k int64) bool { return closed.Load() >= k })
			share := relayed - direct
			t.Logf("direct %.0f B/conn, relayed %.0f, relay share %.0f (budget %.0f)", direct, relayed, share, tc.budget)
			if share > tc.budget {
				t.Errorf("the relay allocates %.0f B per connection, budget %.0f", share, tc.budget)
			}
			if tc.rules != nil && r.Stats().Throttled == 0 {
				t.Error("throttle rule never fired")
			}
		})
	}
}
