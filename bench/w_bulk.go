package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/microservice"
	"gremlin/internal/proxy"
	"gremlin/internal/rules"
	"gremlin/internal/trace"
)

// The bulk workloads move 1 MiB per op, so ops_s reads as MiB/s and the
// per-message work of matcher and records disappears behind the copy
// loops: l7_bulk through the HTTP proxy's streamed reply path, l4_bulk
// through the stream relay's two pumps.

const bulkBytes = 1 << 20

// crcTable is CRC-32C: one instruction per 8 bytes on this hardware, so
// verifying every byte costs the client a small, equal amount on both
// sides of the tax ratio.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func seededPayload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// ---- l7_bulk ---------------------------------------------------------

type l7Deployment struct {
	cfg     runConfig
	backend *microservice.Service
	agent   *proxy.Agent
	store   *eventlog.Store
	sink    *eventlog.BufferedSink
	url     [2]string
	clients []*http.Client
	bufs    [][]byte
	sum     uint32 // CRC of the payload the backend serves

	exchanges atomic.Int64
}

func buildL7(clients int) func(runConfig, *tracer) (deployment, error) {
	return func(cfg runConfig, tr *tracer) (deployment, error) {
		d := &l7Deployment{cfg: cfg}
		payload := seededPayload(cfg.seed, bulkBytes)
		d.sum = crc32.Checksum(payload, crcTable)
		serve := func(w http.ResponseWriter, _ *http.Request, _ *microservice.Caller) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
			_, _ = w.Write(payload)
		}
		var err error
		d.backend, err = microservice.New(microservice.Config{Name: hopDst, Handler: tracedHandler(serve, tr)})
		if err != nil {
			return nil, err
		}
		d.backend.Start()
		d.store = eventlog.NewStore()
		d.sink = eventlog.NewBufferedSink(d.store, 0)
		d.agent, err = proxy.New(proxy.Config{
			ServiceName: hopSrc,
			Routes:      []proxy.Route{{Dst: hopDst, ListenAddr: "127.0.0.1:0", Targets: []string{d.backend.Addr()}}},
			Sink:        d.sink,
			RNG:         rand.New(rand.NewSource(cfg.seed)),
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.agent.Start()
		if d.url[sideAgent], err = d.agent.RouteURL(hopDst); err != nil {
			d.close()
			return nil, err
		}
		d.url[sideDirect] = d.backend.URL()
		for c := 0; c < clients; c++ {
			d.clients = append(d.clients, newHTTPClient())
			d.bufs = append(d.bufs, make([]byte, 64<<10))
		}
		return d, nil
	}
}

func (d *l7Deployment) op(s side, c int, n uint64) error {
	if s == sideAgent {
		d.exchanges.Add(1)
	}
	req, err := http.NewRequest(http.MethodGet, d.url[s]+"/blob", nil)
	if err != nil {
		return err
	}
	req.Header.Set(trace.HeaderRequestID, requestID("bulk", d.cfg.seed, n))
	resp, err := d.clients[c].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var (
		sum   uint32
		total int
		buf   = d.bufs[c]
	)
	for {
		k, rerr := resp.Body.Read(buf)
		sum = crc32.Update(sum, crcTable, buf[:k])
		total += k
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	if resp.StatusCode != http.StatusOK || total != bulkBytes || sum != d.sum {
		return fmt.Errorf("op %d: status %d, %d bytes, crc %08x; want 200, %d bytes, crc %08x",
			n, resp.StatusCode, total, sum, bulkBytes, d.sum)
	}
	return nil
}

func (d *l7Deployment) settle(s side) (expected, found int64, err error) {
	if s == sideDirect {
		return 0, 0, nil
	}
	if err := d.sink.Flush(); err != nil {
		return 0, 0, fmt.Errorf("flush: %w", err)
	}
	expected, found = 2*d.exchanges.Swap(0), int64(d.store.Len())
	if d.sink.Dropped() != 0 {
		err = fmt.Errorf("buffered sink dropped %d records", d.sink.Dropped())
	}
	if st := d.agent.Stats(); st.Streamed != st.Proxied {
		err = fmt.Errorf("%d of %d exchanges left the streamed path", st.Proxied-st.Streamed, st.Proxied)
	}
	d.store.Clear()
	return expected, found, err
}

func (d *l7Deployment) close() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	if d.agent != nil {
		_ = d.agent.Close()
	}
	if d.sink != nil {
		_ = d.sink.Close()
	}
	if d.backend != nil {
		_ = d.backend.Close()
	}
}

// bulkSelf is what the path through Gremlin adds per MiB: the traced
// op's median minus the direct op's. Spans cannot split a streamed body
// any finer from outside — handler, relay and client all run for the
// whole transfer — so the difference of the two whole ops is the figure.
func bulkSelf(tv *traceView) float64 {
	dur := func(t *opTree) int64 { return t.dur[kOp] }
	return (tv.median(tv.agent, nil, dur) - tv.median(tv.direct, nil, dur)) / 1e3
}

func l7Layers(_ deployment, tv *traceView, m map[string]float64) {
	m["proxy.body_self_us_mib"] = bulkSelf(tv)
	m["microservice.handler_us"] = tv.median(tv.agent, nil, func(t *opTree) int64 { return t.dur[kHandler] }) / 1e3
}

// ---- l4_bulk ---------------------------------------------------------

const (
	l4Dst = "echo"
	// l4Redial is how many ops a connection carries before the client
	// replaces it, so accept-time decisions and conn-open/conn-close
	// records stay part of the measured work.
	l4Redial = 64
)

// echoServer is the bench-owned upstream: it writes back what it reads.
type echoServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newEchoServer() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln, conns: map[net.Conn]struct{}{}}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.conns[c] = struct{}{}
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				buf := make([]byte, 64<<10)
				_, _ = io.CopyBuffer(onlyWriter{c}, onlyReader{c}, buf)
				_ = c.Close()
				e.mu.Lock()
				delete(e.conns, c)
				e.mu.Unlock()
			}()
		}
	}()
	return e, nil
}

// onlyReader and onlyWriter hide the TCP connection's ReadFrom/WriteTo,
// so the echo is a plain read-write loop on every kernel and Go version
// and the upstream's own cost stays the same whatever the relay does.
type onlyReader struct{ io.Reader }
type onlyWriter struct{ io.Writer }

func (e *echoServer) close() {
	_ = e.ln.Close()
	e.mu.Lock()
	for c := range e.conns {
		_ = c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// l4Client is one bench client's connection on one side.
type l4Client struct {
	conn net.Conn
	used int
	buf  []byte
}

type l4Deployment struct {
	cfg     runConfig
	tr      *tracer
	echo    *echoServer
	agent   *proxy.Agent
	store   *eventlog.Store
	sink    *eventlog.BufferedSink
	addr    [2]string
	conns   [2][]l4Client
	payload []byte
	sum     uint32

	// since the last settle, through the relay:
	dialed atomic.Int64
	moved  atomic.Int64 // bytes written plus bytes read by the clients
	// lifetime, for the traced run's ratios:
	allDialed, allMoved, allRecords int64
	statsBase                       int64 // relay bytes already accounted for
}

func buildL4(clients int) func(runConfig, *tracer) (deployment, error) {
	return func(cfg runConfig, tr *tracer) (deployment, error) {
		d := &l4Deployment{cfg: cfg, tr: tr, payload: seededPayload(cfg.seed, bulkBytes)}
		d.sum = crc32.Checksum(d.payload, crcTable)
		var err error
		if d.echo, err = newEchoServer(); err != nil {
			return nil, err
		}
		d.store = eventlog.NewStore()
		d.sink = eventlog.NewBufferedSink(d.store, 0)
		d.agent, err = proxy.New(proxy.Config{
			ServiceName: hopSrc,
			L4Routes:    []proxy.L4Route{{Dst: l4Dst, ListenAddr: "127.0.0.1:0", Targets: []string{d.echo.ln.Addr().String()}}},
			Sink:        d.sink,
			RNG:         rand.New(rand.NewSource(cfg.seed)),
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.agent.Start()
		if d.addr[sideAgent], err = d.agent.L4RouteAddr(l4Dst); err != nil {
			d.close()
			return nil, err
		}
		d.addr[sideDirect] = d.echo.ln.Addr().String()
		for s := range d.conns {
			d.conns[s] = make([]l4Client, clients)
			for c := range d.conns[s] {
				d.conns[s][c].buf = make([]byte, bulkBytes)
			}
		}
		return d, nil
	}
}

// dial replaces a client's connection and proves the new one end to end
// with a one-byte echo, so the time until the relay has decided, dialed
// upstream and started both pumps belongs to the op that needed the
// connection.
func (d *l4Deployment) dial(s side, cl *l4Client, n uint64) error {
	ts, traced := d.tr.begin()
	if traced {
		defer d.tr.end(kConnSetup, n, ts)
	}
	if cl.conn != nil {
		_ = cl.conn.Close()
	}
	conn, err := net.Dial("tcp", d.addr[s])
	if err != nil {
		return err
	}
	cl.conn, cl.used = conn, 0
	if s == sideAgent {
		d.dialed.Add(1)
	}
	if _, err := conn.Write(d.payload[:1]); err != nil {
		return err
	}
	if _, err := io.ReadFull(conn, cl.buf[:1]); err != nil {
		return err
	}
	if s == sideAgent {
		d.moved.Add(2)
	}
	return nil
}

func (d *l4Deployment) op(s side, c int, n uint64) error {
	cl := &d.conns[s][c]
	if cl.conn == nil || cl.used == l4Redial {
		if err := d.dial(s, cl, n); err != nil {
			cl.conn = nil
			return fmt.Errorf("op %d: dial: %w", n, err)
		}
	}
	cl.used++
	// Write and read at once: 1 MiB does not fit in the socket buffers
	// along the path, so a client that wrote first would deadlock.
	werr := make(chan error, 1)
	go func() {
		_, err := cl.conn.Write(d.payload)
		werr <- err
	}()
	_, rerr := io.ReadFull(cl.conn, cl.buf)
	if err := errors.Join(<-werr, rerr); err != nil {
		_ = cl.conn.Close()
		cl.conn = nil
		return fmt.Errorf("op %d: %w", n, err)
	}
	if s == sideAgent {
		d.moved.Add(2 * bulkBytes)
	}
	if sum := crc32.Checksum(cl.buf, crcTable); sum != d.sum {
		return fmt.Errorf("op %d: echoed crc %08x, sent %08x", n, sum, d.sum)
	}
	return nil
}

// settle closes the segment's relayed connections and then checks that
// each left exactly a conn-open and a conn-close record, and that the
// relay counted exactly the bytes the clients moved.
func (d *l4Deployment) settle(s side) (expected, found int64, err error) {
	for c := range d.conns[s] {
		if cl := &d.conns[s][c]; cl.conn != nil {
			_ = cl.conn.Close()
			cl.conn = nil
		}
	}
	if s == sideDirect {
		return 0, 0, nil
	}
	dialed, moved := d.dialed.Swap(0), d.moved.Swap(0)
	expected = 2 * dialed
	// The relay logs conn-close on its own goroutine once it sees the
	// client's FIN; give it a moment before calling a record lost.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := d.sink.Flush(); err != nil {
			return expected, 0, fmt.Errorf("flush: %w", err)
		}
		found = int64(d.store.Len())
		if found >= expected || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := d.agent.L4Stats()
	relayed := st.BytesUp + st.BytesDown - d.statsBase
	d.statsBase += relayed
	if relayed != moved {
		err = fmt.Errorf("relay counted %d bytes, clients moved %d", relayed, moved)
	}
	if d.sink.Dropped() != 0 {
		err = fmt.Errorf("buffered sink dropped %d records", d.sink.Dropped())
	}
	d.allDialed += dialed
	d.allMoved += moved
	d.allRecords += found
	d.store.Clear()
	return expected, found, err
}

func (d *l4Deployment) close() {
	for s := range d.conns {
		for c := range d.conns[s] {
			if conn := d.conns[s][c].conn; conn != nil {
				_ = conn.Close()
			}
		}
	}
	if d.agent != nil {
		_ = d.agent.Close()
	}
	if d.sink != nil {
		_ = d.sink.Close()
	}
	if d.echo != nil {
		d.echo.close()
	}
}

func l4Layers(dep deployment, tv *traceView, m map[string]float64) {
	d := dep.(*l4Deployment)
	m["streamproxy.relay_self_us_mib"] = bulkSelf(tv)
	setup := func(t *opTree) int64 { return t.dur[kConnSetup] }
	dialing := func(t *opTree) bool { return t.count[kConnSetup] > 0 }
	m["streamproxy.conn_setup_us"] = (tv.median(tv.agent, dialing, setup) - tv.median(tv.direct, dialing, setup)) / 1e3
	if d.allDialed > 0 {
		m["streamproxy.conn_records"] = float64(d.allRecords) / float64(d.allDialed)
	}
	if d.allMoved > 0 {
		m["streamproxy.bytes_ratio"] = float64(d.statsBase) / float64(d.allMoved)
	}
}

// l4Rungs measures the relay's paced path: a throttle rule at 8 MiB/s on
// the echoed direction, 2 MiB pushed through, achieved over configured
// rate. It guards the non-passthrough path's correctness once a
// passthrough exists beside it.
func l4Rungs(cfg runConfig, dep deployment, m map[string]float64) error {
	d := dep.(*l4Deployment)
	const rate = 8 << 20
	rule := rules.Rule{ID: "bench-throttle", Src: hopSrc, Dst: l4Dst, On: rules.OnResponse,
		Layer: rules.LayerL4, Action: rules.ActionThrottle, RateBytesPerSec: rate}
	if err := d.agent.InstallRules(rule); err != nil {
		return err
	}
	defer d.agent.Matcher().Clear()
	conn, err := net.Dial("tcp", d.addr[sideAgent])
	if err != nil {
		return err
	}
	defer conn.Close()
	// The bucket starts with a quarter second of burst (2 MiB); the first
	// two sends drain it, the next two are timed at the steady rate.
	buf := make([]byte, bulkBytes)
	var t0 time.Time
	for i := 0; i < 4; i++ {
		if i == 2 {
			t0 = time.Now()
		}
		werr := make(chan error, 1)
		go func() {
			_, err := conn.Write(d.payload)
			werr <- err
		}()
		_, rerr := io.ReadFull(conn, buf)
		if err := errors.Join(<-werr, rerr); err != nil {
			return err
		}
	}
	m["streamproxy.throttle_ratio"] = 2 * bulkBytes / time.Since(t0).Seconds() / rate
	return nil
}
