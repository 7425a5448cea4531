package proxy

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The upstream pool's limits: idle connections kept per target, and how
// long one may sit idle before it is closed.
const (
	maxIdlePerTarget = 64
	idleTimeout      = 90 * time.Second
)

// ioBufSize is the size of each upstream connection's read and write
// buffers.
const ioBufSize = 4 << 10

var (
	// aLongTimeAgo is a deadline that has passed: setting it fails any
	// blocked read or write on the connection at once.
	aLongTimeAgo = time.Unix(1, 0)

	// errNoReply marks an exchange that failed before any byte of a reply
	// arrived.
	errNoReply = errors.New("connection closed before any reply")

	dialer net.Dialer
)

// upstream is one route's HTTP/1.1 client. It keeps a pool of kept-alive
// connections per target, and the calling goroutine does each exchange
// itself: it writes the request, flushes and reads the reply headers.
// It adds no header the caller did not set (no Accept-Encoding, no default
// User-Agent), decodes no body, follows no redirect and sets no overall
// timeout: detecting slow dependencies is the application's job, not the
// proxy's. The live and the mirror path share it.
type upstream struct {
	mu     sync.Mutex
	idle   map[string][]*upConn // by target, most recently used last
	closed bool
}

// upConn is one connection to a target. It carries at most one exchange
// at a time; between exchanges it sits in the pool's idle list.
type upConn struct {
	up   *upstream
	addr string
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	raw  syscall.RawConn // for the idle probe; nil if the conn has none

	// nw counts the bytes of the current exchange written to conn, and
	// werr is the first error writing to conn: it tells a failed write
	// apart from a failed read of the request body.
	nw   int64
	werr error
	// reused is set once the connection has come from the idle list.
	reused bool
	// keep says the current reply leaves the connection reusable.
	keep bool

	// req is the request whose body the writer goroutine (writeFn) is
	// sending while the exchange reads the reply, writing says it has
	// not been joined yet, and wdone carries its result.
	req     *http.Request
	writing bool
	wdone   chan error

	// timer closes the connection when it has sat idle too long; cancel
	// fails its blocked I/O when the exchange's context ends; probe is the
	// idle probe's read, and idleOK its verdict. Each func is made once per
	// connection, not per exchange.
	timer   *time.Timer
	cancel  func()
	probe   func(fd uintptr) bool
	idleOK  bool
	writeFn func()
	// stop unregisters the current exchange's context.AfterFunc.
	stop func() bool
}

// Write is the connection's side of bw, counting the bytes written and
// recording the first error.
func (c *upConn) Write(p []byte) (int, error) {
	n, err := c.conn.Write(p)
	c.nw += int64(n)
	if err != nil && c.werr == nil {
		c.werr = err
	}
	return n, err
}

// roundTrip sends req to addr and reads the reply up to its body. The
// reply body must be closed: after EOF that returns the connection to the
// pool, before EOF it closes the connection.
//
// A reused connection that fails before any reply byte arrives was most
// likely closed by the upstream while idle. The request is then retried
// once on a new connection if canRetry allows it.
func (u *upstream) roundTrip(req *http.Request, addr string) (*http.Response, error) {
	ctx := req.Context()
	if _, ok := req.Header["User-Agent"]; !ok {
		// A present but empty User-Agent keeps Request.Write from adding
		// its default one.
		req.Header["User-Agent"] = nil
	}
	c, err := u.get(ctx, addr)
	if err != nil {
		return nil, err
	}
	resp, err := c.exchange(req)
	if err == nil || !c.reused || !errors.Is(err, errNoReply) || ctx.Err() != nil || !canRetry(req, c.nw > 0) {
		return resp, err
	}
	if req.GetBody != nil {
		if req.Body, err = req.GetBody(); err != nil {
			return nil, err
		}
	}
	if c, err = u.dial(ctx, addr); err != nil {
		return nil, err
	}
	return c.exchange(req)
}

// canRetry is net/http's client rule (shouldRetryRequest) for sending req
// again after it failed on a reused connection with no reply: wrote says
// whether any of its bytes reached the connection. Its body must be one
// that can be sent again (none, or a GetBody). If nothing was written,
// that is enough.
// Otherwise the upstream may have acted on it, so it must also be
// idempotent: a GET, HEAD, OPTIONS or TRACE, or a request with an
// Idempotency-Key or X-Idempotency-Key header.
func canRetry(req *http.Request, wrote bool) bool {
	if req.Body != nil && req.Body != http.NoBody && req.GetBody == nil {
		return false
	}
	if !wrote {
		return true
	}
	switch req.Method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	_, key := req.Header["Idempotency-Key"]
	_, xkey := req.Header["X-Idempotency-Key"]
	return key || xkey
}

// exchange writes req on c and reads the reply headers, past any interim
// 1xx reply but 101. On error the connection is closed.
//
// A request with a body is written by c.writeFn while this goroutine
// reads the reply, so an upstream that answers before it has read the
// whole body (a 413 or a 401 on an upload) is heard at once. A final
// reply that comes before the body is all written ends the write, and a
// connection left in the middle of a request is not reused.
func (c *upConn) exchange(req *http.Request) (*http.Response, error) {
	if done := req.Context().Done(); done != nil {
		c.stop = context.AfterFunc(req.Context(), c.cancel)
	}
	c.nw = 0
	var werr error
	if req.Body != nil && req.Body != http.NoBody {
		c.req, c.writing = req, true
		go c.writeFn()
	} else if werr = c.write(req); werr != nil && c.werr == nil {
		// The request body failed, not the connection.
		c.finish(false)
		return nil, werr
	}
	// After a failed write the upstream may still have replied before
	// it closed: read what it sent.
	if _, perr := c.br.Peek(1); perr != nil {
		if c.writing {
			if werr = c.join(); werr != nil && c.werr == nil {
				c.finish(false)
				return nil, werr
			}
		}
		c.finish(false)
		if werr == nil {
			werr = perr
		}
		return nil, fmt.Errorf("%w: %w", errNoReply, werr)
	}
	for {
		resp, rerr := http.ReadResponse(c.br, req)
		if rerr != nil {
			c.finish(false)
			return nil, rerr
		}
		if resp.StatusCode >= 100 && resp.StatusCode < 200 && resp.StatusCode != http.StatusSwitchingProtocols {
			continue
		}
		if c.writing {
			select {
			case werr = <-c.wdone:
				c.writing, c.req = false, nil
			default:
				// The upstream has answered, so the rest of the body is
				// not wanted. finish joins the writer.
				_ = c.conn.SetWriteDeadline(aLongTimeAgo)
			}
		}
		c.keep = werr == nil && !resp.Close && resp.ProtoAtLeast(1, 1) &&
			resp.StatusCode != http.StatusSwitchingProtocols
		if resp.Body == http.NoBody {
			c.finish(true)
		} else {
			resp.Body = &replyBody{body: resp.Body, c: c}
		}
		return resp, nil
	}
}

// write sends req on c: its headers, its body and a flush.
func (c *upConn) write(req *http.Request) error {
	err := req.Write(c.bw)
	if err == nil {
		err = c.bw.Flush()
	}
	return err
}

// writeAhead is the writer goroutine: it sends c.req and reports the
// result on c.wdone. When the request body fails, the upstream may wait
// for the rest of it, so the read of its reply is failed too.
func (c *upConn) writeAhead() {
	err := c.write(c.req)
	if err != nil && c.werr == nil {
		_ = c.conn.SetReadDeadline(aLongTimeAgo)
	}
	c.wdone <- err
}

// join ends the writer goroutine: it fails the writer's writes on the
// connection, waits for it to return and reports its result. It never
// waits on the upstream, but it may on the request body. Nothing may read
// a server request's body after its handler returns, so every exchange
// that starts the writer joins it before it ends.
func (c *upConn) join() error {
	_ = c.conn.SetWriteDeadline(aLongTimeAgo)
	err := <-c.wdone
	c.writing, c.req = false, nil
	if err == nil {
		// The request was all written before the deadline was set.
		_ = c.conn.SetWriteDeadline(time.Time{})
	}
	return err
}

// finish ends the exchange on c. The connection goes back to the pool if
// the exchange completed (ok) with its request all written, its reply
// allows reuse, its context never reached the connection and the upstream
// sent nothing past the reply; otherwise it is closed.
func (c *upConn) finish(ok bool) {
	if c.writing && c.join() != nil {
		ok = false
	}
	if c.stop != nil {
		if !c.stop() {
			ok = false // the deadline may be set
		}
		c.stop = nil
	}
	if ok && c.keep && c.br.Buffered() == 0 {
		c.up.put(c)
		return
	}
	_ = c.conn.Close()
}

// replyBody is a reply body read from a pooled connection.
type replyBody struct {
	body io.ReadCloser
	c    *upConn
	eof  bool
}

func (b *replyBody) Read(p []byte) (int, error) {
	if b.c == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	n, err := b.body.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// Close returns the connection to the pool after EOF. Before EOF it
// closes the connection instead of draining it: the rest of an event
// stream may never come.
func (b *replyBody) Close() error {
	if b.c != nil {
		b.c.finish(b.eof)
		b.c = nil
	}
	return nil
}

// get returns a connection to addr: the most recently used idle one, or a
// new one. An idle connection the upstream has closed or written to (a
// 408 before it closes, say) is discarded without blocking rather than
// returned, so the request neither goes where no one reads it nor takes
// the stray bytes for its reply.
func (u *upstream) get(ctx context.Context, addr string) (*upConn, error) {
	u.mu.Lock()
	for list := u.idle[addr]; len(list) > 0; list = u.idle[addr] {
		c := list[len(list)-1]
		list[len(list)-1] = nil
		u.idle[addr] = list[:len(list)-1]
		c.timer.Stop()
		u.mu.Unlock()
		if c.idleClean() {
			c.reused = true
			return c, nil
		}
		_ = c.conn.Close()
		u.mu.Lock()
	}
	u.mu.Unlock()
	return u.dial(ctx, addr)
}

// dial opens a new connection to addr.
func (u *upstream) dial(ctx context.Context, addr string) (*upConn, error) {
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &upConn{up: u, addr: addr, conn: conn}
	c.br = bufio.NewReaderSize(conn, ioBufSize)
	c.bw = bufio.NewWriterSize(c, ioBufSize)
	c.cancel = func() { _ = conn.SetDeadline(aLongTimeAgo) }
	c.wdone = make(chan error, 1)
	c.writeFn = c.writeAhead
	if sc, ok := conn.(syscall.Conn); ok {
		c.raw, _ = sc.SyscallConn()
		c.probe = func(fd uintptr) bool {
			c.idleOK = fdIdle(fd)
			return true
		}
	}
	return c, nil
}

// idleClean reports whether nothing has arrived on an idle connection,
// neither bytes nor the upstream's close, without blocking.
func (c *upConn) idleClean() bool {
	if c.raw == nil || c.br.Buffered() > 0 {
		return false
	}
	c.idleOK = false
	return c.raw.Read(c.probe) == nil && c.idleOK
}

// put makes c idle, or closes it when its target already has
// maxIdlePerTarget idle connections or the pool is closed.
func (u *upstream) put(c *upConn) {
	u.mu.Lock()
	list := u.idle[c.addr]
	if u.closed || len(list) >= maxIdlePerTarget {
		u.mu.Unlock()
		_ = c.conn.Close()
		return
	}
	if u.idle == nil {
		u.idle = make(map[string][]*upConn)
	}
	u.idle[c.addr] = append(list, c)
	if c.timer == nil {
		c.timer = time.AfterFunc(idleTimeout, func() { u.expire(c) })
	} else {
		c.timer.Reset(idleTimeout)
	}
	u.mu.Unlock()
}

// expire closes c if it is still idle once its idle timer fires.
func (u *upstream) expire(c *upConn) {
	u.mu.Lock()
	list := u.idle[c.addr]
	i := slices.Index(list, c)
	if i >= 0 {
		u.idle[c.addr] = slices.Delete(list, i, i+1)
	}
	u.mu.Unlock()
	if i >= 0 {
		_ = c.conn.Close()
	}
}

// close closes every idle connection; a connection that finishes its
// exchange afterwards is closed instead of pooled.
func (u *upstream) close() {
	u.mu.Lock()
	idle := u.idle
	u.idle, u.closed = nil, true
	u.mu.Unlock()
	for _, list := range idle {
		for _, c := range list {
			c.timer.Stop()
			_ = c.conn.Close()
		}
	}
}
