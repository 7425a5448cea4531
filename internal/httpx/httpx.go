// Package httpx is the wire toolkit the Gremlin servers and their clients
// share: JSON encoding/decoding with limits, error payloads, the liveness
// probe, graceful server lifecycle management, one client path (Client)
// and one Server-Sent Events framing (StartEvents, ReadEvents).
package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// MaxBodyBytes bounds request bodies accepted by the control-plane servers.
const MaxBodyBytes = 4 << 20 // 4 MiB

// ErrorBody is the JSON error payload returned by Gremlin HTTP APIs.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteJSON writes v as a JSON response with the given status code.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is written cannot be reported to the
	// client; the connection is simply truncated.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes a JSON error payload.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// Healthz answers a liveness probe.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadJSON decodes the request body into v, enforcing MaxBodyBytes and
// rejecting unknown fields so that client/server schema drift surfaces as an
// error rather than silent data loss.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request body: %w", err)
	}
	return nil
}

// Server wraps http.Server with a managed listener and graceful shutdown so
// callers can start on an ephemeral port, learn the bound address, and stop
// without leaking goroutines.
type Server struct {
	httpServer *http.Server
	listener   net.Listener

	mu     sync.Mutex
	done   chan struct{}
	closed bool
	srvErr error

	// connMu guards fresh: connections accepted but yet to carry a
	// request. http.Server.Shutdown waits on these forever (they are not
	// "idle"), so Close terminates them directly — safe, since no request
	// is in flight on them.
	connMu sync.Mutex
	fresh  map[net.Conn]struct{}
}

// NewServer creates a server for handler bound to addr (use "127.0.0.1:0"
// for an ephemeral port). The listener is open after NewServer returns, so
// Addr is immediately valid, but no requests are served until Start.
func NewServer(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	s := &Server{
		httpServer: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 30 * time.Second,
		},
		listener: ln,
		done:     make(chan struct{}),
		fresh:    make(map[net.Conn]struct{}),
	}
	s.httpServer.ConnState = func(c net.Conn, st http.ConnState) {
		s.connMu.Lock()
		defer s.connMu.Unlock()
		if st == http.StateNew {
			s.fresh[c] = struct{}{}
		} else {
			delete(s.fresh, c)
		}
	}
	return s, nil
}

// Start begins serving in a background goroutine.
func (s *Server) Start() {
	go func() {
		defer close(s.done)
		err := s.httpServer.Serve(s.listener)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.mu.Lock()
			s.srvErr = err
			s.mu.Unlock()
		}
	}()
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.listener.Addr().String() }

// URL returns the base http URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down and waits for the serve goroutine to exit:
// a short graceful drain first, then a forced close of any straggling
// connections. The force-close is required because http.Server.Shutdown
// waits forever on keep-alive connections that were dialed but never
// carried a request (StateNew) — a normal by-product of concurrent HTTP
// clients racing their dials — and on handlers parked in long injected
// delays (Hang faults). Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return s.srvErr
	}
	s.closed = true
	s.mu.Unlock()

	// Terminate request-less keep-alive connections up front so the
	// graceful drain below only waits on real in-flight requests.
	s.connMu.Lock()
	for c := range s.fresh {
		_ = c.Close()
	}
	s.connMu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := s.httpServer.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = s.httpServer.Close()
	}
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.srvErr
}
