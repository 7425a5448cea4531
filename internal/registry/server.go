package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"gremlin/internal/httpx"
	"gremlin/internal/metrics"
)

// Server exposes a registry over HTTP for dynamic service registration:
//
//	POST   /v1/instances[?ttlMillis=]             register an instance under a lease
//	POST   /v1/renew?service=&addr=&ttlMillis=    heartbeat a lease
//	DELETE /v1/instances?service=&addr=           deregister
//	GET    /v1/instances?service=                 list a service's instances
//	GET    /v1/services                           list service names
//	GET    /v1/members                            live members with lease state
//	GET    /v1/watch?since=N&timeoutMillis=M      long-poll the change feed
//	GET    /metrics                               registry self-metrics
//	GET    /healthz                               liveness probe
type Server struct {
	reg  *Dynamic
	http *httpx.Server
}

// NewServer creates and starts a registry server on addr.
func NewServer(addr string, reg *Dynamic) (*Server, error) {
	s := &Server{reg: reg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/instances", s.handleRegister)
	mux.HandleFunc("POST /v1/renew", s.handleRenew)
	mux.HandleFunc("DELETE /v1/instances", s.handleDeregister)
	mux.HandleFunc("GET /v1/instances", s.handleList)
	mux.HandleFunc("GET /v1/services", s.handleServices)
	mux.HandleFunc("GET /v1/members", s.handleMembers)
	mux.HandleFunc("GET /v1/watch", s.handleWatch)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", httpx.Healthz)
	hs, err := httpx.NewServer(addr, mux)
	if err != nil {
		return nil, err
	}
	s.http = hs
	hs.Start()
	return s, nil
}

// URL returns the server's base URL.
func (s *Server) URL() string { return s.http.URL() }

// Close shuts the server down.
func (s *Server) Close() error { return s.http.Close() }

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var in Instance
	if err := httpx.ReadJSON(w, r, &in); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ttl, err := ttlParam(r)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.reg.Register(in, ttl); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusCreated, in)
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	service, addr := r.URL.Query().Get("service"), r.URL.Query().Get("addr")
	if service == "" || addr == "" {
		httpx.WriteError(w, http.StatusBadRequest, "need service and addr query parameters")
		return
	}
	ttl, err := ttlParam(r)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.reg.Renew(service, addr, ttl); err != nil {
		// The lease is gone: the registrar must re-register, and 404 is
		// the signal heartbeat loops react to.
		httpx.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "renewed"})
}

func (s *Server) handleMembers(w http.ResponseWriter, _ *http.Request) {
	members := s.reg.Members()
	if members == nil {
		members = []Member{}
	}
	httpx.WriteJSON(w, http.StatusOK, members)
}

// WatchResponse is one long-poll result: the events after the requested
// cursor and the version to resume from. Resync is set (with empty
// events) when the cursor fell off the bounded event ring and the
// consumer must re-list members before resuming.
type WatchResponse struct {
	Version uint64  `json:"version"`
	Events  []Event `json:"events"`
	Resync  bool    `json:"resync,omitempty"`
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpx.WriteError(w, http.StatusBadRequest, "bad since: %v", err)
			return
		}
		since = n
	}
	timeout := 30 * time.Second
	if v := q.Get("timeoutMillis"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpx.WriteError(w, http.StatusBadRequest, "bad timeoutMillis %q", v)
			return
		}
		timeout = time.Duration(n) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	events, version, err := s.reg.WaitEvents(ctx, since)
	switch {
	case err == nil:
	case ctx.Err() != nil:
		// Timed out with no changes: an empty poll, not an error.
		version, events = since, nil
	default:
		// The cursor fell behind the ring; tell the consumer to resync.
		httpx.WriteJSON(w, http.StatusOK, WatchResponse{Version: s.reg.Version(), Resync: true, Events: []Event{}})
		return
	}
	if events == nil {
		events = []Event{}
	}
	httpx.WriteJSON(w, http.StatusOK, WatchResponse{Version: version, Events: events})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	mw := metrics.NewWriter()
	s.reg.WriteMetrics(mw)
	mw.Serve(w)
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	service, addr := r.URL.Query().Get("service"), r.URL.Query().Get("addr")
	if service == "" || addr == "" {
		httpx.WriteError(w, http.StatusBadRequest, "need service and addr query parameters")
		return
	}
	if !s.reg.Remove(service, addr) {
		httpx.WriteError(w, http.StatusNotFound, "instance %s@%s not registered", service, addr)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]int{"removed": 1})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	service := r.URL.Query().Get("service")
	if service == "" {
		httpx.WriteError(w, http.StatusBadRequest, "need service query parameter")
		return
	}
	instances, err := s.reg.Instances(service)
	if err != nil {
		httpx.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, instances)
}

func (s *Server) handleServices(w http.ResponseWriter, _ *http.Request) {
	services, err := s.reg.Services()
	if err != nil {
		httpx.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if services == nil {
		services = []string{}
	}
	httpx.WriteJSON(w, http.StatusOK, services)
}

// ttlParam parses an optional ?ttlMillis= query parameter (0 = use the
// registry's default TTL).
func ttlParam(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("ttlMillis")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	// A TTL past the largest Duration would wrap, possibly to a lease of
	// nanoseconds that ends before the caller sees its 201.
	if err != nil || n < 0 || time.Duration(n) > math.MaxInt64/time.Millisecond {
		return 0, fmt.Errorf("bad ttlMillis %q", v)
	}
	return time.Duration(n) * time.Millisecond, nil
}

// Client is a Registry backed by a remote registry Server.
type Client struct {
	wire httpx.Client
}

var _ Registry = (*Client)(nil)

// NewClient creates a registry client. If hc is nil a default client with a
// 10 s timeout is used.
func NewClient(baseURL string, hc *http.Client) *Client {
	return &Client{wire: httpx.NewClient(baseURL, hc)}
}

// Register adds an instance to the remote registry under the server's
// default lease.
func (c *Client) Register(in Instance) error {
	return c.RegisterTTL(in, 0)
}

// RegisterTTL adds an instance under an explicit lease TTL.
func (c *Client) RegisterTTL(in Instance, ttl time.Duration) error {
	path := "/v1/instances"
	if ttl > 0 {
		path += "?ttlMillis=" + strconv.FormatInt(ttl.Milliseconds(), 10)
	}
	if err := c.wire.JSON(context.TODO(), http.MethodPost, path, in, nil); err != nil {
		return fmt.Errorf("registry: register: %w", err)
	}
	return nil
}

// Renew heartbeats an instance's lease. A failed renewal (lease already
// expired server-side) is an error; the instance must re-register.
func (c *Client) Renew(service, addr string, ttl time.Duration) error {
	path := "/v1/renew?" + instanceQuery(service, addr)
	if ttl > 0 {
		path += "&ttlMillis=" + strconv.FormatInt(ttl.Milliseconds(), 10)
	}
	if err := c.wire.JSON(context.TODO(), http.MethodPost, path, nil, nil); err != nil {
		return fmt.Errorf("registry: renew: %w", err)
	}
	return nil
}

// Members lists the server's live members with lease bookkeeping.
func (c *Client) Members() ([]Member, error) {
	var out []Member
	if err := c.wire.JSON(context.TODO(), http.MethodGet, "/v1/members", nil, &out); err != nil {
		return nil, fmt.Errorf("registry: members: %w", err)
	}
	return out, nil
}

// WaitEvents long-polls the server's change feed: it blocks (up to the
// server's poll window) until the membership version exceeds since, then
// returns the new events and the version to resume from. A resync signal
// (cursor fell off the ring) is surfaced as ErrWatchGap with the current
// version; the consumer should re-list members and resume from it. The
// poll outlives the client's overall timeout: only ctx ends it early.
func (c *Client) WaitEvents(ctx context.Context, since uint64) ([]Event, uint64, error) {
	var wr WatchResponse
	path := fmt.Sprintf("/v1/watch?since=%d&timeoutMillis=%d", since, 30000)
	if err := c.wire.Long().JSON(ctx, http.MethodGet, path, nil, &wr); err != nil {
		return nil, since, fmt.Errorf("registry: watch: %w", err)
	}
	if wr.Resync {
		return nil, wr.Version, ErrWatchGap
	}
	return wr.Events, wr.Version, nil
}

// Deregister removes an instance from the remote registry.
func (c *Client) Deregister(service, addr string) error {
	path := "/v1/instances?" + instanceQuery(service, addr)
	if err := c.wire.JSON(context.TODO(), http.MethodDelete, path, nil, nil); err != nil {
		return fmt.Errorf("registry: deregister: %w", err)
	}
	return nil
}

// instanceQuery names one instance in a query string.
func instanceQuery(service, addr string) string {
	return "service=" + url.QueryEscape(service) + "&addr=" + url.QueryEscape(addr)
}

// Instances implements Registry.
func (c *Client) Instances(service string) ([]Instance, error) {
	var out []Instance
	err := c.wire.JSON(context.TODO(), http.MethodGet, "/v1/instances?service="+url.QueryEscape(service), nil, &out)
	var se *httpx.StatusError
	switch {
	case errors.As(err, &se) && se.Code == http.StatusNotFound:
		return nil, fmt.Errorf("%w: %q", ErrUnknownService, service)
	case err != nil:
		return nil, fmt.Errorf("registry: instances: %w", err)
	}
	return out, nil
}

// Services implements Registry.
func (c *Client) Services() ([]string, error) {
	var out []string
	if err := c.wire.JSON(context.TODO(), http.MethodGet, "/v1/services", nil, &out); err != nil {
		return nil, fmt.Errorf("registry: services: %w", err)
	}
	return out, nil
}

// Heartbeat registers in under a ttl lease and renews it every interval
// until the returned stop function is called (which also deregisters).
// A renewal that finds the lease expired re-registers, so a restarted or
// partitioned-and-healed registry converges back to the full membership.
func (c *Client) Heartbeat(in Instance, ttl, interval time.Duration) (stop func()) {
	_ = c.RegisterTTL(in, ttl)
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				_ = c.Deregister(in.Service, in.Addr)
				return
			case <-t.C:
				if err := c.Renew(in.Service, in.Addr, ttl); err != nil {
					_ = c.RegisterTTL(in, ttl)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-stopped
		})
	}
}
