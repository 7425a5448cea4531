// Package bus implements an HTTP message bus with bounded per-subscriber
// queues and asynchronous at-least-once delivery — the publish-subscribe
// interaction pattern of the paper's observation O2 ("microservices use
// standard application protocols (e.g., HTTP) and communication patterns
// (e.g., request-response, publish-subscribe)").
//
// The bus exists to reproduce the middleware-cascade outages of Table 1
// with their real mechanics: "when the cluster failed, the failure
// percolated to the message bus, filling the queues and blocking the
// publishers" (Stackdriver 2013; Parse.ly's Kafkapocalypse is the same
// shape). Deliveries are issued through an injectable HTTP client, so they
// can be routed through a Gremlin agent and subjected to fault-injection
// rules like any other inter-service call; when a subscriber is crashed,
// the delivery worker retries the head message, the bounded queue fills,
// and publishers start receiving backpressure errors.
package bus

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"gremlin/internal/httpx"
	"gremlin/internal/trace"
)

// Message is one published message as held in a subscriber queue.
type Message struct {
	// Topic the message was published to.
	Topic string

	// RequestID is the publisher's flow ID, propagated on delivery.
	RequestID string

	// Body is the message payload.
	Body []byte

	// Enqueued is when the message entered the queue.
	Enqueued time.Time
}

// Config configures a Bus.
type Config struct {
	// Name is the bus's logical service name.
	Name string

	// ListenAddr is the bus API's listen address ("127.0.0.1:0" for
	// ephemeral).
	ListenAddr string

	// QueueDepth bounds each subscriber's queue (default 64). A full
	// queue rejects publishes with 503 — the backpressure that blocked
	// the Table 1 publishers.
	QueueDepth int

	// RetryBackoff is the pause between delivery attempts for the same
	// message (default 10 ms). Delivery retries forever (at-least-once,
	// head-of-line blocking): exactly the behaviour that turns a dead
	// subscriber into a full queue.
	RetryBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "messagebus"
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	return c
}

// subscriber is one registered delivery target.
type subscriber struct {
	name  string
	topic string
	url   string
	queue chan Message
	stop  chan struct{}
	done  chan struct{}
}

// Stats is a snapshot of the bus state (GET /v1/stats).
type Stats struct {
	// QueueDepths maps "topic/subscriber" to current queue length.
	QueueDepths map[string]int `json:"queueDepths"`

	// Published counts accepted publishes.
	Published int64 `json:"published"`

	// Rejected counts publishes refused because a queue was full.
	Rejected int64 `json:"rejected"`

	// Delivered counts successful deliveries.
	Delivered int64 `json:"delivered"`

	// Redelivered counts delivery retries.
	Redelivered int64 `json:"redelivered"`
}

// Bus is a running message bus.
type Bus struct {
	cfg    Config
	server *httpx.Server
	client *http.Client // issues deliveries to subscribers

	mu          sync.Mutex
	subscribers map[string][]*subscriber // by topic
	closed      bool

	statsMu     sync.Mutex
	published   int64
	rejected    int64
	delivered   int64
	redelivered int64
}

// New creates a bus; the API listener is bound immediately, delivery
// workers start per subscription.
func New(cfg Config) (*Bus, error) {
	b := &Bus{
		cfg:         cfg.withDefaults(),
		client:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		subscribers: make(map[string][]*subscriber),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/topics/{topic}/publish", b.handlePublish)
	mux.HandleFunc("POST /v1/topics/{topic}/subscribe", b.handleSubscribe)
	mux.HandleFunc("GET /v1/stats", b.handleStats)
	mux.HandleFunc("GET /healthz", httpx.Healthz)
	srv, err := httpx.NewServer(b.cfg.ListenAddr, mux)
	if err != nil {
		return nil, fmt.Errorf("bus: bind: %w", err)
	}
	b.server = srv
	return b, nil
}

// Start begins serving the bus API.
func (b *Bus) Start() { b.server.Start() }

// URL returns the bus API base URL.
func (b *Bus) URL() string { return b.server.URL() }

// Close stops the API and every delivery worker, waiting for them to exit.
func (b *Bus) Close() error {
	err := b.server.Close()
	b.mu.Lock()
	b.closed = true
	var subs []*subscriber
	for _, list := range b.subscribers {
		subs = append(subs, list...)
	}
	b.mu.Unlock()
	for _, s := range subs {
		close(s.stop)
		<-s.done
	}
	return err
}

// Subscribe registers a delivery target for a topic and starts its
// delivery worker. Deliveries are POSTed to url with the original request
// ID propagated.
func (b *Bus) Subscribe(topic, name, url string) error {
	if topic == "" || name == "" || url == "" {
		return errors.New("bus: subscription needs topic, name and url")
	}
	s := &subscriber{
		name:  name,
		topic: topic,
		url:   url,
		queue: make(chan Message, b.cfg.QueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errors.New("bus: closed")
	}
	for _, existing := range b.subscribers[topic] {
		if existing.name == name {
			b.mu.Unlock()
			return fmt.Errorf("bus: subscriber %q already registered on topic %q", name, topic)
		}
	}
	b.subscribers[topic] = append(b.subscribers[topic], s)
	b.mu.Unlock()

	go b.deliverLoop(s)
	return nil
}

// Publish enqueues a message for every subscriber of the topic. It fails
// with ErrQueueFull if any subscriber's queue is full — backpressure that
// propagates to the publisher, as in the Table 1 outages.
func (b *Bus) Publish(topic, requestID string, body []byte) error {
	b.mu.Lock()
	subs := append([]*subscriber(nil), b.subscribers[topic]...)
	b.mu.Unlock()
	if len(subs) == 0 {
		return fmt.Errorf("bus: topic %q has no subscribers", topic)
	}
	msg := Message{Topic: topic, RequestID: requestID, Body: body, Enqueued: time.Now()}
	for _, s := range subs {
		select {
		case s.queue <- msg:
		default:
			b.statsMu.Lock()
			b.rejected++
			b.statsMu.Unlock()
			return fmt.Errorf("%w: subscriber %q on topic %q (depth %d)",
				ErrQueueFull, s.name, topic, b.cfg.QueueDepth)
		}
	}
	b.statsMu.Lock()
	b.published++
	b.statsMu.Unlock()
	return nil
}

// ErrQueueFull is returned (wrapped) when a publish is rejected because a
// subscriber queue is at capacity.
var ErrQueueFull = errors.New("bus: queue full")

// Stats returns a snapshot of bus counters and queue depths.
func (b *Bus) Stats() Stats {
	st := Stats{QueueDepths: make(map[string]int)}
	b.mu.Lock()
	for topic, list := range b.subscribers {
		for _, s := range list {
			st.QueueDepths[topic+"/"+s.name] = len(s.queue)
		}
	}
	b.mu.Unlock()
	b.statsMu.Lock()
	st.Published = b.published
	st.Rejected = b.rejected
	st.Delivered = b.delivered
	st.Redelivered = b.redelivered
	b.statsMu.Unlock()
	return st
}

// deliverLoop drains one subscriber's queue, retrying each message until
// delivery succeeds (at-least-once with head-of-line blocking).
func (b *Bus) deliverLoop(s *subscriber) {
	defer close(s.done)
	for {
		var msg Message
		select {
		case msg = <-s.queue:
		case <-s.stop:
			return
		}
		for attempt := 0; ; attempt++ {
			if attempt > 0 {
				b.statsMu.Lock()
				b.redelivered++
				b.statsMu.Unlock()
				t := time.NewTimer(b.cfg.RetryBackoff)
				select {
				case <-t.C:
				case <-s.stop:
					t.Stop()
					return
				}
			}
			if b.deliver(s, msg) {
				b.statsMu.Lock()
				b.delivered++
				b.statsMu.Unlock()
				break
			}
			select {
			case <-s.stop:
				return
			default:
			}
		}
	}
}

// deliver POSTs one message to the subscriber, reporting success.
func (b *Bus) deliver(s *subscriber, msg Message) bool {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(msg.Body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Bus-Topic", msg.Topic)
	trace.SetRequestID(req, msg.RequestID)
	resp, err := b.client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	_ = resp.Body.Close()
	return resp.StatusCode < 400
}

func (b *Bus) handlePublish(w http.ResponseWriter, r *http.Request) {
	topic := r.PathValue("topic")
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if err := b.Publish(topic, trace.FromRequest(r), body); err != nil {
		status := http.StatusServiceUnavailable
		if !errors.Is(err, ErrQueueFull) {
			status = http.StatusNotFound
		}
		httpx.WriteError(w, status, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusAccepted, map[string]string{"status": "queued"})
}

type subscribeBody struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

func (b *Bus) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	topic := r.PathValue("topic")
	var in subscribeBody
	if err := httpx.ReadJSON(w, r, &in); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := b.Subscribe(topic, in.Name, in.URL); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusCreated, map[string]string{"status": "subscribed"})
}

func (b *Bus) handleStats(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, b.Stats())
}
