package registry

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"gremlin/internal/metrics"
)

// EventType classifies a membership change.
type EventType string

const (
	// EventJoin is a first registration of a (service, addr) pair.
	EventJoin EventType = "join"

	// EventUpdate is a re-registration that changed the instance's
	// content (new agent URL, new health state, ...). Pure lease renewals
	// emit no event.
	EventUpdate EventType = "update"

	// EventLeave is an explicit deregistration.
	EventLeave EventType = "leave"

	// EventExpire is a lease that lapsed without renewal.
	EventExpire EventType = "expire"
)

// Event is one membership change, observable through Watch/WaitEvents.
type Event struct {
	// Seq is the membership version this event produced; versions are
	// strictly increasing, so consumers resume with since=Seq.
	Seq uint64 `json:"seq"`

	// Type classifies the change.
	Type EventType `json:"type"`

	// Instance is the member the change concerns.
	Instance Instance `json:"instance"`

	// Time is when the change was recorded.
	Time time.Time `json:"time"`
}

// Member is one live instance together with its lease bookkeeping.
type Member struct {
	Instance

	// RegisteredAt is when the instance first joined.
	RegisteredAt time.Time `json:"registeredAt"`

	// RenewedAt is the last heartbeat (or the registration itself).
	RenewedAt time.Time `json:"renewedAt"`

	// Expires is when the lease lapses unless renewed.
	Expires time.Time `json:"expires"`
}

// LeaseAge returns how long ago the member last heartbeated.
func (m Member) LeaseAge(now time.Time) time.Duration { return now.Sub(m.RenewedAt) }

// DynamicOptions configures a Dynamic registry.
type DynamicOptions struct {
	// DefaultTTL is the lease applied when Register gets ttl <= 0.
	// Defaults to 10 s.
	DefaultTTL time.Duration

	// MaxEvents bounds the replayable event ring for Watch consumers
	// (default 1024). A consumer that falls further behind is told to
	// resync from a full listing.
	MaxEvents int

	// Now overrides the clock, for tests. Nil uses time.Now.
	Now func() time.Time
}

// Dynamic is a lease-based membership registry: instances register with a
// TTL, renew via heartbeats, and expire server-side when the heartbeats
// stop — the "living fleet" the orchestrator's discovery-driven reconcile
// and the telemetry scraper consume. It implements Registry; reads only
// ever observe live (unexpired) members.
type Dynamic struct {
	opts DynamicOptions

	mu      sync.Mutex
	members map[string]map[string]*Member // service -> addr -> member
	// next is a lower bound on every member's Expires (zero while there
	// are none): no lease can lapse before it, so reads skip the expiry
	// scan until then. Every Expires write lowers it (leaseLocked); the
	// scan raises it to the earliest surviving lease.
	next    time.Time
	version uint64
	events  []Event // ring of the most recent MaxEvents changes
	wake    chan struct{}

	// Cumulative counters for WriteMetrics.
	nRegistrations int64
	nRenewals      int64
	nExpirations   int64
	nLeaves        int64
}

var _ Registry = (*Dynamic)(nil)

// NewDynamic creates an empty lease-based registry.
func NewDynamic(opts DynamicOptions) *Dynamic {
	if opts.DefaultTTL <= 0 {
		opts.DefaultTTL = 10 * time.Second
	}
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 1024
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Dynamic{
		opts:    opts,
		members: make(map[string]map[string]*Member),
		wake:    make(chan struct{}),
	}
}

// Register adds or refreshes an instance under a lease of ttl (DefaultTTL
// when ttl <= 0). Re-registering an existing (service, addr) pair replaces
// the previous entry and renews its lease — never a second member, so a
// restarted instance cannot double-count in orchestrator fan-out.
func (d *Dynamic) Register(in Instance, ttl time.Duration) error {
	if in.Service == "" || in.Addr == "" {
		return fmt.Errorf("registry: register needs service and addr, got %+v", in)
	}
	if ttl <= 0 {
		ttl = d.opts.DefaultTTL
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.opts.Now()
	d.expireLocked(now)
	byAddr := d.members[in.Service]
	if byAddr == nil {
		byAddr = make(map[string]*Member)
		d.members[in.Service] = byAddr
	}
	d.nRegistrations++
	if m, ok := byAddr[in.Addr]; ok {
		changed := m.Instance != in
		m.Instance = in
		d.leaseLocked(m, now, ttl)
		if changed {
			d.emitLocked(EventUpdate, in, now)
		}
		return nil
	}
	m := &Member{Instance: in, RegisteredAt: now}
	d.leaseLocked(m, now, ttl)
	byAddr[in.Addr] = m
	d.emitLocked(EventJoin, in, now)
	return nil
}

// leaseLocked renews m's lease for ttl from now and lowers the registry's
// next-expiry bound when the new deadline is earlier than it.
func (d *Dynamic) leaseLocked(m *Member, now time.Time, ttl time.Duration) {
	m.RenewedAt = now
	m.Expires = now.Add(ttl)
	if d.next.IsZero() || m.Expires.Before(d.next) {
		d.next = m.Expires
	}
}

// Renew extends a live member's lease by ttl (DefaultTTL when ttl <= 0).
// Renewing an unknown or already-expired member fails — the instance must
// re-register, so consumers always see its return as a join.
func (d *Dynamic) Renew(service, addr string, ttl time.Duration) error {
	if ttl <= 0 {
		ttl = d.opts.DefaultTTL
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.opts.Now()
	d.expireLocked(now)
	m := d.members[service][addr]
	if m == nil {
		return fmt.Errorf("registry: renew %s@%s: no live lease (re-register)", service, addr)
	}
	d.leaseLocked(m, now, ttl)
	d.nRenewals++
	return nil
}

// Remove deregisters an instance explicitly, reporting whether it was
// live.
func (d *Dynamic) Remove(service, addr string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.opts.Now()
	d.expireLocked(now)
	m := d.members[service][addr]
	if m == nil {
		return false
	}
	delete(d.members[service], addr)
	if len(d.members[service]) == 0 {
		delete(d.members, service)
	}
	d.nLeaves++
	d.emitLocked(EventLeave, m.Instance, now)
	return true
}

// Add registers an instance under the default lease. An instance without
// a service or address is dropped; Register reports it instead.
func (d *Dynamic) Add(in Instance) { _ = d.Register(in, 0) }

// Instances implements Registry over the live members.
func (d *Dynamic) Instances(service string) ([]Instance, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked(d.opts.Now())
	byAddr := d.members[service]
	if len(byAddr) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownService, service)
	}
	out := make([]Instance, 0, len(byAddr))
	for _, m := range byAddr {
		out = append(out, m.Instance)
	}
	slices.SortFunc(out, func(a, b Instance) int {
		return cmp.Or(cmp.Compare(a.Replica, b.Replica), cmp.Compare(a.Addr, b.Addr))
	})
	return out, nil
}

// Services implements Registry over the live members.
func (d *Dynamic) Services() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked(d.opts.Now())
	names := make([]string, 0, len(d.members))
	for n := range d.members {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Members returns every live member with its lease bookkeeping, sorted by
// service, then replica, then address.
func (d *Dynamic) Members() []Member {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked(d.opts.Now())
	var out []Member
	for _, byAddr := range d.members {
		for _, m := range byAddr {
			out = append(out, *m)
		}
	}
	slices.SortFunc(out, func(a, b Member) int {
		return cmp.Or(cmp.Compare(a.Service, b.Service),
			cmp.Compare(a.Replica, b.Replica), cmp.Compare(a.Addr, b.Addr))
	})
	return out
}

// Version returns the current membership version; it increases with every
// join, content update, leave, and expiry.
func (d *Dynamic) Version() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked(d.opts.Now())
	return d.version
}

// Sweep expires lapsed leases eagerly (reads already never observe them)
// so their expire events reach watchers promptly. It returns how many
// leases lapsed.
func (d *Dynamic) Sweep() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.expireLocked(d.opts.Now())
}

// StartSweeper expires lapsed leases every interval until the returned
// stop function is called.
func (d *Dynamic) StartSweeper(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				d.Sweep()
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

// ErrWatchGap is returned (wrapped) by WaitEvents when the requested
// cursor has fallen off the bounded event ring; the consumer must resync
// from a full Members listing.
var ErrWatchGap = fmt.Errorf("registry: watch cursor fell behind the event ring")

// WaitEvents blocks until the membership version exceeds since (or ctx is
// done), then returns the events after since and the new version to resume
// from. A zero since starts at the current version without replay when no
// events are buffered past it. Consumers that fall behind the bounded ring
// get ErrWatchGap and must resync.
func (d *Dynamic) WaitEvents(ctx context.Context, since uint64) ([]Event, uint64, error) {
	for {
		d.mu.Lock()
		d.expireLocked(d.opts.Now())
		if d.version > since {
			evs, err := d.eventsAfterLocked(since)
			version := d.version
			d.mu.Unlock()
			return evs, version, err
		}
		wake := d.wake
		d.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, since, ctx.Err()
		case <-wake:
		}
	}
}

// eventsAfterLocked returns buffered events with Seq > since, or
// ErrWatchGap when the ring no longer reaches back that far.
func (d *Dynamic) eventsAfterLocked(since uint64) ([]Event, error) {
	if len(d.events) > 0 && d.events[0].Seq > since+1 {
		return nil, fmt.Errorf("%w: need events after %d, ring starts at %d", ErrWatchGap, since, d.events[0].Seq)
	}
	var out []Event
	for _, e := range d.events {
		if e.Seq > since {
			out = append(out, e)
		}
	}
	return out, nil
}

// emitLocked records a membership change and wakes blocked watchers.
func (d *Dynamic) emitLocked(typ EventType, in Instance, now time.Time) {
	d.version++
	d.events = append(d.events, Event{Seq: d.version, Type: typ, Instance: in, Time: now})
	if n := len(d.events) - d.opts.MaxEvents; n > 0 {
		d.events = append(d.events[:0], d.events[n:]...)
	}
	close(d.wake)
	d.wake = make(chan struct{})
}

// expireLocked drops members whose lease lapsed, emitting expire events.
// Until the next-expiry bound passes it costs one comparison; a scan
// resets the bound to the earliest surviving lease.
func (d *Dynamic) expireLocked(now time.Time) int {
	if !now.After(d.next) {
		return 0
	}
	expired := 0
	var next time.Time
	for svc, byAddr := range d.members {
		for addr, m := range byAddr {
			switch {
			case now.After(m.Expires):
				delete(byAddr, addr)
				expired++
				d.nExpirations++
				d.emitLocked(EventExpire, m.Instance, now)
			case next.IsZero() || m.Expires.Before(next):
				next = m.Expires
			}
		}
		if len(byAddr) == 0 {
			delete(d.members, svc)
		}
	}
	d.next = next
	return expired
}

// WriteMetrics appends the registry's membership gauges and lease
// counters to w in Prometheus exposition format.
func (d *Dynamic) WriteMetrics(w *metrics.Writer) {
	d.mu.Lock()
	d.expireLocked(d.opts.Now())
	perService := make(map[string]int, len(d.members))
	total := 0
	for svc, byAddr := range d.members {
		perService[svc] = len(byAddr)
		total += len(byAddr)
	}
	version := d.version
	regs, renews, exps, leaves := d.nRegistrations, d.nRenewals, d.nExpirations, d.nLeaves
	d.mu.Unlock()

	w.Gauge("gremlin_registry_instances",
		"Live (unexpired) instances currently registered.", float64(total))
	w.Gauge("gremlin_registry_services",
		"Logical services with at least one live instance.", float64(len(perService)))
	w.Gauge("gremlin_registry_version",
		"Membership version; increases with every join, update, leave, and expiry.", float64(version))
	w.Counter("gremlin_registry_registrations_total",
		"Register calls accepted (including re-registrations).", float64(regs))
	w.Counter("gremlin_registry_renewals_total",
		"Lease heartbeats accepted.", float64(renews))
	w.Counter("gremlin_registry_expirations_total",
		"Leases that lapsed without renewal.", float64(exps))
	w.Counter("gremlin_registry_leaves_total",
		"Explicit deregistrations.", float64(leaves))
	names := make([]string, 0, len(perService))
	for n := range perService {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w.Gauge("gremlin_registry_service_instances",
			"Live instances per logical service.", float64(perService[n]), "service", n)
	}
}
