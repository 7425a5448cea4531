package registry

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gremlin/internal/metrics"
)

// fakeClock is a manual clock for lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestDynamicRegisterRenewExpire(t *testing.T) {
	clock := newFakeClock()
	d := NewDynamic(DynamicOptions{DefaultTTL: 10 * time.Second, Now: clock.Now})
	if err := d.Register(Instance{Service: "a", Addr: "x:1"}, 0); err != nil {
		t.Fatal(err)
	}

	clock.Advance(8 * time.Second)
	if err := d.Renew("a", "x:1", 0); err != nil {
		t.Fatal(err)
	}

	// 8s + 8s: past the original expiry, inside the renewed lease.
	clock.Advance(8 * time.Second)
	if got, err := d.Instances("a"); err != nil || len(got) != 1 {
		t.Fatalf("Instances after renew = %v, %v", got, err)
	}

	// Lapse the renewed lease.
	clock.Advance(11 * time.Second)
	if _, err := d.Instances("a"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("expired member still visible: %v", err)
	}
	if err := d.Renew("a", "x:1", 0); err == nil {
		t.Fatal("renewing an expired lease should fail")
	}
	if svcs, _ := d.Services(); len(svcs) != 0 {
		t.Fatalf("Services after expiry = %v", svcs)
	}
}

// TestDynamicLeaseGuard pins the next-expiry bound reads consult before
// scanning: every write of a member's deadline must lower it, or a lease
// shortened after the bound was computed would outlive its deadline.
// Each case first reads the registry so the bound sits at the long
// lease, then shortens or adds a lease and steps just past it.
func TestDynamicLeaseGuard(t *testing.T) {
	const long, short = time.Hour, 5 * time.Second
	x := Instance{Service: "a", Addr: "x:1"}
	for _, tt := range []struct {
		name    string
		shorten func(d *Dynamic) error
		gone    Instance // the member that must expire at the short deadline
	}{
		{"re-register", func(d *Dynamic) error { return d.Register(x, short) }, x},
		{"renew", func(d *Dynamic) error { return d.Renew(x.Service, x.Addr, short) }, x},
		{"join", func(d *Dynamic) error { return d.Register(Instance{Service: "b", Addr: "y:1"}, short) }, Instance{Service: "b", Addr: "y:1"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			clock := newFakeClock()
			d := NewDynamic(DynamicOptions{Now: clock.Now})
			if err := d.Register(x, long); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Instances(x.Service); err != nil {
				t.Fatal(err)
			}
			if err := tt.shorten(d); err != nil {
				t.Fatal(err)
			}
			clock.Advance(short)
			if _, err := d.Instances(tt.gone.Service); err != nil {
				t.Fatalf("expired before its deadline: %v", err)
			}
			clock.Advance(time.Millisecond)
			if _, err := d.Instances(tt.gone.Service); !errors.Is(err, ErrUnknownService) {
				t.Fatalf("lease outlived its %v deadline: err = %v", short, err)
			}
		})
	}

	t.Run("static", func(t *testing.T) {
		clock := newFakeClock()
		d := NewStatic()
		d.opts.Now = clock.Now
		d.Add(x)
		clock.Advance(50 * 365 * 24 * time.Hour)
		if got, err := d.Instances(x.Service); err != nil || len(got) != 1 {
			t.Fatalf("NewStatic member gone after 50 years: %v, %v", got, err)
		}
	})
}

func TestDynamicReRegistrationDeduplicates(t *testing.T) {
	clock := newFakeClock()
	d := NewDynamic(DynamicOptions{Now: clock.Now})
	for i := 0; i < 5; i++ {
		if err := d.Register(Instance{Service: "a", Addr: "x:1", AgentControlURL: fmt.Sprintf("http://agent-%d", i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.Instances("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].AgentControlURL != "http://agent-4" {
		t.Fatalf("re-registration double-counted: %+v", got)
	}
	urls, err := AgentURLs(d, "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 1 {
		t.Fatalf("orchestrator fan-out would hit %d agents, want 1: %v", len(urls), urls)
	}
}

func TestDynamicEvents(t *testing.T) {
	clock := newFakeClock()
	d := NewDynamic(DynamicOptions{DefaultTTL: 5 * time.Second, Now: clock.Now})
	ctx := context.Background()

	if err := d.Register(Instance{Service: "a", Addr: "x:1"}, 0); err != nil {
		t.Fatal(err)
	}
	evs, v, err := d.WaitEvents(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Type != EventJoin || evs[0].Instance.Addr != "x:1" {
		t.Fatalf("events = %+v", evs)
	}

	// Renewal: no event. Content change: update event.
	if err := d.Renew("a", "x:1", 0); err != nil {
		t.Fatal(err)
	}
	if d.Version() != v {
		t.Fatal("renewal must not bump the version")
	}
	if err := d.Register(Instance{Service: "a", Addr: "x:1", Health: "up"}, 0); err != nil {
		t.Fatal(err)
	}
	evs, v, err = d.WaitEvents(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Type != EventUpdate {
		t.Fatalf("events = %+v", evs)
	}

	// Expiry surfaces as an expire event (via Sweep).
	clock.Advance(6 * time.Second)
	if n := d.Sweep(); n != 1 {
		t.Fatalf("Sweep = %d, want 1", n)
	}
	evs, _, err = d.WaitEvents(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Type != EventExpire {
		t.Fatalf("events = %+v", evs)
	}
}

func TestDynamicWaitEventsBlocksUntilChange(t *testing.T) {
	d := NewDynamic(DynamicOptions{})
	since := d.Version()
	done := make(chan Event, 1)
	go func() {
		evs, _, err := d.WaitEvents(context.Background(), since)
		if err != nil || len(evs) == 0 {
			done <- Event{}
			return
		}
		done <- evs[0]
	}()
	time.Sleep(20 * time.Millisecond)
	if err := d.Register(Instance{Service: "b", Addr: "y:1"}, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-done:
		if ev.Type != EventJoin || ev.Instance.Service != "b" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watcher never woke")
	}
}

func TestDynamicWaitEventsContextCancel(t *testing.T) {
	d := NewDynamic(DynamicOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := d.WaitEvents(ctx, d.Version()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestDynamicWatchGap(t *testing.T) {
	d := NewDynamic(DynamicOptions{MaxEvents: 4})
	for i := 0; i < 10; i++ {
		if err := d.Register(Instance{Service: "a", Addr: fmt.Sprintf("x:%d", i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := d.WaitEvents(context.Background(), 1); !errors.Is(err, ErrWatchGap) {
		t.Fatalf("err = %v, want ErrWatchGap", err)
	}
	// A cursor inside the retained window still replays.
	evs, _, err := d.WaitEvents(context.Background(), d.Version()-2)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
}

// TestDynamicConcurrent exercises register/renew/expire/read races under
// -race: 8 goroutines churn leases on a fast manual clock while readers
// list and watch.
func TestDynamicConcurrent(t *testing.T) {
	d := NewDynamic(DynamicOptions{DefaultTTL: 2 * time.Millisecond})
	stopSweep := d.StartSweeper(time.Millisecond)
	defer stopSweep()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		var since uint64
		for ctx.Err() == nil {
			evs, v, err := d.WaitEvents(ctx, since)
			if errors.Is(err, ErrWatchGap) {
				since = v
				continue
			}
			if err != nil {
				return
			}
			_ = evs
			since = v
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := Instance{Service: "svc", Addr: fmt.Sprintf("h%d:1", w)}
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					_ = d.Register(in, time.Millisecond)
				case 1:
					_ = d.Renew(in.Service, in.Addr, time.Millisecond)
				case 2:
					_, _ = d.Instances("svc")
					_ = d.Members()
				case 3:
					d.Remove(in.Service, in.Addr)
				}
			}
		}(w)
	}
	wg.Wait()
	cancel()
	watcher.Wait()
}

func TestDynamicWriteMetrics(t *testing.T) {
	clock := newFakeClock()
	d := NewDynamic(DynamicOptions{DefaultTTL: time.Second, Now: clock.Now})
	if err := d.Register(Instance{Service: "a", Addr: "x:1"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(Instance{Service: "a", Addr: "x:2"}, 0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	d.Sweep()
	if err := d.Register(Instance{Service: "b", Addr: "y:1"}, 0); err != nil {
		t.Fatal(err)
	}

	w := metrics.NewWriter()
	d.WriteMetrics(w)
	body := w.String()
	if err := metrics.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"gremlin_registry_instances 1",
		"gremlin_registry_registrations_total 3",
		"gremlin_registry_expirations_total 2",
		`gremlin_registry_service_instances{service="b"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestDynamicServerLeaseFlow(t *testing.T) {
	d := NewDynamic(DynamicOptions{DefaultTTL: 200 * time.Millisecond})
	srv, err := NewServer("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.URL(), nil)

	in := Instance{Service: "web", Addr: "10.0.0.1:80", AgentControlURL: "http://10.0.0.1:9000", Replica: 1}
	if err := c.RegisterTTL(in, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	members, err := c.Members()
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0].Instance != in || members[0].Expires.IsZero() {
		t.Fatalf("members = %+v", members)
	}

	// Keep renewing past the original TTL.
	for i := 0; i < 4; i++ {
		time.Sleep(50 * time.Millisecond)
		if err := c.Renew("web", "10.0.0.1:80", 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := c.Instances("web"); err != nil || len(got) != 1 {
		t.Fatalf("Instances = %v, %v", got, err)
	}

	// Stop heartbeating: the lease lapses server-side.
	time.Sleep(150 * time.Millisecond)
	if _, err := c.Instances("web"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v, want ErrUnknownService", err)
	}
	if err := c.Renew("web", "10.0.0.1:80", 0); err == nil {
		t.Fatal("renew after expiry should 404")
	}
}

func TestDynamicServerWatchLongPoll(t *testing.T) {
	d := NewDynamic(DynamicOptions{})
	srv, err := NewServer("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.URL(), nil)

	type result struct {
		evs []Event
		v   uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		evs, v, err := c.WaitEvents(context.Background(), 0)
		done <- result{evs, v, err}
	}()
	time.Sleep(30 * time.Millisecond)
	if err := c.Register(Instance{Service: "api", Addr: "z:1"}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.evs) != 1 || r.evs[0].Type != EventJoin || r.evs[0].Instance.Service != "api" {
			t.Fatalf("events = %+v", r.evs)
		}
		if r.v == 0 {
			t.Fatal("version not advanced")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never returned")
	}
}

// TestClientWaitEventsOutlivesClientTimeout: a pending watch on an idle
// registry is bounded by its ctx and the server's poll window, not by the
// client's overall timeout, so a registration that lands after that
// timeout is still delivered.
func TestClientWaitEventsOutlivesClientTimeout(t *testing.T) {
	d := NewDynamic(DynamicOptions{})
	srv, err := NewServer("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.URL(), &http.Client{Timeout: 100 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	since := d.Version()
	time.AfterFunc(300*time.Millisecond, func() { _ = d.Register(Instance{Service: "late", Addr: "l:1"}, 0) })
	evs, v, err := c.WaitEvents(ctx, since)
	if err != nil {
		t.Fatalf("WaitEvents = %v, want the registration at 300ms", err)
	}
	if len(evs) != 1 || evs[0].Instance.Service != "late" || v <= since {
		t.Fatalf("events = %+v at version %d (since %d)", evs, v, since)
	}
}

func TestClientHeartbeatKeepsMemberAlive(t *testing.T) {
	d := NewDynamic(DynamicOptions{})
	srv, err := NewServer("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.URL(), nil)

	stop := c.Heartbeat(Instance{Service: "hb", Addr: "h:1"}, 120*time.Millisecond, 40*time.Millisecond)
	time.Sleep(400 * time.Millisecond) // several TTLs
	if got, err := c.Instances("hb"); err != nil || len(got) != 1 {
		t.Fatalf("heartbeated member gone: %v, %v", got, err)
	}
	stop()
	// Stop deregisters explicitly.
	if _, err := c.Instances("hb"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err after stop = %v, want ErrUnknownService", err)
	}
}
