package proxy

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestTargetPoolRoundRobinWhenIdle(t *testing.T) {
	p := newTargetPool([]string{"a", "b", "c"})
	counts := map[string]int{}
	for i := 0; i < 9; i++ {
		target := p.pick()
		if target == nil {
			t.Fatal("pool empty")
		}
		target.pending.Add(-1)
		counts[target.addr]++
	}
	for _, addr := range []string{"a", "b", "c"} {
		if counts[addr] != 3 {
			t.Fatalf("idle pool should round-robin evenly, got %v", counts)
		}
	}
}

func TestTargetPoolPrefersLeastPending(t *testing.T) {
	p := newTargetPool([]string{"busy", "idle"})
	// Occupy "busy" with two in-flight requests.
	p.targets[0].pending.Add(2)
	for i := 0; i < 4; i++ {
		target := p.pick()
		if target.addr != "idle" {
			t.Fatalf("pick %d chose %q despite a less-pending replica", i, target.addr)
		}
		target.pending.Add(-1)
	}
}

func TestTargetPoolSetPreservesPending(t *testing.T) {
	p := newTargetPool([]string{"a", "b"})
	addr := p.pick().addr
	p.set([]string{"a", "b", "c"})
	for _, target := range p.targets {
		if target.addr == addr && target.pending.Load() != 1 {
			t.Fatalf("retained target %q lost its pending count", addr)
		}
	}
	if got := p.snapshot(); len(got) != 3 {
		t.Fatalf("snapshot = %v", got)
	}
}

func TestTargetPoolEmpty(t *testing.T) {
	p := newTargetPool(nil)
	if p.pick() != nil {
		t.Fatal("empty pool returned a target")
	}
	p.set([]string{"a", "a", "a"}) // duplicates collapse
	if got := p.snapshot(); len(got) != 1 {
		t.Fatalf("snapshot = %v", got)
	}
}

func TestTargetPoolConcurrent(t *testing.T) {
	p := newTargetPool([]string{"a", "b", "c"})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if w == 0 && i%50 == 0 {
					p.set([]string{"a", "b", fmt.Sprintf("d%d", i)})
					continue
				}
				if target := p.pick(); target != nil {
					target.pending.Add(-1)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAgentDrainAndRestore exercises the health-checker contract end to
// end: draining a replica routes traffic to the survivor, an empty pool
// answers 502, and restoring the replica resumes service.
func TestAgentDrainAndRestore(t *testing.T) {
	var hits1, hits2 counter
	b1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits1.inc()
	}))
	defer b1.Close()
	b2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits2.inc()
	}))
	defer b2.Close()
	addr1, addr2 := b1.Listener.Addr().String(), b2.Listener.Addr().String()

	a, err := New(Config{
		ServiceName: "web",
		Routes:      []Route{{Dst: "api", ListenAddr: "127.0.0.1:0", Targets: []string{addr1, addr2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Close()
	routeURL, err := a.RouteURL("api")
	if err != nil {
		t.Fatal(err)
	}

	get := func() int {
		resp, err := http.Get(routeURL + "/ping")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for i := 0; i < 4; i++ {
		if got := get(); got != http.StatusOK {
			t.Fatalf("status = %d", got)
		}
	}
	if hits1.get() == 0 || hits2.get() == 0 {
		t.Fatalf("load not balanced: %d/%d", hits1.get(), hits2.get())
	}

	// Drain replica 1: all traffic lands on replica 2.
	if err := a.SetRouteTargets("api", []string{addr2}); err != nil {
		t.Fatal(err)
	}
	before := hits1.get()
	for i := 0; i < 4; i++ {
		if got := get(); got != http.StatusOK {
			t.Fatalf("status after drain = %d", got)
		}
	}
	if hits1.get() != before {
		t.Fatal("drained replica still receiving traffic")
	}

	// Drain everything: the route answers 502.
	if err := a.SetRouteTargets("api", nil); err != nil {
		t.Fatal(err)
	}
	if got := get(); got != http.StatusBadGateway {
		t.Fatalf("fully drained route returned %d, want 502", got)
	}

	// Restore: service resumes.
	if err := a.SetRouteTargets("api", []string{addr1, addr2}); err != nil {
		t.Fatal(err)
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("status after restore = %d", got)
	}
	if targets, err := a.RouteTargets("api"); err != nil || len(targets) != 2 {
		t.Fatalf("RouteTargets = %v, %v", targets, err)
	}
	if err := a.SetRouteTargets("nosuch", nil); err == nil {
		t.Fatal("unknown route should error")
	}
}

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
