package proxy

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// targetPool is the live, health-aware target set of one route. The
// configured Route.Targets seed it; a health checker (or any other
// controller) swaps the live set at runtime via Agent.SetRouteTargets so
// traffic drains from faulted replicas and returns when they recover.
// Selection is least-pending with round-robin tie-break: the replica with
// the fewest in-flight requests wins, and among equals a rotating cursor
// spreads load evenly.
type targetPool struct {
	mu      sync.Mutex
	targets []*poolTarget
	rr      uint64
}

type poolTarget struct {
	addr    string
	pending atomic.Int64
}

func newTargetPool(addrs []string) *targetPool {
	p := &targetPool{}
	p.set(addrs)
	return p
}

// pick selects a target and accounts an in-flight request against it; the
// caller must decrement the returned target's pending exactly once when
// the exchange completes — reply body relayed or discarded, not merely
// headers received. It returns nil when the pool is empty (every replica
// drained).
func (p *targetPool) pick() *poolTarget {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.targets)
	if n == 0 {
		return nil
	}
	start := int(p.rr % uint64(n))
	p.rr++
	best := p.targets[start]
	for i := 1; i < n; i++ {
		t := p.targets[(start+i)%n]
		if t.pending.Load() < best.pending.Load() {
			best = t
		}
	}
	best.pending.Add(1)
	return best
}

// set replaces the live target set. Addresses already in the pool keep
// their in-flight accounting; new ones start cold.
func (p *targetPool) set(addrs []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := make(map[string]*poolTarget, len(p.targets))
	for _, t := range p.targets {
		old[t.addr] = t
	}
	next := make([]*poolTarget, 0, len(addrs))
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if seen[a] {
			continue
		}
		seen[a] = true
		if t, ok := old[a]; ok {
			next = append(next, t)
		} else {
			next = append(next, &poolTarget{addr: a})
		}
	}
	p.targets = next
}

// snapshot returns the live target addresses in pool order.
func (p *targetPool) snapshot() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.targets))
	for i, t := range p.targets {
		out[i] = t.addr
	}
	return out
}

// SetRouteTargets replaces the live target set of the route to dst —
// the drain/restore hook health checkers use. The route must exist; an
// empty set is legal and makes the route answer 502 until targets return.
func (a *Agent) SetRouteTargets(dst string, targets []string) error {
	rp, ok := a.routes[dst]
	if !ok {
		return fmt.Errorf("proxy: agent for %q has no route to %q", a.cfg.ServiceName, dst)
	}
	rp.pool.set(targets)
	return nil
}

// RouteTargets returns the live target set of the route to dst.
func (a *Agent) RouteTargets(dst string) ([]string, error) {
	rp, ok := a.routes[dst]
	if !ok {
		return nil, fmt.Errorf("proxy: agent for %q has no route to %q", a.cfg.ServiceName, dst)
	}
	return rp.pool.snapshot(), nil
}
