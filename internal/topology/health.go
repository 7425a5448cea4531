package topology

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"gremlin/internal/metrics"
	"gremlin/internal/microservice"
	"gremlin/internal/registry"
)

// HealthOptions configures active health checking of an App's replicas.
type HealthOptions struct {
	// Interval between probe rounds (default 250 ms).
	Interval time.Duration

	// Timeout per probe (default Interval).
	Timeout time.Duration

	// Rise is how many consecutive successful probes bring a down replica
	// back into rotation (default 2).
	Rise int

	// Fall is how many consecutive failed probes take an up replica out of
	// rotation (default 2).
	Fall int
}

func (o *HealthOptions) defaults() {
	if o.Interval <= 0 {
		o.Interval = 250 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = o.Interval
	}
	if o.Rise <= 0 {
		o.Rise = 2
	}
	if o.Fall <= 0 {
		o.Fall = 2
	}
}

// replicaProbe is the hysteresis state of one replica.
type replicaProbe struct {
	service string
	idx     int
	addr    string
	up      bool
	streak  int // consecutive probes disagreeing with the current state
}

// HealthChecker actively probes every replica of an App and keeps the
// routers honest: a replica that fails Fall consecutive probes is drained
// from every dependent agent's live target pool (traffic shifts to its
// siblings), and one that passes Rise consecutive probes is restored —
// rise/fall hysteresis so a single flaky probe cannot flap routing. Health
// transitions are also written back to the registry so fleet listings
// (`gremlin-ctl fleet`) show the probed state.
type HealthChecker struct {
	app    *App
	opts   HealthOptions
	client *http.Client

	mu     sync.Mutex
	probes []*replicaProbe

	nProbes      int64
	nFailures    int64
	nTransitions int64

	stopOnce sync.Once
	done     chan struct{}
	stopped  chan struct{}
}

// StartHealthChecks builds a checker over every replica of every service
// (all initially considered up) and starts its probe loop. Call Stop when
// done.
func (app *App) StartHealthChecks(opts HealthOptions) *HealthChecker {
	hc := app.NewHealthChecker(opts)
	go hc.loop()
	return hc
}

// NewHealthChecker builds a checker without starting its loop; tests (and
// callers that want deterministic stepping) drive it with ProbeOnce.
func (app *App) NewHealthChecker(opts HealthOptions) *HealthChecker {
	opts.defaults()
	hc := &HealthChecker{
		app:     app,
		opts:    opts,
		client:  &http.Client{Timeout: opts.Timeout},
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	for _, name := range app.Services() {
		for i, addr := range app.ReplicaAddrs(name) {
			hc.probes = append(hc.probes, &replicaProbe{service: name, idx: i, addr: addr, up: true})
		}
	}
	return hc
}

func (hc *HealthChecker) loop() {
	defer close(hc.stopped)
	t := time.NewTicker(hc.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-hc.done:
			return
		case <-t.C:
			hc.ProbeOnce()
		}
	}
}

// Stop halts the probe loop (a no-op for checkers built with
// NewHealthChecker and never started).
func (hc *HealthChecker) Stop() {
	hc.stopOnce.Do(func() { close(hc.done) })
	select {
	case <-hc.stopped:
	case <-time.After(time.Second):
	}
}

// ProbeOnce probes every replica once, applying rise/fall hysteresis and
// draining or restoring routers on transitions. It returns how many
// replicas changed state.
func (hc *HealthChecker) ProbeOnce() int {
	hc.mu.Lock()
	probes := append([]*replicaProbe(nil), hc.probes...)
	hc.mu.Unlock()

	// Probe outside the lock; probes are the slow part.
	results := make([]bool, len(probes))
	var wg sync.WaitGroup
	for i, p := range probes {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			results[i] = hc.probe(addr)
		}(i, p.addr)
	}
	wg.Wait()

	hc.mu.Lock()
	defer hc.mu.Unlock()
	transitions := 0
	changedServices := map[string]bool{}
	for i, p := range probes {
		hc.nProbes++
		ok := results[i]
		if !ok {
			hc.nFailures++
		}
		if ok == p.up {
			p.streak = 0
			continue
		}
		p.streak++
		threshold := hc.opts.Fall
		if !p.up {
			threshold = hc.opts.Rise
		}
		if p.streak < threshold {
			continue
		}
		p.up = ok
		p.streak = 0
		transitions++
		hc.nTransitions++
		changedServices[p.service] = true
	}
	for svc := range changedServices {
		hc.applyLocked(svc)
	}
	return transitions
}

func (hc *HealthChecker) probe(addr string) bool {
	resp, err := hc.client.Get("http://" + addr + microservice.HealthPath)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// applyLocked pushes a service's healthy replica set into every dependent
// agent's live target pool and records health in the registry.
func (hc *HealthChecker) applyLocked(svc string) {
	var healthy []string
	for _, p := range hc.probes {
		if p.service != svc {
			continue
		}
		state := "down"
		if p.up {
			state = "up"
			healthy = append(healthy, p.addr)
		}
		inst := registry.Instance{Service: svc, Addr: p.addr, Replica: p.idx, Health: state}
		if agents := hc.app.agents[svc]; p.idx < len(agents) {
			inst.AgentControlURL = agents[p.idx].ControlURL()
		}
		hc.app.Registry.Add(inst)
	}
	for _, agent := range hc.app.dependents[svc] {
		// Unknown routes are impossible here (dependents is built from the
		// same spec edges); an error would mean a programming bug, and the
		// next probe round retries anyway.
		_ = agent.SetRouteTargets(svc, healthy)
	}
}

// State reports whether a replica is currently considered up.
func (hc *HealthChecker) State(svc string, idx int) (up bool, err error) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	for _, p := range hc.probes {
		if p.service == svc && p.idx == idx {
			return p.up, nil
		}
	}
	return false, fmt.Errorf("topology: no probe state for %s replica %d", svc, idx)
}

// WriteMetrics appends the checker's health gauges and probe counters to w
// in Prometheus exposition format.
func (hc *HealthChecker) WriteMetrics(w *metrics.Writer) {
	hc.mu.Lock()
	probes := make([]replicaProbe, len(hc.probes))
	for i, p := range hc.probes {
		probes[i] = *p
	}
	nProbes, nFailures, nTransitions := hc.nProbes, hc.nFailures, hc.nTransitions
	hc.mu.Unlock()

	up := 0
	for _, p := range probes {
		if p.up {
			up++
		}
	}
	w.Gauge("gremlin_topology_health_replicas_up",
		"Replicas currently passing active health checks.", float64(up))
	w.Gauge("gremlin_topology_health_replicas_down",
		"Replicas currently drained by active health checks.", float64(len(probes)-up))
	w.Counter("gremlin_topology_health_probes_total",
		"Active health probes sent.", float64(nProbes))
	w.Counter("gremlin_topology_health_probe_failures_total",
		"Active health probes that failed.", float64(nFailures))
	w.Counter("gremlin_topology_health_transitions_total",
		"Replica up/down state transitions (after rise/fall hysteresis).", float64(nTransitions))
	for _, p := range probes {
		v := 0.0
		if p.up {
			v = 1
		}
		w.Gauge("gremlin_topology_health_up",
			"Per-replica health as seen by the active checker (1 = up).",
			v, "service", p.service, "replica", fmt.Sprint(p.idx))
	}
}
