package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/eventlog"
	"gremlin/internal/metrics"
	"gremlin/internal/orchestrator"
	"gremlin/internal/proxy"
	"gremlin/internal/registry"
	"gremlin/internal/rules"
	"gremlin/internal/telemetry"
	"gremlin/internal/topology"
	"gremlin/internal/trace"
	"gremlin/internal/tracing"
)

// The ladder: each rung calls one layer's public function directly, with
// inputs taken from the workload it is listed under, and reports the
// median of rungReps repetitions of rungSlice each. A rung costs its
// layer's work and nothing else, so it says how much a change to that
// layer can possibly save end to end.

const (
	rungSlice = 200 * time.Millisecond
	rungReps  = 5
)

// timeRung returns the median time per call of fn, in nanoseconds. Calls
// are batched so that reading the clock stays under a percent of even a
// 100 ns rung.
func timeRung(slice time.Duration, fn func()) float64 {
	t0 := time.Now()
	fn()
	once := time.Since(t0)
	batch := 1
	if once < 100*time.Microsecond {
		batch = int(100*time.Microsecond/max(once, time.Nanosecond)) + 1
	}
	per := make([]float64, 0, rungReps)
	for rep := 0; rep < rungReps; rep++ {
		n, start := 0, time.Now()
		for time.Since(start) < slice {
			for i := 0; i < batch; i++ {
				fn()
			}
			n += batch
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return median(per)
}

// allocsPerCall returns the mean heap allocations of one call of fn.
// The rest of the process must be idle while it runs.
func allocsPerCall(fn func()) float64 {
	const runs = 1000
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / runs
}

// hopRungs: the matcher as hop_small and hop_faulted load it, and the
// per-exchange ID work of the trace package.
func hopRungs(cfg runConfig, dep deployment, m map[string]float64) error {
	d := dep.(*hopDeployment)
	ei, _ := trace.AppendEI("", hopDst, 1)
	msg := rules.Message{Src: hopSrc, Dst: hopDst, Type: rules.OnRequest, CallPath: ei,
		RequestID: requestID("hop", cfg.seed, 123456)}
	matcher := d.agent.Matcher()
	if d.faulted {
		msg.RequestID = requestID(classNames[classAbort], cfg.seed, 123456)
		if !matcher.Decide(msg).Fired {
			return errors.New("decide_fired rung: the abort rule did not fire")
		}
		m["rules.decide_fired_ns"] = timeRung(cfg.rung, func() { matcher.Decide(msg) })
		return nil
	}
	if matcher.Decide(msg).Matched {
		return errors.New("decide rung: an idle rule matched")
	}
	m["rules.decide_ns"] = timeRung(cfg.rung, func() { matcher.Decide(msg) })
	m["rules.decide_allocs"] = allocsPerCall(func() { matcher.Decide(msg) })

	gen := trace.NewGenerator("span-", rand.New(rand.NewSource(cfg.seed)))
	m["trace.id_next_ns"] = timeRung(cfg.rung, func() { gen.Next() })
	// Three frames deep: the middle of a fleet_soak call tree.
	deep := ei
	for i := 0; i < 2; i++ {
		deep, _ = trace.AppendEI(deep, hopDst, i+1)
	}
	m["trace.append_ei_ns"] = timeRung(cfg.rung, func() { trace.AppendEI(deep, hopDst, 3) })
	m["trace.append_ei_allocs"] = allocsPerCall(func() { trace.AppendEI(deep, hopDst, 3) })
	return nil
}

// fakeControl is an in-process AgentControl backed by a real matcher:
// reconciling against it costs the reconciler's own work and the
// matcher's apply, no HTTP.
type fakeControl struct {
	mu sync.Mutex
	m  *rules.Matcher
}

func (f *fakeControl) GetRuleSet(context.Context) (proxy.RuleSetBody, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	set := f.m.RuleSet()
	return proxy.RuleSetBody{Generation: set.Generation, Hash: f.m.Hash(), Rules: set.Rules}, nil
}

func (f *fakeControl) PutRuleSet(_ context.Context, set rules.RuleSet, ifMatch uint64) (rules.RuleSetStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m.ApplyRuleSet(set, ifMatch)
}

func (f *fakeControl) ClearRules(context.Context) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m.Clear(), nil
}

func (f *fakeControl) Flush(context.Context) error { return nil }

// recipeRungs: rule installation and hashing at hop_small's rule count,
// and one reconcile pass over 100 fake agents.
func recipeRungs(cfg runConfig, _ deployment, m map[string]float64) error {
	set := idleRules(hopIdleRules)
	var ierr error
	m["rules.install_us"] = timeRung(cfg.rung, func() {
		if err := rules.NewMatcher(nil).Install(set...); err != nil {
			ierr = err
		}
	}) / 1e3
	if ierr != nil {
		return ierr
	}
	m["rules.ruleset_hash_us"] = timeRung(cfg.rung, func() { rules.RuleSet{Rules: set}.Hash() }) / 1e3

	const agents = 100
	reg := registry.NewStatic()
	fakes := make(map[string]*fakeControl, agents)
	for i := 0; i < agents; i++ {
		url := fmt.Sprintf("fake://agent-%d", i)
		fakes[url] = &fakeControl{m: rules.NewMatcher(nil)}
		reg.Add(registry.Instance{Service: hopSrc, Addr: fmt.Sprintf("10.0.0.%d:80", i), AgentControlURL: url, Replica: i})
	}
	orch := orchestrator.New(reg, orchestrator.WithDialer(func(url string) orchestrator.AgentControl { return fakes[url] }))
	ctx := context.Background()
	one := []rules.Rule{{ID: "bench-delay", Src: hopSrc, Dst: hopDst, Action: rules.ActionDelay, Pattern: "test-*", DelayMillis: 1}}
	var rerr error
	// One call converges the fleet onto the rule and back off it: two
	// reconcile passes over every agent.
	pair := timeRung(cfg.rung, func() {
		rep, err := orch.SetOwner(ctx, "bench", one, 0)
		if err == nil {
			err = rep.Err()
		}
		if err == nil {
			rep, err = orch.RemoveOwner(ctx, "bench")
		}
		if err == nil {
			err = rep.Err()
		}
		if err != nil {
			rerr = err
		}
	})
	if rerr != nil {
		return rerr
	}
	m["orchestrator.reconcile_fakes100_ms"] = pair / 2 / 1e6
	return nil
}

// fleetRungs: the layers that ride along with a fleet but sit on no
// request's path — record wire format, registry, exposition, scraping,
// trace assembly — fed from the soak's own store and agents.
func fleetRungs(cfg runConfig, dep deployment, m map[string]float64) error {
	d := dep.(*fleetDeployment)
	recs := d.sample
	if len(recs) == 0 {
		return errors.New("fleet rungs: the soak left no records")
	}

	// Wire format: JSON Lines, encoded as eventlog.Client ships a batch
	// and decoded as eventlog.Server ingests it.
	sample := recs[:min(len(recs), 1024)]
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		enc := json.NewEncoder(&buf)
		for i := range sample {
			_ = enc.Encode(&sample[i])
		}
	}
	n := float64(len(sample))
	m["eventlog.record_encode_ns"] = timeRung(cfg.rung, encode) / n
	m["eventlog.record_encode_allocs"] = allocsPerCall(encode) / n
	wire := append([]byte(nil), buf.Bytes()...)
	var derr error
	m["eventlog.record_decode_ns"] = timeRung(cfg.rung, func() {
		dec := json.NewDecoder(bytes.NewReader(wire))
		for {
			var rec eventlog.Record
			if err := dec.Decode(&rec); err != nil {
				if err != io.EOF {
					derr = err
				}
				return
			}
		}
	}) / n
	if derr != nil {
		return derr
	}

	// Registry: 200 leased members, renewed and resolved one at a time,
	// and the time a blocked watcher takes to hear of a change.
	reg := registry.NewDynamic(registry.DynamicOptions{DefaultTTL: time.Hour})
	for i := 0; i < 200; i++ {
		reg.Add(registry.Instance{Service: fmt.Sprintf("svc-%02d", i%20), Addr: fmt.Sprintf("10.0.%d.%d:80", i%20, i/20)})
	}
	var rerr error
	m["registry.renew_ns"] = timeRung(cfg.rung, func() {
		if err := reg.Renew("svc-07", "10.0.7.3:80", time.Hour); err != nil {
			rerr = err
		}
	})
	m["registry.instances_ns"] = timeRung(cfg.rung, func() {
		if _, err := reg.Instances("svc-07"); err != nil {
			rerr = err
		}
	})
	if rerr != nil {
		return rerr
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watched := registry.Instance{Service: "svc-watch", Addr: "10.1.0.1:80"}
	m["registry.watch_wake_us"] = timeRungTimed(cfg.rung, func() time.Duration {
		since := reg.Version()
		woke := make(chan time.Time, 1)
		go func() {
			_, _, _ = reg.WaitEvents(ctx, since)
			woke <- time.Now()
		}()
		// Let the watcher park before the change it waits for happens.
		time.Sleep(200 * time.Microsecond)
		t0 := time.Now()
		reg.Add(watched)
		took := (<-woke).Sub(t0)
		reg.Remove(watched.Service, watched.Addr) // so the next Add is a change again
		return took
	}) / 1e3

	// Exposition, scraping and quantiles, on the soak's own agents.
	edge := agentapi.New(d.app.Agent(topology.EdgeService).ControlURL(), nil)
	var text string
	var xerr error
	m["metrics.expose_us"] = timeRung(cfg.rung, func() {
		if text, xerr = edge.Metrics(ctx); xerr != nil {
			return
		}
	}) / 1e3
	if xerr != nil {
		return xerr
	}
	m["metrics.parse_us"] = timeRung(cfg.rung, func() {
		if _, err := metrics.ParseExposition(strings.NewReader(text)); err != nil {
			xerr = err
		}
	}) / 1e3
	if xerr != nil {
		return xerr
	}
	targets, err := telemetry.FleetTargets(d.reg, d.server.URL())
	if err != nil {
		return err
	}
	series := telemetry.NewSeriesStore(64)
	scraper := telemetry.NewScraper(series, targets, telemetry.ScrapeOptions{})
	scraper.ScrapeOnce(ctx)
	for i := uint64(0); i < 50; i++ { // traffic between scrapes, so the histograms move
		if err := d.op(sideAgent, 0, 1<<30+i); err != nil {
			return err
		}
	}
	m["telemetry.scrape_once_ms"] = timeRung(cfg.rung, func() { scraper.ScrapeOnce(ctx) }) / 1e6
	first, last, ok := series.Bounds()
	if !ok {
		return errors.New("fleet rungs: scraping stored no samples")
	}
	m["telemetry.quantile_us"] = timeRung(cfg.rung, func() {
		series.Quantile("gremlin_agent_request_duration_seconds", nil, 0.99, first, last.Add(time.Second))
	}) / 1e3

	// Trace assembly, per 10 k records (a short run holds fewer; assembly
	// is linear in them).
	m["tracing.assemble_ms_10k"] = timeRung(cfg.rung, func() { tracing.Assemble(recs) }) / 1e6 * 10_000 / float64(len(recs))
	return nil
}

// timeRungTimed is timeRung for a rung that times itself: fn returns the
// duration of the part that counts.
func timeRungTimed(slice time.Duration, fn func() time.Duration) float64 {
	per := make([]float64, 0, rungReps)
	for rep := 0; rep < rungReps; rep++ {
		var vals []float64
		for start := time.Now(); time.Since(start) < slice; {
			vals = append(vals, float64(fn()))
		}
		per = append(per, median(vals))
	}
	return median(per)
}

// logRungs: the sharded store called directly — append with and without
// the write-ahead log, and the two shapes of read.
func logRungs(cfg runConfig, dep deployment, m map[string]float64) error {
	d := dep.(*logDeployment)
	// Appends are measured as a fixed amount of work into a fresh store,
	// so the store's size — and the bench's memory — is the same every
	// repetition.
	const batches = 200
	batch := make([]eventlog.Record, 0, logBatch)
	now := time.Now()
	for i := 0; i < logBatch/2; i++ {
		batch = exchangeRecords(batch, fmt.Sprintf("r%d-%d", i%64, i), fillEdge(i), now.Add(time.Duration(i)*time.Microsecond))
	}
	appendRung := func(durable bool) (float64, error) {
		per := make([]float64, 0, rungReps)
		for rep := 0; rep < rungReps; rep++ {
			opts := eventlog.StoreOptions{Shards: 4}
			if durable {
				opts.DataDir = filepath.Join(cfg.workDir, fmt.Sprintf("rung-wal-%d", rep))
				opts.Fsync = eventlog.FsyncInterval
			}
			store, err := eventlog.NewShardedStore(opts)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for b := 0; b < batches; b++ {
				if err := store.Log(batch...); err != nil {
					_ = store.Close()
					return 0, err
				}
			}
			per = append(per, float64(time.Since(t0))/float64(batches*len(batch)))
			_ = store.Close()
			if durable {
				_ = os.RemoveAll(opts.DataDir)
			}
		}
		return median(per), nil
	}
	var err error
	if m["eventlog.append_ns_rec"], err = appendRung(false); err != nil {
		return err
	}
	if m["eventlog.append_wal_ns_rec"], err = appendRung(true); err != nil {
		return err
	}
	var serr error
	sel := func(q eventlog.Query) float64 {
		return timeRung(cfg.rung, func() {
			if recs, err := d.store.Select(q); err != nil || len(recs) == 0 {
				serr = fmt.Errorf("select %+v: %d records, err %v", q, len(recs), err)
			}
		}) / 1e3
	}
	// Pinned: the pattern names one namespace, so one shard answers.
	// Scatter: an edge query with no pattern fans out to every shard and
	// merges.
	m["eventlog.select_pinned_us"] = sel(eventlog.Query{IDPattern: "f17-*"})
	e := fillEdge(3)
	m["eventlog.select_scatter_us"] = sel(eventlog.Query{Src: e.src, Dst: e.dst, Kind: eventlog.KindReply, Limit: logBatch})
	return serr
}
