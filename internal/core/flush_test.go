package core_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/campaign"
	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/graph"
	"gremlin/internal/orchestrator"
	"gremlin/internal/proxy"
	"gremlin/internal/registry"
	"gremlin/internal/trace"
	"gremlin/internal/tracing"
)

// flushFleet is a deployment in which an agent's records reach the store
// only when the agent is told to flush: every agent logs through a
// BufferedSink of its own with an hour's interval. The graph is
// front→mid, front→side, mid→leaf; leaf and side run without agents, and
// the edge agent "user", which calls front, is registered but not in the
// graph. A request leaves 8 records: a request and a reply per hop.
type flushFleet struct {
	store  *eventlog.Store
	reg    *registry.Dynamic
	agents map[string]*proxy.Agent
	runner *core.Runner
	entry  string // the edge agent's route to front

	mu        sync.Mutex
	flushes   map[string]int // Flush calls, by service
	failFlush string         // a service whose agents' flushes fail
}

const recordsPerRequest = 8

func newFlushFleet(t *testing.T) *flushFleet {
	t.Helper()
	f := &flushFleet{
		store:   eventlog.NewStore(),
		reg:     registry.NewStatic(),
		agents:  make(map[string]*proxy.Agent),
		flushes: make(map[string]int),
	}
	addrs := make(map[string]string)
	for _, leaf := range []string{"leaf", "side"} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = io.WriteString(w, "ok")
		}))
		t.Cleanup(srv.Close)
		addrs[leaf] = strings.TrimPrefix(srv.URL, "http://")
		f.reg.Add(registry.Instance{Service: leaf, Addr: addrs[leaf]})
	}
	urlService := make(map[string]string)
	newAgent := func(svc string, deps ...string) *proxy.Agent {
		sink := eventlog.NewBufferedSinkOpts(f.store, eventlog.BufferOptions{Size: 1 << 12, Interval: time.Hour})
		var routes []proxy.Route
		for _, d := range deps {
			routes = append(routes, proxy.Route{Dst: d, ListenAddr: "127.0.0.1:0", Targets: []string{addrs[d]}})
		}
		a, err := proxy.New(proxy.Config{
			ServiceName: svc,
			ControlAddr: "127.0.0.1:0",
			Routes:      routes,
			Sink:        sink,
			RNG:         rand.New(rand.NewSource(int64(len(f.agents) + 1))),
		})
		if err != nil {
			t.Fatal(err)
		}
		a.Start()
		t.Cleanup(func() {
			if err := a.Close(); err != nil {
				t.Error(err)
			}
			_ = sink.Close()
		})
		f.agents[svc] = a
		urlService[a.ControlURL()] = svc
		return a
	}
	for _, s := range []struct {
		name string
		deps []string
	}{{"mid", []string{"leaf"}}, {"front", []string{"mid", "side"}}} {
		a := newAgent(s.name, s.deps...)
		deps := s.deps
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			status := http.StatusOK
			for _, d := range deps {
				route, _ := a.RouteAddr(d)
				out, _ := http.NewRequest(http.MethodGet, "http://"+route+"/", nil)
				trace.Propagate(r, out)
				resp, err := http.DefaultClient.Do(out)
				if err != nil {
					status = http.StatusBadGateway
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode >= 500 {
					status = http.StatusBadGateway
				}
			}
			w.WriteHeader(status)
		}))
		t.Cleanup(srv.Close)
		addrs[s.name] = strings.TrimPrefix(srv.URL, "http://")
		f.reg.Add(registry.Instance{Service: s.name, Addr: addrs[s.name], AgentControlURL: a.ControlURL()})
	}
	edge := newAgent("user", "front")
	f.entry, _ = edge.RouteAddr("front")
	f.reg.Add(registry.Instance{Service: "user", Addr: f.entry, AgentControlURL: edge.ControlURL()})

	g := graph.FromEdges([]graph.Edge{{Src: "front", Dst: "mid"}, {Src: "front", Dst: "side"}, {Src: "mid", Dst: "leaf"}})
	orch := orchestrator.New(f.reg, orchestrator.WithDialer(func(url string) orchestrator.AgentControl {
		return &countingControl{AgentControl: agentapi.New(url, nil), f: f, svc: urlService[url]}
	}))
	f.runner = core.NewRunner(g, orch, f.store, f.store)
	return f
}

// countingControl counts an agent's Flush calls and fails them on demand.
type countingControl struct {
	orchestrator.AgentControl
	f   *flushFleet
	svc string
}

func (c *countingControl) Flush(ctx context.Context) error {
	c.f.mu.Lock()
	c.f.flushes[c.svc]++
	fail := c.f.failFlush == c.svc
	c.f.mu.Unlock()
	if fail {
		return errors.New("flush refused")
	}
	return c.AgentControl.Flush(ctx)
}

// flushed returns a copy of the per-service Flush counts.
func (f *flushFleet) flushed() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.flushes))
	for k, v := range f.flushes {
		out[k] = v
	}
	return out
}

// load sends n requests through the edge agent, IDs prefix0..prefix(n-1).
func (f *flushFleet) load(prefix string, n int) func() error {
	return func() error {
		for i := 0; i < n; i++ {
			req, err := http.NewRequest(http.MethodGet, "http://"+f.entry+"/", nil)
			if err != nil {
				return err
			}
			req.Header.Set(trace.HeaderRequestID, fmt.Sprintf("%s%d", prefix, i))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
		return nil
	}
}

// flushRecipe is a one-scenario recipe over the fleet with the given checks.
func flushRecipe(pattern string, checks ...core.Check) core.Recipe {
	return core.Recipe{
		Name:      "flush",
		Pattern:   pattern,
		Scenarios: []core.Scenario{core.Delay{Src: "front", Dst: "side", Interval: time.Millisecond, Probability: 1}},
		Checks:    checks,
	}
}

// expectRead is a check that runs read and wants n records from it.
func expectRead(t *testing.T, name string, n int, read func(c *checker.Checker) (int, error)) core.Check {
	return core.ExpectCustom(name, func(c *checker.Checker) (bool, string, error) {
		got, err := read(c)
		if err != nil {
			return false, "", err
		}
		if got != n {
			t.Errorf("%s: read %d records, want %d", name, got, n)
		}
		return true, "", nil
	})
}

func lenOf(recs checker.RList, err error) (int, error) { return len(recs), err }

func diffCounts(before, after map[string]int) map[string]int {
	out := make(map[string]int)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestFlushOnReadFlushesWhatAQueryReads runs one recipe per query shape
// and checks which agents the run flushed: those of the named source, the
// destination's callers (the graph's and the agents the graph does not
// name), or every agent. Each read sees all the records it asks for.
func TestFlushOnReadFlushesWhatAQueryReads(t *testing.T) {
	const n = 3
	f := newFlushFleet(t)
	all := map[string]int{"user": 1, "front": 1, "mid": 1}
	cases := []struct {
		name    string
		records int
		read    func(c *checker.Checker) (int, error)
		want    map[string]int
	}{
		{"src", 2 * n, func(c *checker.Checker) (int, error) {
			return lenOf(c.GetRequests("front", "", c.Pattern()))
		}, map[string]int{"front": 1}},
		{"src-count", n, func(c *checker.Checker) (int, error) {
			return c.CountRequests("mid", "", c.Pattern(), 0)
		}, map[string]int{"mid": 1}},
		{"dst-graph-caller", n, func(c *checker.Checker) (int, error) {
			return lenOf(c.GetReplies("", "mid", c.Pattern()))
		}, map[string]int{"front": 1, "user": 1}},
		{"dst-caller-outside-graph", n, func(c *checker.Checker) (int, error) {
			return lenOf(c.GetReplies("", "front", c.Pattern()))
		}, map[string]int{"user": 1}},
		{"pattern-only", recordsPerRequest * n, func(c *checker.Checker) (int, error) {
			return lenOf(c.Source().Select(eventlog.Query{IDPattern: c.Pattern()}))
		}, all},
		{"src-unknown", 0, func(c *checker.Checker) (int, error) {
			return lenOf(c.GetRequests("ghost", "", c.Pattern()))
		}, all},
		{"dst-outside-graph", 0, func(c *checker.Checker) (int, error) {
			return lenOf(c.GetReplies("", "ghost", c.Pattern()))
		}, all},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prefix := fmt.Sprintf("t%d-", i)
			before := f.flushed()
			rep, err := f.runner.Run(context.Background(),
				flushRecipe(prefix+"*", expectRead(t, tc.name, tc.records, tc.read)),
				core.RunOptions{Load: f.load(prefix, n)})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed() {
				t.Fatalf("check failed: %v", rep.Failed())
			}
			if got := diffCounts(before, f.flushed()); !sameCounts(got, tc.want) {
				t.Errorf("flushes %v, want %v", got, tc.want)
			}
		})
	}
}

// TestFlushOnReadAgentlessService reads a service that runs without an
// agent: nothing is flushed, and the read is no error.
func TestFlushOnReadAgentlessService(t *testing.T) {
	f := newFlushFleet(t)
	rep, err := f.runner.Run(context.Background(),
		flushRecipe("a-*",
			core.ExpectNoCalls("leaf", "mid"),
			expectRead(t, "leaf", 0, func(c *checker.Checker) (int, error) {
				return lenOf(c.GetRequests("leaf", "", c.Pattern()))
			})),
		core.RunOptions{Load: f.load("a-", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("checks failed: %v", rep.Failed())
	}
	if got := f.flushed(); len(got) != 0 {
		t.Errorf("flushes %v, want none", got)
	}
}

// TestFlushOnReadOncePerLoad reads overlapping agent sets in one run:
// every agent is flushed once, and a second run flushes each again.
func TestFlushOnReadOncePerLoad(t *testing.T) {
	const n = 2
	f := newFlushFleet(t)
	for run := 1; run <= 2; run++ {
		prefix := fmt.Sprintf("r%d-", run)
		recipe := flushRecipe(prefix+"*",
			expectRead(t, "front", 2*n, func(c *checker.Checker) (int, error) {
				return lenOf(c.GetRequests("front", "", c.Pattern()))
			}),
			expectRead(t, "front again", n, func(c *checker.Checker) (int, error) {
				return lenOf(c.GetReplies("front", "mid", c.Pattern()))
			}),
			expectRead(t, "callers of mid", n, func(c *checker.Checker) (int, error) {
				return lenOf(c.GetReplies("", "mid", c.Pattern()))
			}),
			expectRead(t, "everything", recordsPerRequest*n, func(c *checker.Checker) (int, error) {
				return lenOf(c.Source().Select(eventlog.Query{IDPattern: c.Pattern()}))
			}))
		if _, err := f.runner.Run(context.Background(), recipe, core.RunOptions{Load: f.load(prefix, n)}); err != nil {
			t.Fatal(err)
		}
		want := map[string]int{"user": run, "front": run, "mid": run}
		if got := f.flushed(); !sameCounts(got, want) {
			t.Fatalf("after run %d: flushes %v, want %v", run, got, want)
		}
	}
	// The runner's own checker reads without a run: the latest load is
	// already flushed.
	if _, err := f.runner.Checker().GetRequests("", "", "r2-*"); err != nil {
		t.Fatal(err)
	}
	if got, want := f.flushed(), map[string]int{"user": 2, "front": 2, "mid": 2}; !sameCounts(got, want) {
		t.Errorf("after an ad-hoc read: flushes %v, want %v", got, want)
	}
}

// TestFlushOnReadVerdictsMatchFlushAll holds every pattern check's
// verdict under flush on read to the one it gives once every agent has
// been flushed, as a run did before any check.
func TestFlushOnReadVerdictsMatchFlushAll(t *testing.T) {
	f := newFlushFleet(t)
	checks := []core.Check{
		core.ExpectTimeouts("mid", time.Second),
		core.ExpectTimeouts("front", time.Microsecond),
		core.ExpectBoundedRetries("front", "mid", 3),
		core.ExpectCircuitBreaker("front", "mid", 2, time.Second),
		core.ExpectBulkhead("front", "mid", 1),
		core.ExpectNoCalls("front", "leaf"),
		core.ExpectNoCalls("mid", "leaf"),
		core.ExpectFallback("front", 0.5),
		core.ExpectFallback("user", 0.5),
		core.ExpectExponentialBackoff("front", "mid", 2),
	}
	recipe := core.Recipe{
		Name:      "abort",
		Scenarios: []core.Scenario{core.Abort{Src: "mid", Dst: "leaf", ErrorCode: http.StatusServiceUnavailable, Probability: 1}},
		Checks:    checks,
	}
	rep, err := f.runner.Run(context.Background(), recipe, core.RunOptions{Load: f.load("test-", 4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.runner.Orchestrator().FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	oracle := checker.New(f.store).Scoped(core.DefaultPattern)
	var passed, failed int
	for i, check := range checks {
		want, err := check(oracle)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Results[i]
		if got.Passed != want.Passed || got.Details != want.Details {
			t.Errorf("check %d %s: got %t (%s), after a flush of every agent %t (%s)",
				i, want.Check, got.Passed, got.Details, want.Passed, want.Details)
		}
		if want.Passed {
			passed++
		} else {
			failed++
		}
	}
	if passed == 0 || failed == 0 {
		t.Errorf("%d checks passed and %d failed: the recipe decides nothing", passed, failed)
	}
}

// TestFlushOnReadConcurrentRuns runs two recipes at once on one runner,
// again and again: each run's reads see all of its own records, whatever
// the other run flushed meanwhile.
func TestFlushOnReadConcurrentRuns(t *testing.T) {
	const n, rounds = 2, 6
	f := newFlushFleet(t)
	var wg sync.WaitGroup
	for _, side := range []string{"a", "b"} {
		wg.Add(1)
		go func(side string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				prefix := fmt.Sprintf("%s%d-", side, i)
				recipe := flushRecipe(prefix+"*",
					expectRead(t, prefix+"mid", n, func(c *checker.Checker) (int, error) {
						return lenOf(c.GetRequests("mid", "leaf", c.Pattern()))
					}),
					expectRead(t, prefix+"all", recordsPerRequest*n, func(c *checker.Checker) (int, error) {
						return eventlog.CountRecords(c.Source(), eventlog.Query{IDPattern: c.Pattern()})
					}))
				recipe.Name = side // concurrent owners need rule IDs of their own
				if _, err := f.runner.Run(context.Background(), recipe, core.RunOptions{Load: f.load(prefix, n)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(side)
	}
	wg.Wait()
}

// TestFlushOnReadCampaignUnit runs one campaign unit whose check reads
// mid alone: the unit's blast radius and record count, read after the
// run, still see every record, and each agent is flushed once.
func TestFlushOnReadCampaignUnit(t *testing.T) {
	const n = 3
	f := newFlushFleet(t)
	unit := campaign.Unit{
		Key: "abort:mid->leaf", Kind: "sever", Service: "leaf", Target: "mid->leaf",
		Recipe: core.Recipe{
			Name:      "abort-leaf",
			Scenarios: []core.Scenario{core.Abort{Src: "mid", Dst: "leaf", ErrorCode: http.StatusServiceUnavailable, Probability: 1}},
			Checks:    []core.Check{core.ExpectNoCalls("mid", "side")},
		},
	}
	var entries []campaign.Entry
	var pattern string
	_, err := campaign.Run(context.Background(), f.runner, []campaign.Unit{unit}, campaign.Options{
		ID:          "flush",
		Parallelism: 1,
		Load: func(_ context.Context, idPrefix string) error {
			pattern = idPrefix + "*"
			return f.load(idPrefix, n)()
		},
		OnEntry: func(e campaign.Entry) { entries = append(entries, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Status != campaign.StatusPassed {
		t.Fatalf("entries %+v, want one passed", entries)
	}
	e := entries[0]
	if got, want := f.flushed(), map[string]int{"user": 1, "front": 1, "mid": 1}; !sameCounts(got, want) {
		t.Errorf("flushes %v, want %v", got, want)
	}
	if e.RecordCount != recordsPerRequest*n {
		t.Errorf("record count %d, want %d", e.RecordCount, recordsPerRequest*n)
	}
	traces, err := tracing.FromSource(f.store, eventlog.Query{IDPattern: pattern})
	if err != nil {
		t.Fatal(err)
	}
	blast := tracing.BlastRadius(traces)
	if strings.Join(e.BlastReached, ",") != strings.Join(blast.Reached, ",") ||
		strings.Join(e.BlastFailed, ",") != strings.Join(blast.Failed, ",") {
		t.Errorf("blast radius reached %v failed %v, want %v and %v", e.BlastReached, e.BlastFailed, blast.Reached, blast.Failed)
	}
	if len(blast.Reached) < 3 {
		t.Errorf("blast radius reached %v: the unit's fault reached too little to tell", blast.Reached)
	}
}

// TestFlushOnReadFailedFlushFailsTheRun refuses one agent's flush: the
// check reading it errors, and the run reverts its rules and returns the
// error.
func TestFlushOnReadFailedFlushFailsTheRun(t *testing.T) {
	f := newFlushFleet(t)
	f.failFlush = "front"
	_, err := f.runner.Run(context.Background(),
		flushRecipe("f-*", core.ExpectNoCalls("front", "leaf")),
		core.RunOptions{Load: f.load("f-", 1)})
	if err == nil || !strings.Contains(err.Error(), "flush observations") {
		t.Fatalf("Run returned %v, want a failed flush", err)
	}
	for svc, a := range f.agents {
		if left := a.Matcher().Len(); left != 0 {
			t.Errorf("%d rules left on %s's agent", left, svc)
		}
	}
}
