// Benchmarks covering the paper's evaluation (§7.2), one group per table
// and figure. The full series (the rows the paper plots) are regenerated
// by `go run ./cmd/gremlin-bench`; the benchmarks here measure the
// underlying operations with testing.B so regressions are visible in
// `go test -bench`.
//
//   - Table 2  (data-plane interface): cost of each fault primitive on the
//     live proxy data path.
//   - Table 3  (checker interface): cost of queries, base assertions, and
//     pattern checks over populated logs.
//   - Figure 5/6 (case study): request cost through the WordPress stack,
//     with and without staged faults.
//   - Figure 7 (orchestration/assertions vs. app size): rule fan-out and
//     per-service assertion cost on binary trees.
//   - Figure 8 (rule matching): matcher scan cost by rule count, and the
//     end-to-end proxied request with 200 non-matching rules installed.
package gremlin_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gremlin"
	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/loadgen"
	"gremlin/internal/orchestrator"
	"gremlin/internal/proxy"
	"gremlin/internal/rules"
	"gremlin/internal/topology"
	"gremlin/internal/trace"
)

// ---- Table 2: fault-injection primitives on the data path ----

func benchAgent(b *testing.B, installed ...rules.Rule) (*proxy.Agent, string) {
	b.Helper()
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	b.Cleanup(backend.Close)
	agent, err := proxy.New(proxy.Config{
		ServiceName: "client",
		Routes: []proxy.Route{{
			Dst:        "server",
			ListenAddr: "127.0.0.1:0",
			Targets:    []string{strings.TrimPrefix(backend.URL, "http://")},
		}},
		RNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	agent.Start()
	b.Cleanup(func() {
		if err := agent.Close(); err != nil {
			b.Error(err)
		}
	})
	if err := agent.InstallRules(installed...); err != nil {
		b.Fatal(err)
	}
	u, err := agent.RouteURL("server")
	if err != nil {
		b.Fatal(err)
	}
	return agent, u
}

func doProxied(b *testing.B, client *http.Client, url, id string, wantErr bool) {
	b.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		b.Fatal(err)
	}
	trace.SetRequestID(req, id)
	resp, err := client.Do(req)
	if err != nil {
		if !wantErr {
			b.Fatal(err)
		}
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

func BenchmarkTable2ProxyForwardNoFault(b *testing.B) {
	_, u := benchAgent(b)
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

func BenchmarkTable2AbortPrimitive(b *testing.B) {
	_, u := benchAgent(b, rules.Rule{
		ID: "ab", Src: "client", Dst: "server",
		Action: rules.ActionAbort, Pattern: "test-*", ErrorCode: 503,
	})
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

func BenchmarkTable2DelayPrimitive(b *testing.B) {
	_, u := benchAgent(b, rules.Rule{
		ID: "dl", Src: "client", Dst: "server",
		Action: rules.ActionDelay, Pattern: "test-*", DelayMillis: 1,
	})
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

func BenchmarkTable2ModifyPrimitive(b *testing.B) {
	_, u := benchAgent(b, rules.Rule{
		ID: "md", Src: "client", Dst: "server", On: rules.OnResponse,
		Action: rules.ActionModify, Pattern: "test-*",
		SearchBytes: "ok", ReplaceBytes: "ko",
	})
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

// ---- Table 3: assertion checker operations ----

// populateStore fills a store with n request/reply pairs.
func populateStore(b *testing.B, n int) *eventlog.Store {
	b.Helper()
	store := eventlog.NewStore()
	base := time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		at := base.Add(time.Duration(i) * time.Millisecond)
		status := 200
		if i%4 == 0 {
			status = 503
		}
		err := store.Log(
			eventlog.Record{Timestamp: at, RequestID: fmt.Sprintf("test-%d", i),
				Src: "a", Dst: "b", Kind: eventlog.KindRequest, Method: "GET", URI: "/x"},
			eventlog.Record{Timestamp: at.Add(time.Millisecond), RequestID: fmt.Sprintf("test-%d", i),
				Src: "a", Dst: "b", Kind: eventlog.KindReply, Status: status, LatencyMillis: 1},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
	return store
}

func BenchmarkTable3GetRequests(b *testing.B) {
	c := checker.New(populateStore(b, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetRequests("a", "b", "test-*"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ReplyLatency(b *testing.B) {
	c := checker.New(populateStore(b, 1000))
	rl, err := c.GetReplies("a", "b", "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker.ReplyLatency(rl, true)
	}
}

func BenchmarkTable3Combine(b *testing.B) {
	c := checker.New(populateStore(b, 1000))
	rl, err := c.GetReplies("a", "b", "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker.Combine(rl,
			checker.StatusSeen{Status: 503, NumMatch: 5, WithRule: true},
			checker.AtMost{Tdelta: time.Minute, WithRule: true, Num: 1000},
		)
	}
}

func BenchmarkTable3HasBoundedRetries(b *testing.B) {
	c := checker.New(populateStore(b, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HasBoundedRetries("a", "b", 1000, "", checker.BoundedRetriesOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3HasCircuitBreaker(b *testing.B) {
	c := checker.New(populateStore(b, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HasCircuitBreaker("a", "b", 5, time.Millisecond, "", checker.CircuitBreakerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures 5/6: the WordPress stack ----

func benchWordPress(b *testing.B, faults ...gremlin.Rule) *topology.App {
	b.Helper()
	spec := topology.WordPress(topology.WordPressOptions{BackendWorkTime: time.Microsecond})
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := app.Close(); err != nil {
			b.Error(err)
		}
	})
	if len(faults) > 0 {
		if err := app.Agent(topology.WordPressService).InstallRules(faults...); err != nil {
			b.Fatal(err)
		}
	}
	return app
}

func BenchmarkFigure5WordPressHealthy(b *testing.B) {
	app := benchWordPress(b)
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, app.EntryURL()+"/search", "test-1", false)
	}
}

func BenchmarkFigure5WordPressDelayedSearch(b *testing.B) {
	app := benchWordPress(b, gremlin.Rule{
		ID: "d", Src: topology.WordPressService, Dst: topology.ElasticsearchService,
		Action: gremlin.ActionDelay, Pattern: "test-*", DelayMillis: 1,
	})
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, app.EntryURL()+"/search", "test-1", false)
	}
}

func BenchmarkFigure6WordPressAbortedSearch(b *testing.B) {
	app := benchWordPress(b, gremlin.Rule{
		ID: "a", Src: topology.WordPressService, Dst: topology.ElasticsearchService,
		Action: gremlin.ActionAbort, Pattern: "test-*", ErrorCode: 503,
	})
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, app.EntryURL()+"/search", "test-1", false)
	}
}

// ---- Figure 7: orchestration and assertions vs. application size ----

func benchTree(b *testing.B, depth int) (*topology.App, *core.Runner) {
	b.Helper()
	spec := topology.BinaryTree(depth, 0)
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := app.Close(); err != nil {
			b.Error(err)
		}
	})
	runner := core.NewRunner(app.Graph, orchestrator.New(app.Registry), app.Store, app.Store)
	return app, runner
}

func delayAllScenarios(app *topology.App) []core.Scenario {
	var out []core.Scenario
	for _, e := range app.Graph.Edges() {
		out = append(out, core.Delay{Src: e.Src, Dst: e.Dst, Interval: time.Millisecond})
	}
	return out
}

func benchmarkFigure7Orchestration(b *testing.B, depth int) {
	app, _ := benchTree(b, depth)
	orch := orchestrator.New(app.Registry)
	recipe := core.Recipe{Name: "fig7", Scenarios: delayAllScenarios(app)}
	ruleset, err := recipe.Translate(app.Graph)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applied, err := orch.Apply(context.Background(), ruleset)
		if err != nil {
			b.Fatal(err)
		}
		if err := applied.Revert(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7Orchestration1Service(b *testing.B)   { benchmarkFigure7Orchestration(b, 0) }
func BenchmarkFigure7Orchestration7Services(b *testing.B)  { benchmarkFigure7Orchestration(b, 2) }
func BenchmarkFigure7Orchestration31Services(b *testing.B) { benchmarkFigure7Orchestration(b, 4) }

func benchmarkFigure7Assertions(b *testing.B, depth int) {
	app, runner := benchTree(b, depth)
	// One warm pass of traffic so assertions have observations to read.
	if _, err := loadgen.Run(app.EntryURL(), loadgen.Options{N: 100, Concurrency: 8}); err != nil {
		b.Fatal(err)
	}
	c := runner.Checker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, svc := range app.Services() {
			if _, err := c.HasTimeouts(svc, time.Minute, "test-*"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure7Assertions1Service(b *testing.B)   { benchmarkFigure7Assertions(b, 0) }
func BenchmarkFigure7Assertions7Services(b *testing.B)  { benchmarkFigure7Assertions(b, 2) }
func BenchmarkFigure7Assertions31Services(b *testing.B) { benchmarkFigure7Assertions(b, 4) }

// ---- Figure 8: rule-matching overhead ----

func benchmarkFigure8Match(b *testing.B, count int) {
	m := rules.NewMatcher(rand.New(rand.NewSource(1)))
	for i := 0; i < count; i++ {
		if err := m.Install(rules.Rule{
			ID: fmt.Sprintf("r%d", i), Src: "client", Dst: "server",
			Action: rules.ActionDelay, Pattern: fmt.Sprintf("re:^never-%d-[0-9]+$", i),
			DelayMillis: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	msg := rules.Message{Src: "client", Dst: "server", Type: rules.OnRequest, RequestID: "test-12345"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := m.Decide(msg); d.Fired {
			b.Fatal("no rule should match")
		}
	}
}

func BenchmarkFigure8Match1Rule(b *testing.B)    { benchmarkFigure8Match(b, 1) }
func BenchmarkFigure8Match10Rules(b *testing.B)  { benchmarkFigure8Match(b, 10) }
func BenchmarkFigure8Match50Rules(b *testing.B)  { benchmarkFigure8Match(b, 50) }
func BenchmarkFigure8Match200Rules(b *testing.B) { benchmarkFigure8Match(b, 200) }

func BenchmarkFigure8ProxiedRequest200Rules(b *testing.B) {
	batch := make([]rules.Rule, 0, 200)
	for i := 0; i < 200; i++ {
		batch = append(batch, rules.Rule{
			ID: fmt.Sprintf("r%d", i), Src: "client", Dst: "server",
			Action: rules.ActionDelay, Pattern: fmt.Sprintf("re:^never-%d-[0-9]+$", i),
			DelayMillis: 1,
		})
	}
	_, u := benchAgent(b, batch...)
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

// ---- Table 1 / §5: recipe translation for the outage scenarios ----

func BenchmarkTable1RecipeTranslate(b *testing.B) {
	spec := topology.MessageBus(topology.MessageBusOptions{})
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := app.Close(); err != nil {
			b.Error(err)
		}
	})
	recipe := core.Recipe{
		Name:      "cassandra-crash",
		Scenarios: []core.Scenario{core.Crash{Service: topology.CassandraService}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recipe.Translate(app.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Event store throughput (the logging pipeline both planes share) ----

func BenchmarkEventStoreLog(b *testing.B) {
	store := eventlog.NewStore()
	rec := eventlog.Record{Src: "a", Dst: "b", Kind: eventlog.KindReply, Status: 200, RequestID: "test-1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Log(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventStoreSelect(b *testing.B) {
	store := populateStore(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Select(eventlog.Query{Src: "a", Kind: eventlog.KindReply, IDPattern: "test-*"}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Hot-path overhaul: before/after micro-benchmarks ----
//
// Each pair measures one optimized component against its pre-overhaul
// behavior, kept callable through the UseLinearScan ablation switches.

// benchmarkMatcherDecide measures lock-free indexed decisions against the
// pre-overhaul linear scan, under parallel load (the agent decides on every
// concurrently proxied message). Rules are spread across distinct routes —
// the shape a real recipe produces — so the index visits only the probed
// route's bucket while the scan visits every rule.
func benchmarkMatcherDecide(b *testing.B, count int, linear bool) {
	m := rules.NewMatcher(rand.New(rand.NewSource(1)))
	m.UseLinearScan(linear)
	batch := make([]rules.Rule, 0, count)
	for i := 0; i < count; i++ {
		batch = append(batch, rules.Rule{
			ID: fmt.Sprintf("r%d", i), Src: fmt.Sprintf("svc-%d", i), Dst: "server",
			Action: rules.ActionDelay, Pattern: fmt.Sprintf("re:^never-%d-[0-9]+$", i),
			DelayMillis: 1,
		})
	}
	if err := m.Install(batch...); err != nil {
		b.Fatal(err)
	}
	msg := rules.Message{Src: "client", Dst: "server", Type: rules.OnRequest, RequestID: "test-12345"}
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if d := m.Decide(msg); d.Fired {
				b.Fatal("no rule should match")
			}
		}
	})
}

func BenchmarkMatcherDecideIndexed200Rules(b *testing.B) { benchmarkMatcherDecide(b, 200, false) }
func BenchmarkMatcherDecideLinear200Rules(b *testing.B)  { benchmarkMatcherDecide(b, 200, true) }
func BenchmarkMatcherDecideIndexed10Rules(b *testing.B)  { benchmarkMatcherDecide(b, 10, false) }
func BenchmarkMatcherDecideLinear10Rules(b *testing.B)   { benchmarkMatcherDecide(b, 10, true) }

// benchmarkStoreSelect measures an edge-filtered query against a large
// store, with and without the posting-list index — the Assertion Checker's
// access pattern (every base assertion queries one (src, dst) edge).
func benchmarkStoreSelect(b *testing.B, total, routes int, linear bool) {
	store := eventlog.NewStore()
	store.UseLinearScan(linear)
	base := time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)
	for i := 0; i < total; i++ {
		err := store.Log(eventlog.Record{
			Timestamp: base.Add(time.Duration(i) * time.Millisecond),
			RequestID: fmt.Sprintf("test-%d", i),
			Src:       fmt.Sprintf("svc-%d", i%routes),
			Dst:       fmt.Sprintf("dst-%d", i%routes),
			Kind:      eventlog.KindReply, Status: 200, LatencyMillis: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	q := eventlog.Query{Src: "svc-42", Dst: "dst-42", Kind: eventlog.KindReply, IDPattern: "test-*"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := store.Select(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != total/routes {
			b.Fatalf("got %d records, want %d", len(recs), total/routes)
		}
	}
}

func BenchmarkStoreSelectIndexed100k(b *testing.B) { benchmarkStoreSelect(b, 100_000, 100, false) }
func BenchmarkStoreSelectLinear100k(b *testing.B)  { benchmarkStoreSelect(b, 100_000, 100, true) }
func BenchmarkStoreSelectIndexed10k(b *testing.B)  { benchmarkStoreSelect(b, 10_000, 100, false) }
func BenchmarkStoreSelectLinear10k(b *testing.B)   { benchmarkStoreSelect(b, 10_000, 100, true) }

// benchmarkProxyThroughput pushes a body of the given size through the
// agent. With no Modify rule the body streams through pooled buffers (B/op
// stays flat as size grows); a response Modify rule forces the pre-overhaul
// read-everything path for comparison.
func benchmarkProxyThroughput(b *testing.B, size int, modify bool) {
	body := strings.Repeat("x", size)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, body)
	}))
	b.Cleanup(backend.Close)
	var installed []rules.Rule
	if modify {
		installed = append(installed, rules.Rule{
			ID: "md", Src: "client", Dst: "server", On: rules.OnResponse,
			Action: rules.ActionModify, Pattern: "test-*",
			SearchBytes: "never-present", ReplaceBytes: "still-never",
		})
	}
	agent, err := proxy.New(proxy.Config{
		ServiceName: "client",
		Routes: []proxy.Route{{
			Dst:        "server",
			ListenAddr: "127.0.0.1:0",
			Targets:    []string{strings.TrimPrefix(backend.URL, "http://")},
		}},
		RNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	agent.Start()
	b.Cleanup(func() {
		if err := agent.Close(); err != nil {
			b.Error(err)
		}
	})
	if err := agent.InstallRules(installed...); err != nil {
		b.Fatal(err)
	}
	u, err := agent.RouteURL("server")
	if err != nil {
		b.Fatal(err)
	}
	client := &http.Client{}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

func BenchmarkProxyThroughputStreamed64KiB(b *testing.B) { benchmarkProxyThroughput(b, 64<<10, false) }
func BenchmarkProxyThroughputBuffered64KiB(b *testing.B) { benchmarkProxyThroughput(b, 64<<10, true) }
func BenchmarkProxyThroughputStreamed1MiB(b *testing.B)  { benchmarkProxyThroughput(b, 1<<20, false) }
func BenchmarkProxyThroughputBuffered1MiB(b *testing.B)  { benchmarkProxyThroughput(b, 1<<20, true) }

// Ablation: the prefix-structured-request-ID optimization the paper
// suggests (§7.2) applied to the 200-rule worst case.
func BenchmarkFigure8Match200RulesFastPath(b *testing.B) {
	m := rules.NewMatcher(rand.New(rand.NewSource(1)))
	m.UseLiteralPrefixFastPath(true)
	for i := 0; i < 200; i++ {
		if err := m.Install(rules.Rule{
			ID: fmt.Sprintf("r%d", i), Src: "client", Dst: "server",
			Action: rules.ActionDelay, Pattern: fmt.Sprintf("never-%d-*", i),
			DelayMillis: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	msg := rules.Message{Src: "client", Dst: "server", Type: rules.OnRequest, RequestID: "test-12345"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := m.Decide(msg); d.Fired {
			b.Fatal("no rule should match")
		}
	}
}

// ---- Sharded store: concurrent append/select scaling ----
//
// The workloads below are the store's production shape: many agents
// batch-appending concurrently while checkers issue namespace-pinned
// queries. Shards=1 is the ablation — a plain single-mutex store behind
// the same API — so the pairs quantify what partitioning buys.

const shardBenchNamespaces = 64

func shardBenchRecord(ns, i int) eventlog.Record {
	return eventlog.Record{
		Timestamp: time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Microsecond),
		RequestID: fmt.Sprintf("ns%d-%d", ns, i),
		Src:       "a", Dst: "b", Kind: eventlog.KindReply, Status: 200, LatencyMillis: 1,
	}
}

func newBenchShardedStore(b *testing.B, shards int) *eventlog.ShardedStore {
	b.Helper()
	ss, err := eventlog.NewShardedStore(eventlog.StoreOptions{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := ss.Close(); err != nil {
			b.Error(err)
		}
	})
	return ss
}

// populateSharded fills the store with total records spread evenly over
// the bench namespaces.
func populateSharded(b *testing.B, ss *eventlog.ShardedStore, total int) {
	b.Helper()
	const chunk = 1000
	for at := 0; at < total; at += chunk {
		recs := make([]eventlog.Record, 0, chunk)
		for i := at; i < at+chunk && i < total; i++ {
			recs = append(recs, shardBenchRecord(i%shardBenchNamespaces, i))
		}
		if err := ss.Log(recs...); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkShardedAppend: parallel writers, each appending 128-record
// batches into its own rotation of namespaces (the shard-aware client's
// flush shape). One op = one batch.
func benchmarkShardedAppend(b *testing.B, shards int) {
	ss := newBenchShardedStore(b, shards)
	var worker atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1))
		i := 0
		for pb.Next() {
			recs := make([]eventlog.Record, 128)
			for j := range recs {
				recs[j] = shardBenchRecord((w*7+i+j)%shardBenchNamespaces, i+j)
			}
			if err := ss.Log(recs...); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkShardedStoreAppend1Shard(b *testing.B)  { benchmarkShardedAppend(b, 1) }
func BenchmarkShardedStoreAppend8Shards(b *testing.B) { benchmarkShardedAppend(b, 8) }

// benchmarkShardedSelect: 100k records resident, parallel namespace-pinned
// queries — the checker's per-run access pattern during a campaign.
func benchmarkShardedSelect(b *testing.B, shards int) {
	ss := newBenchShardedStore(b, shards)
	populateSharded(b, ss, 100_000)
	var worker atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1))
		i := 0
		for pb.Next() {
			ns := (w*13 + i) % shardBenchNamespaces
			// Namespaces below 100k%64 hold one extra record.
			want := 100_000 / shardBenchNamespaces
			if ns < 100_000%shardBenchNamespaces {
				want++
			}
			recs, err := ss.Select(eventlog.Query{IDPattern: fmt.Sprintf("ns%d-*", ns)})
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) != want {
				b.Fatalf("ns%d: got %d records, want %d", ns, len(recs), want)
			}
			i++
		}
	})
}

func BenchmarkShardedStoreSelect1Shard(b *testing.B)  { benchmarkShardedSelect(b, 1) }
func BenchmarkShardedStoreSelect8Shards(b *testing.B) { benchmarkShardedSelect(b, 8) }

// benchmarkShardedMixed: appends and pinned selects interleaved across
// workers over a 100k-record store — campaign steady state, where a
// single-mutex store serializes readers behind writers.
func benchmarkShardedMixed(b *testing.B, shards int) {
	ss := newBenchShardedStore(b, shards)
	populateSharded(b, ss, 100_000)
	var worker atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1))
		i := 0
		for pb.Next() {
			ns := (w*13 + i) % shardBenchNamespaces
			if (w+i)%2 == 0 {
				recs := make([]eventlog.Record, 64)
				for j := range recs {
					recs[j] = shardBenchRecord((ns+j)%shardBenchNamespaces, i+j)
				}
				if err := ss.Log(recs...); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := ss.Select(eventlog.Query{IDPattern: fmt.Sprintf("ns%d-*", ns), Limit: 2000}); err != nil {
					b.Fatal(err)
				}
			}
			i++
		}
	})
}

func BenchmarkShardedStoreMixed1Shard(b *testing.B)  { benchmarkShardedMixed(b, 1) }
func BenchmarkShardedStoreMixed8Shards(b *testing.B) { benchmarkShardedMixed(b, 8) }

// benchmarkWALAppend: the durable append path (WAL to the kernel before
// ack, no fsync wait) against the volatile one.
func benchmarkWALAppend(b *testing.B, dataDir bool) {
	opts := eventlog.StoreOptions{Shards: 8, Fsync: eventlog.FsyncNever}
	if dataDir {
		opts.DataDir = b.TempDir()
	}
	ss, err := eventlog.NewShardedStore(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := ss.Close(); err != nil {
			b.Error(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := make([]eventlog.Record, 128)
		for j := range recs {
			recs[j] = shardBenchRecord((i+j)%shardBenchNamespaces, i+j)
		}
		if err := ss.Log(recs...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedStoreAppendVolatile(b *testing.B) { benchmarkWALAppend(b, false) }
func BenchmarkShardedStoreAppendWAL(b *testing.B)      { benchmarkWALAppend(b, true) }

// BenchmarkStoreShipSelectClear is one campaign unit's store traffic over
// HTTP — ship a 256-record hop-shaped batch, select one edge's replies,
// count the run, clear the run's namespace (the shape of the repo
// benchmark's log_cycle op) — against a WAL-backed 4-shard store already
// holding 100k records. The batches are built before the timer starts, so
// what `make alloc-profile-store` and `make cpu-profile-store` show is the
// store path alone; EXPERIMENTS.md ("Where a record's allocations go",
// "Where a campaign unit's store time goes") reads its tables off them.
func BenchmarkStoreShipSelectClear(b *testing.B) {
	ss, err := eventlog.NewShardedStore(eventlog.StoreOptions{
		Shards: 4, DataDir: b.TempDir(), Fsync: eventlog.FsyncNever,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := ss.Close(); err != nil {
			b.Error(err)
		}
	})
	populateSharded(b, ss, 100_000)
	srv, err := eventlog.NewServer("127.0.0.1:0", ss)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	client := eventlog.NewClient(srv.URL(), nil)

	// Eight runs, so consecutive ops land on different shards; a run's
	// namespace is empty again once its op has cleared it.
	const batch, runs = 256, 8
	edges := [4][2]string{{"gw", "cart"}, {"cart", "stock"}, {"cart", "pay"}, {"pay", "bank"}}
	ts := time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)
	var batches [runs][]eventlog.Record
	var patterns [runs]string
	for r := range batches {
		patterns[r] = fmt.Sprintf("camp-b%d-*", r)
		for j := 0; j < batch/2; j++ {
			e := edges[j%len(edges)]
			req := eventlog.Record{
				Timestamp: ts.Add(time.Duration(j) * 2 * time.Microsecond),
				RequestID: fmt.Sprintf("camp-b%d-%d", r, j),
				SpanID:    fmt.Sprintf("s%d-%d", r, j), ParentSpanID: fmt.Sprintf("s%d-%d", r, j/2),
				EI:  fmt.Sprintf("gw:1/%s:%d", e[1], j),
				Src: e[0], Dst: e[1], Kind: eventlog.KindRequest,
				Method: http.MethodGet, URI: "/item", Agent: e[0] + "-agent",
			}
			reply := req
			reply.Kind, reply.Status, reply.LatencyMillis = eventlog.KindReply, http.StatusOK, 0.1
			reply.Timestamp = req.Timestamp.Add(time.Microsecond)
			batches[r] = append(batches[r], req, reply)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.LogBatch(batches[i%runs]); err != nil {
			b.Fatal(err)
		}
		got, err := client.Select(eventlog.Query{Src: "gw", Dst: "cart", Kind: eventlog.KindReply, IDPattern: patterns[i%runs]})
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != batch/2/len(edges) {
			b.Fatalf("select returned %d records, want %d", len(got), batch/2/len(edges))
		}
		if n, err := client.Count(eventlog.Query{IDPattern: patterns[i%runs]}); err != nil || n != batch {
			b.Fatalf("count = %d, %v; want %d", n, err, batch)
		}
		dropped, err := client.ClearMatching(patterns[i%runs])
		if err != nil {
			b.Fatal(err)
		}
		if dropped != batch {
			b.Fatalf("cleared %d records, want %d", dropped, batch)
		}
	}
}
