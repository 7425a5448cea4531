package eventlog_test

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"gremlin/internal/eventlog"
)

// benchmarkStoreSelect measures an edge-filtered query against a large
// store, with and without the posting-list index — the Assertion Checker's
// access pattern (every base assertion queries one (src, dst) edge).
func benchmarkStoreSelect(b *testing.B, total, routes int, linear bool) {
	store := eventlog.NewStore()
	store.UseLinearScan(linear)
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

// ---- Sharded store: concurrent append/select scaling ----
//
// The workloads below are the store's production shape: many agents
// batch-appending concurrently while checkers issue namespace-pinned
// queries. Shards=1 is the ablation — a plain single-mutex store behind
// the same API — so the pairs quantify what partitioning buys.

const shardBenchNamespaces = 64

func shardBenchRecord(ns, i int) eventlog.Record {
	return eventlog.Record{
		Timestamp: base.Add(time.Duration(i) * time.Microsecond),
		RequestID: fmt.Sprintf("ns%d-%d", ns, i),
		Src:       "a", Dst: "b", Kind: eventlog.KindReply, Status: 200, LatencyMillis: 1,
	}
}

func newBenchStore(b *testing.B, opts eventlog.StoreOptions) *eventlog.Store {
	b.Helper()
	ss, err := eventlog.NewShardedStore(opts)
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
func populateSharded(b *testing.B, ss *eventlog.Store, total int) {
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
	ss := newBenchStore(b, eventlog.StoreOptions{Shards: shards})
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
				b.Error(err)
				return
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
	ss := newBenchStore(b, eventlog.StoreOptions{Shards: shards})
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
				b.Error(err)
				return
			}
			if len(recs) != want {
				b.Errorf("ns%d: got %d records, want %d", ns, len(recs), want)
				return
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
	ss := newBenchStore(b, eventlog.StoreOptions{Shards: shards})
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
					b.Error(err)
					return
				}
			} else {
				if _, err := ss.Select(eventlog.Query{IDPattern: fmt.Sprintf("ns%d-*", ns), Limit: 2000}); err != nil {
					b.Error(err)
					return
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
	ss := newBenchStore(b, opts)
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
	ss := newBenchStore(b, eventlog.StoreOptions{
		Shards: 4, DataDir: b.TempDir(), Fsync: eventlog.FsyncNever,
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
	var batches [runs][]eventlog.Record
	var patterns [runs]string
	for r := range batches {
		patterns[r] = fmt.Sprintf("camp-b%d-*", r)
		for j := 0; j < batch/2; j++ {
			e := edges[j%len(edges)]
			req := eventlog.Record{
				Timestamp: base.Add(time.Duration(j) * 2 * time.Microsecond),
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
