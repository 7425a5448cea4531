package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gremlin/internal/eventlog"
)

// log_cycle is one campaign unit's traffic against the store, and
// nothing else: ship a run's records, read them back the way the checker
// does, count them, clear the run's namespace — over HTTP, against a
// sharded store with a write-ahead log and 100 k records already in it.
// Writes, reads, tombstones and compaction share each op's latency.

const (
	// logPrefill is the store's standing population. Clear, count and
	// compaction cost grow with it; at 100 k an op takes about 5 ms, which
	// lets a 10 s run reach the sample count p99 needs with room to spare.
	logPrefill   = 100_000
	logBatch     = 256 // records one op ships: 128 exchanges
	logEdges     = 4   // edges a batch spreads over
	logFillEdges = 10
)

type logEdge struct{ src, dst string }

func fillEdge(i int) logEdge {
	return logEdge{fmt.Sprintf("svc-%d", i%logFillEdges), fmt.Sprintf("svc-%d", (i+1)%logFillEdges)}
}

// exchangeRecords appends the request and reply record of one exchange.
func exchangeRecords(recs []eventlog.Record, id string, e logEdge, ts time.Time) []eventlog.Record {
	return append(recs,
		eventlog.Record{Timestamp: ts, RequestID: id, Src: e.src, Dst: e.dst, Kind: eventlog.KindRequest,
			Method: http.MethodGet, URI: "/item", Agent: e.src + "-agent"},
		eventlog.Record{Timestamp: ts.Add(time.Microsecond), RequestID: id, Src: e.src, Dst: e.dst, Kind: eventlog.KindReply,
			Method: http.MethodGet, URI: "/item", Status: http.StatusOK, LatencyMillis: 0.1, Agent: e.src + "-agent"},
	)
}

// prefill loads the store with n records spread over 1000 request-ID
// namespaces (so all shards fill) and ten edges.
func prefill(store *eventlog.ShardedStore, seed int64, n int) error {
	rng := rand.New(rand.NewSource(seed))
	ts := time.Now().Add(-time.Hour)
	batch := make([]eventlog.Record, 0, 1024)
	for i := 0; i < n/2; i++ {
		id := fmt.Sprintf("f%d-%d", rng.Intn(1000), i)
		batch = exchangeRecords(batch, id, fillEdge(rng.Intn(logFillEdges)), ts.Add(time.Duration(i)*time.Millisecond))
		if len(batch) == cap(batch) || i == n/2-1 {
			if err := store.Log(batch...); err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
			batch = batch[:0]
		}
	}
	return nil
}

// logClient is one bench client's view of the store: its own
// eventlog.Client over its own connections. eventlog.Client offers no way
// to tag a request, so the traced transport learns which op a round trip
// belongs to from op, which the client sets before each op.
type logClient struct {
	c    *eventlog.Client
	hc   *http.Client
	op   atomic.Uint64
	recs []eventlog.Record
}

type logDeployment struct {
	cfg     runConfig
	tr      *tracer
	dir     string
	store   *eventlog.ShardedStore
	server  *eventlog.Server
	clients []*logClient

	walBytesPerRec float64

	written atomic.Int64 // records shipped since the last settle
	cleared atomic.Int64 // records ClearMatching reported dropped
}

// logBuilds numbers WAL directories: set-up builds the deployment more
// than once per process.
var logBuilds atomic.Int64

func buildLog(clients int) func(runConfig, *tracer) (deployment, error) {
	return func(cfg runConfig, tr *tracer) (deployment, error) {
		d := &logDeployment{cfg: cfg, tr: tr, dir: filepath.Join(cfg.workDir, fmt.Sprintf("wal-%d", logBuilds.Add(1)))}
		var err error
		d.store, err = eventlog.NewShardedStore(eventlog.StoreOptions{
			Shards: 4, DataDir: d.dir, Fsync: eventlog.FsyncInterval,
		})
		if err != nil {
			return nil, err
		}
		if err := prefill(d.store, cfg.seed, logPrefill); err != nil {
			d.close()
			return nil, err
		}
		var wal int64
		for _, st := range d.store.ShardStats() {
			wal += st.WALBytes
		}
		d.walBytesPerRec = float64(wal) / logPrefill
		if d.server, err = eventlog.NewServer("127.0.0.1:0", d.store); err != nil {
			d.close()
			return nil, err
		}
		for c := 0; c < clients; c++ {
			lc := &logClient{hc: newHTTPClient(), recs: make([]eventlog.Record, 0, logBatch)}
			if tr != nil {
				lc.hc.Transport = &tracedTransport{rt: lc.hc.Transport, tr: tr, op: &lc.op}
			}
			lc.c = eventlog.NewClient(d.server.URL(), lc.hc)
			d.clients = append(d.clients, lc)
		}
		return d, nil
	}
}

// timed runs fn and, in a traced run, records it as a span of op n.
func (d *logDeployment) timed(kind spanKind, n uint64, fn func() error) error {
	t0, traced := d.tr.begin()
	err := fn()
	if traced {
		d.tr.end(kind, n, t0)
	}
	return err
}

func (d *logDeployment) op(_ side, c int, n uint64) error {
	lc := d.clients[c]
	lc.op.Store(n)
	run := fmt.Sprintf("camp-s%dn%d-", d.cfg.seed, n)
	pattern := run + "*"
	edges := [logEdges]logEdge{{"gw", "cart"}, {"cart", "stock"}, {"cart", "pay"}, {"pay", "bank"}}
	pick := edges[n%logEdges]

	recs, now := lc.recs[:0], time.Now()
	var want []string // IDs on the picked edge, in write order
	for i := 0; i < logBatch/2; i++ {
		id, e := fmt.Sprintf("%s%d", run, i), edges[i%logEdges]
		recs = exchangeRecords(recs, id, e, now.Add(time.Duration(i)*2*time.Microsecond))
		if e == pick {
			want = append(want, id)
		}
	}

	if err := d.timed(kLogBatch, n, func() error { return lc.c.LogBatch(recs) }); err != nil {
		return fmt.Errorf("op %d: %w", n, err)
	}
	d.written.Add(logBatch)
	for _, kind := range []eventlog.Kind{eventlog.KindRequest, eventlog.KindReply} {
		var got []eventlog.Record
		q := eventlog.Query{Src: pick.src, Dst: pick.dst, Kind: kind, IDPattern: pattern}
		err := d.timed(kSelect, n, func() (err error) { got, err = lc.c.Select(q); return })
		if err != nil {
			return fmt.Errorf("op %d: %w", n, err)
		}
		if len(got) != len(want) {
			return fmt.Errorf("op %d: select %s on %s->%s returned %d records, wrote %d", n, kind, pick.src, pick.dst, len(got), len(want))
		}
		for i, r := range got {
			if r.RequestID != want[i] || r.Kind != kind {
				return fmt.Errorf("op %d: select %s record %d is %s/%s, want %s", n, kind, i, r.RequestID, r.Kind, want[i])
			}
		}
	}
	var count, cleared int
	if err := d.timed(kCount, n, func() (err error) {
		count, err = lc.c.Count(eventlog.Query{IDPattern: pattern})
		return
	}); err != nil {
		return fmt.Errorf("op %d: %w", n, err)
	}
	if err := d.timed(kClear, n, func() (err error) { cleared, err = lc.c.ClearMatching(pattern); return }); err != nil {
		return fmt.Errorf("op %d: %w", n, err)
	}
	d.cleared.Add(int64(cleared))
	if count != logBatch || cleared != logBatch {
		return fmt.Errorf("op %d: count %d, cleared %d, wrote %d", n, count, cleared, logBatch)
	}
	return nil
}

// settle checks that the store took and gave back every record: what the
// clears dropped equals what the ops shipped, and only the prefill is
// left.
func (d *logDeployment) settle(side) (expected, found int64, err error) {
	expected, found = d.written.Swap(0), d.cleared.Swap(0)
	if n := d.store.Len(); n != logPrefill {
		err = fmt.Errorf("store holds %d records after the segment, want the %d prefilled", n, logPrefill)
	}
	return expected, found, err
}

func (d *logDeployment) close() {
	for _, lc := range d.clients {
		lc.hc.CloseIdleConnections()
	}
	if d.server != nil {
		_ = d.server.Close()
	}
	if d.store != nil {
		_ = d.store.Close()
	}
	_ = os.RemoveAll(d.dir)
}

func logLayers(dep deployment, tv *traceView, m map[string]float64) {
	d := dep.(*logDeployment)
	per := func(kind spanKind) float64 {
		return tv.median(tv.agent, nil, func(t *opTree) int64 { return t.dur[kind] / int64(max(t.count[kind], 1)) }) / 1e3
	}
	m["eventlog.logbatch_us"] = per(kLogBatch)
	m["eventlog.select_us"] = per(kSelect)
	m["eventlog.count_us"] = per(kCount)
	m["eventlog.clear_us"] = per(kClear)
	m["eventlog.http_rt_us"] = per(kHTTP)
	m["eventlog.wal_bytes_rec"] = d.walBytesPerRec
	// How much of the op the four client calls explain; the rest is the
	// bench building records and checking answers.
	m["bench.span_coverage_ratio"] = float64(tv.median(tv.agent, nil, func(t *opTree) int64 {
		return 1000 * (t.dur[kLogBatch] + t.dur[kSelect] + t.dur[kCount] + t.dur[kClear]) / max(t.dur[kOp], 1)
	})) / 1000
}
