package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"gremlin/internal/eventlog"
	"gremlin/internal/httpx"
)

// runLogstore runs the centralized event-log store that Gremlin agents
// ship their observations to and the Assertion Checker queries — the
// stand-in for the paper's logstash→Elasticsearch pipeline — until ctx is
// cancelled. Its banner, which names the addresses it bound, goes to out.
//
//	gremlin logstore -addr 127.0.0.1:9200
//	gremlin logstore -shards 8 -data-dir /var/lib/gremlin -fsync interval
func runLogstore(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("gremlin logstore", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9200", "listen address")
	shards := fs.Int("shards", 1, "number of store shards (request-ID namespaces hash across them)")
	dataDir := fs.String("data-dir", "", "directory for per-shard write-ahead logs (replayed at startup; volatile when empty)")
	fsyncMode := fs.String("fsync", "interval", "WAL fsync policy: always, interval, or never")
	pprofAddr := fs.String("pprof", "", "listen address for /debug/pprof/ endpoints (disabled when empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	policy, err := eventlog.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return err
	}
	store, err := eventlog.NewShardedStore(eventlog.StoreOptions{
		Shards:  *shards,
		DataDir: *dataDir,
		Fsync:   policy,
	})
	if err != nil {
		return err
	}
	// The store holds WAL segments and, under -fsync interval, a sync
	// goroutine: it closes on every return path, after the server.
	defer closeKeep(&err, store.Close)
	if n := store.Len(); n > 0 {
		fmt.Fprintf(out, "replayed %d records from %s\n", n, *dataDir)
	}

	srv, err := eventlog.NewServer(*addr, store)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "gremlin logstore listening on %s (%d shard(s))\n", srv.URL(), store.NumShards())
	fmt.Fprintln(out, "  POST   /v1/records  ingest observations (JSON Lines; ?shard=i&of=n hint)")
	fmt.Fprintln(out, "  POST   /v1/query    query observations (JSON Lines reply: a dump to POST back)")
	fmt.Fprintln(out, "  POST   /v1/count    count matching observations")
	fmt.Fprintln(out, "  POST   /v1/compact  compact the write-ahead logs")
	fmt.Fprintln(out, "  DELETE /v1/records  clear")
	fmt.Fprintln(out, "  GET    /v1/stats    record count and shard topology")
	fmt.Fprintln(out, "  GET    /v1/info     shard topology and WAL durability")
	fmt.Fprintln(out, "  GET    /v1/stream   live SSE record stream (?pattern=)")
	fmt.Fprintln(out, "  GET    /metrics     Prometheus text exposition")
	fmt.Fprintln(out, "  GET    /healthz     liveness probe")
	if *pprofAddr != "" {
		dbg, err := httpx.StartPprof(*pprofAddr)
		if err != nil {
			_ = srv.Close()
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(out, "  pprof: %s/debug/pprof/\n", dbg.URL())
	}

	<-ctx.Done()
	fmt.Fprintln(out, "shutting down")
	return srv.Close()
}
