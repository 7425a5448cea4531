package eventlog

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"gremlin/internal/httpx"
	"gremlin/internal/metrics"
)

// Server exposes a store over HTTP — the stand-in for the paper's
// logstash→Elasticsearch pipeline. Endpoints:
//
//	POST   /v1/records   ingest records as JSON Lines; a shard-aware
//	                     client's ?shard=i&of=N hint is advisory — the
//	                     store routes every record itself
//	POST   /v1/query     run a Query, returning matching records as JSON
//	                     Lines (a dump: POST it to /v1/records to import)
//	POST   /v1/count     run a Query, returning only the match count
//	POST   /v1/compact   compact the write-ahead logs (no-op if volatile)
//	DELETE /v1/records   clear the store (?pattern= clears only matching
//	                     request IDs, for per-campaign-run cleanup)
//	GET    /v1/stats     store statistics (record count, shard count)
//	GET    /v1/info      store topology and WAL durability configuration
//	                     (shard count, fsync policy, data directory)
//	GET    /v1/stream    live record feed (SSE; ?pattern= filters by
//	                     request ID, ?buffer= sets the subscriber buffer)
//	GET    /metrics      Prometheus text exposition
//	GET    /healthz      liveness probe
type Server struct {
	store *Store
	http  *httpx.Server
}

// streamHeartbeat is how often an idle stream emits an SSE comment so
// intermediaries keep the connection alive and dead clients are detected.
// Tests shorten it via the package-level variable.
var streamHeartbeat = 15 * time.Second

// statsBody is the payload of GET /v1/stats. Shards lets shard-aware
// clients pre-route their append batches.
type statsBody struct {
	Records int `json:"records"`
	Shards  int `json:"shards,omitempty"`
}

// StoreInfo is the payload of GET /v1/info: the store's partition
// topology and write-ahead-log durability configuration, surfaced so
// operators can verify from the outside what guarantees their event logs
// actually run with (gremlin-ctl status prints it).
type StoreInfo struct {
	Records    int  `json:"records"`
	Shards     int  `json:"shards"`
	Persistent bool `json:"persistent"`

	// Subscribers is how many live-stream subscriptions are open;
	// SubscriberDropped counts records dropped on full subscriber
	// buffers. Non-zero drops mean watchers (gremlin-watch, live
	// assertions) saw partial streams — silent unless surfaced here.
	Subscribers       int   `json:"subscribers"`
	SubscriberDropped int64 `json:"subscriberDropped,omitempty"`

	// Fsync is the WAL durability policy ("always", "interval", "never"),
	// set only for persistent stores.
	Fsync string `json:"fsync,omitempty"`

	// FsyncIntervalMillis is the background sync cadence, set only under
	// the "interval" policy.
	FsyncIntervalMillis int64 `json:"fsyncIntervalMillis,omitempty"`

	// DataDir is the server-local WAL directory, set only for persistent
	// stores.
	DataDir string `json:"dataDir,omitempty"`
}

// countBody is the payload of POST /v1/count.
type countBody struct {
	Count int `json:"count"`
}

// clearBody is the payload of DELETE /v1/records.
type clearBody struct {
	Dropped int `json:"dropped"`
}

// NewServer creates and starts a store server on addr (use "127.0.0.1:0"
// for an ephemeral port). Call Close to stop it.
func NewServer(addr string, store *Store) (*Server, error) {
	s := &Server{store: store}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/records", s.handleRecords)
	mux.HandleFunc("DELETE /v1/records", s.handleClear)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/count", s.handleCount)
	mux.HandleFunc("POST /v1/compact", s.handleCompact)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/info", s.handleInfo)
	mux.HandleFunc("GET /v1/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", httpx.Healthz)
	hs, err := httpx.NewServer(addr, mux)
	if err != nil {
		return nil, err
	}
	s.http = hs
	hs.Start()
	return s, nil
}

// URL returns the server's base URL.
func (s *Server) URL() string { return s.http.URL() }

// Close shuts the server down.
func (s *Server) Close() error { return s.http.Close() }

// handleRecords ingests a JSON Lines body. The body stays in its pooled
// buffer until the store has logged it, so that a durable store journals
// the lines it decoded in canonical form as they arrived instead of
// encoding their records again.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	in := ingestPool.Get().(*ingestBuf)
	defer ingestPool.Put(in)
	body, err := readAll(in.body[:0], http.MaxBytesReader(w, r.Body, httpx.MaxBodyBytes))
	in.body = body
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "read request body: %v", err)
		return
	}
	in.lines = in.lines[:0]
	var lines *[][]byte
	if s.store.durable() {
		lines = &in.lines
	}
	recs, err := decodeLines(in.recs[:0], body, lines)
	in.recs = recs[:0]
	defer clear(recs) // release the records' strings before the slice is reused
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "decode request body: %v", err)
		return
	}
	if err := s.store.logLines(recs, in.lines); err != nil {
		httpx.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusAccepted, map[string]int{"accepted": len(recs)})
}

func (s *Server) handleClear(w http.ResponseWriter, r *http.Request) {
	if pat := r.URL.Query().Get("pattern"); pat != "" {
		dropped, err := s.store.ClearMatching(pat)
		if err != nil {
			httpx.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, clearBody{Dropped: dropped})
		return
	}
	httpx.WriteJSON(w, http.StatusOK, clearBody{Dropped: s.store.Clear()})
}

// ingestBuf is one ingest's pooled working set: the body read whole, the
// records decoded from it and, for a durable store, the lines it decoded
// them from. Store.Log retains none of them.
type ingestBuf struct {
	body  []byte
	recs  []Record
	lines [][]byte
}

var ingestPool = sync.Pool{New: func() any { return new(ingestBuf) }}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	var q Query
	if err := httpx.ReadJSON(w, r, &q); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n, err := s.store.Count(q)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, countBody{Count: n})
}

func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	if err := s.store.Compact(); err != nil {
		httpx.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q Query
	if err := httpx.ReadJSON(w, r, &q); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	recs, err := s.store.Select(q)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	body, err := appendLines((*bp)[:0], recs)
	*bp = body
	if err != nil {
		httpx.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, statsBody{Records: s.store.Len(), Shards: s.store.NumShards()})
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	info := StoreInfo{
		Records:           s.store.Len(),
		Shards:            s.store.NumShards(),
		Subscribers:       s.store.Subscribers(),
		SubscriberDropped: s.store.SubscriberDropped(),
	}
	if policy, interval, dir := s.store.Durability(); dir != "" {
		info.Persistent = true
		info.Fsync = string(policy)
		info.DataDir = dir
		if policy == FsyncInterval {
			info.FsyncIntervalMillis = interval.Milliseconds()
		}
	}
	httpx.WriteJSON(w, http.StatusOK, info)
}

// handleStream serves the live record feed as Server-Sent Events: one
// `data:` line of record JSON per event, a comment heartbeat while idle,
// and a `drop` event whenever the subscriber's buffer lost records. The
// stream runs until the client disconnects.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	buffer := DefaultSubscriberBuffer
	if b := r.URL.Query().Get("buffer"); b != "" {
		n, err := strconv.Atoi(b)
		if err != nil || n < 1 {
			httpx.WriteError(w, http.StatusBadRequest, "bad buffer %q", b)
			return
		}
		buffer = n
	}
	sub, err := s.store.SubscribeBuffer(r.URL.Query().Get("pattern"), buffer)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer sub.Close()
	ev, ok := httpx.StartEvents(w)
	if !ok {
		return
	}

	heartbeat := time.NewTicker(streamHeartbeat)
	defer heartbeat.Stop()
	var data []byte
	var reportedDrops int64
	for {
		select {
		case rec, ok := <-sub.C():
			if !ok {
				return
			}
			if data, err = AppendRecord(data[:0], &rec); err != nil || ev.Send("", data) != nil {
				return
			}
		case <-heartbeat.C:
			// Surface buffer overflow to the client so it knows its view
			// is lossy, then keep the connection warm.
			if d := sub.Dropped(); d > reportedDrops {
				reportedDrops = d
				err = ev.Send("drop", strconv.AppendInt(data[:0], d, 10))
			} else {
				err = ev.Comment("keepalive")
			}
			if err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	mw := metrics.NewWriter()
	mw.Gauge("gremlin_store_records", "Records currently held by the store.", float64(s.store.Len()))
	mw.Counter("gremlin_store_appended_total", "Records ever appended to the store.", float64(s.store.Appended()))
	mw.Gauge("gremlin_store_subscribers", "Open live-stream subscriptions.", float64(s.store.Subscribers()))
	mw.Counter("gremlin_store_published_total", "Records delivered to live subscribers.", float64(s.store.Published()))
	mw.Counter("gremlin_store_subscriber_dropped_total", "Records dropped because a subscriber's buffer was full.", float64(s.store.SubscriberDropped()))
	mw.Gauge("gremlin_store_shards", "Number of store partitions.", float64(s.store.NumShards()))
	for _, st := range s.store.ShardStats() {
		shard := strconv.Itoa(st.Shard)
		mw.Counter("gremlin_store_shard_appends_total", "Records ever appended, per shard.", float64(st.Appended), "shard", shard)
		mw.Gauge("gremlin_store_shard_records", "Records currently held, per shard.", float64(st.Records), "shard", shard)
		mw.Gauge("gremlin_store_wal_segments", "Write-ahead-log segment files on disk, per shard.", float64(st.WALSegments), "shard", shard)
		mw.Gauge("gremlin_store_wal_bytes", "Write-ahead-log bytes on disk, per shard.", float64(st.WALBytes), "shard", shard)
		mw.Gauge("gremlin_store_wal_replayed_records", "Records recovered from the write-ahead log at startup, per shard.", float64(st.WALReplayed), "shard", shard)
		mw.Counter("gremlin_store_wal_compactions_total", "Write-ahead-log compactions run, per shard.", float64(st.WALCompactions), "shard", shard)
		mw.Gauge("gremlin_store_wal_garbage_records", "Cleared records the write-ahead log still holds until its next compaction, per shard.", float64(st.WALGarbage), "shard", shard)
	}
	mw.Serve(w)
}
