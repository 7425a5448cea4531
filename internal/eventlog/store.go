package eventlog

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/pattern"
)

// Query selects records from the store. Zero-valued fields match
// everything.
type Query struct {
	// Src and Dst filter by caller/callee service name ("" matches any).
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`

	// Kind filters by record kind ("" matches both).
	Kind Kind `json:"kind,omitempty"`

	// IDPattern filters by request ID using the shared pattern language
	// (glob or "re:"). Empty matches any ID, including absent ones.
	IDPattern string `json:"idPattern,omitempty"`

	// Since and Until bound the record timestamps: Since <= ts < Until.
	// Zero values leave the corresponding bound open.
	Since time.Time `json:"since,omitempty"`
	Until time.Time `json:"until,omitempty"`

	// Limit caps the number of returned records (0 = unlimited).
	Limit int `json:"limit,omitempty"`
}

// Sink consumes observation records. Gremlin agents log through a Sink; the
// Store implements it directly and Client ships records to a remote Server.
type Sink interface {
	Log(recs ...Record) error
}

// Source answers record queries. The Assertion Checker depends only on this
// interface, so it works identically against an in-process Store or a
// remote store via Client.
type Source interface {
	// Select returns the records matching q, sorted by (timestamp, seq).
	Select(q Query) ([]Record, error)
}

// Counter is the optional count-only surface of a Source. Store and
// Client implement it.
type Counter interface {
	Count(q Query) (int, error)
}

// CountRecords counts the records matching q, using src's Count fast
// path when it has one and falling back to Select otherwise — so callers
// that only need a total never force a remote store to materialize and
// ship the records.
func CountRecords(src Source, q Query) (int, error) {
	if c, ok := src.(Counter); ok {
		return c.Count(q)
	}
	recs, err := src.Select(q)
	if err != nil {
		return 0, err
	}
	return len(recs), nil
}

// StoreOptions configures a Store. The zero value is a pure in-memory
// single shard — what NewStore returns.
type StoreOptions struct {
	// Shards is the number of independent partitions (default 1). Records
	// are routed by a hash of their request-ID namespace, so one
	// campaign run's records ("camp-<runID>-*") always share a shard and
	// namespace-scoped queries touch exactly one lock.
	Shards int

	// DataDir enables write-ahead persistence: each shard keeps
	// size-rotated JSONL segment files under DataDir/shard-<i>/ and
	// replays them at open, so a kill -9'd store restarts into its exact
	// pre-crash state. Empty disables persistence.
	DataDir string

	// Fsync selects the WAL durability policy (default FsyncInterval).
	Fsync FsyncPolicy

	// FsyncInterval is the background sync cadence under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration

	// MaxSegmentBytes rotates a shard's WAL segment when it exceeds this
	// size (default 64 MiB).
	MaxSegmentBytes int64

	// CompactAfter is the floor of a shard's WAL compaction trigger: a
	// shard compacts once the records cleared from it since its last
	// compaction reach CompactAfter or its live record count, whichever
	// is larger (default 8192; negative disables automatic compaction).
	// Compaction rewrites the live set into a single snapshot segment,
	// reclaiming the space of cleared campaign namespaces; since it
	// rewrites no more records than were cleared, it costs amortized
	// O(1) per cleared record, and a shard's log holds at most about
	// twice its live records plus CompactAfter. A reopened shard counts
	// the cleared records its log still holds. A clear that matches
	// nothing writes nothing to the log.
	CompactAfter int
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	if o.CompactAfter == 0 {
		o.CompactAfter = 8192
	}
	return o
}

// ShardStats is one shard's observability snapshot (see the
// gremlin_store_shard_* and gremlin_store_wal_* metric families).
type ShardStats struct {
	Shard          int    `json:"shard"`
	Records        int    `json:"records"`
	Appended       uint64 `json:"appended"`
	WALSegments    int    `json:"walSegments,omitempty"`
	WALBytes       int64  `json:"walBytes,omitempty"`
	WALReplayed    int    `json:"walReplayed,omitempty"`
	WALCompactions uint64 `json:"walCompactions,omitempty"`

	// WALGarbage is the compaction debt: record lines in the log that
	// are no longer live, which the next compaction reclaims.
	WALGarbage int `json:"walGarbage,omitempty"`
}

// Store is the event store. It partitions the log across N shards, each
// with its own lock, posting-list indexes, subscriber list and (optionally)
// write-ahead log, so concurrent appends and selects stop contending on one
// mutex. Records route to shards by a hash of their request-ID namespace;
// reads scatter across the shards and merge the time-sorted streams, so
// Select, Count and Subscribe answer exactly as one partition would.
// NewStore returns a volatile single-shard store; NewShardedStore sets the
// shard count and persistence. It is safe for concurrent use.
type Store struct {
	shards []*shard
	seq    atomic.Uint64 // global sequence numbers, unique across shards
	opts   StoreOptions
	closed atomic.Bool

	subscribers atomic.Int64 // open subscriptions

	stopSync chan struct{}
	syncDone chan struct{}
}

// ShardedStore is Store's former name, kept as an alias only because the
// benchmark program under bench/ still spells it.
type ShardedStore = Store

var (
	_ Sink    = (*Store)(nil)
	_ Source  = (*Store)(nil)
	_ Counter = (*Store)(nil)
)

// NewStore creates an empty, volatile, single-shard store.
func NewStore() *Store {
	s, _ := NewShardedStore(StoreOptions{}) // only a DataDir can fail
	return s
}

// NewShardedStore creates a store partitioned per opts, replaying any
// existing write-ahead logs under opts.DataDir.
func NewShardedStore(opts StoreOptions) (*Store, error) {
	o := opts.withDefaults()
	s := &Store{shards: make([]*shard, o.Shards), opts: o}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	if o.DataDir == "" {
		return s, nil
	}
	if err := checkShardCount(o.DataDir, o.Shards); err != nil {
		return nil, err
	}
	for i, sh := range s.shards {
		w, recs, err := openWAL(filepath.Join(o.DataDir, fmt.Sprintf("shard-%d", i)), o.Fsync, o.MaxSegmentBytes)
		if err != nil {
			s.closeWALs()
			return nil, err
		}
		// Replayed records keep their seqs and must not be journalled
		// again, so they go in before the log is attached. Seqs go on
		// from the highest the log ever held, cleared records' included,
		// so none is issued twice.
		sh.add(recs, 0, time.Time{})
		sh.wal = w
		if w.hiSeq > s.seq.Load() {
			s.seq.Store(w.hiSeq)
		}
	}
	if o.Fsync == FsyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// checkShardCount pins a data directory to the shard count that wrote it.
// Namespace→shard routing depends on the count, so reopening with a
// different one would strand replayed records on shards the new routing
// never reads; resharding means a new directory.
func checkShardCount(dir string, shards int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("eventlog: data dir: %w", err)
	}
	meta := filepath.Join(dir, "SHARDS")
	b, err := os.ReadFile(meta)
	if errors.Is(err, fs.ErrNotExist) {
		return os.WriteFile(meta, []byte(fmt.Sprintf("%d\n", shards)), 0o644)
	}
	if err != nil {
		return fmt.Errorf("eventlog: data dir: %w", err)
	}
	var have int
	if _, err := fmt.Sscanf(string(b), "%d", &have); err != nil {
		return fmt.Errorf("eventlog: %s: unreadable shard count %q", meta, b)
	}
	if have != shards {
		return fmt.Errorf("eventlog: data dir %s was written with %d shards, opened with %d; routing would strand records — use a new directory to reshard", dir, have, shards)
	}
	return nil
}

// NumShards reports the number of partitions.
func (s *Store) NumShards() int { return len(s.shards) }

// Durability reports the store's WAL configuration — fsync policy,
// background sync cadence, and data directory (empty for volatile
// stores). GET /v1/info exposes it to remote operators.
func (s *Store) Durability() (FsyncPolicy, time.Duration, string) {
	return s.opts.Fsync, s.opts.FsyncInterval, s.opts.DataDir
}

// Replayed reports how many records were recovered from the write-ahead
// logs when the store was opened.
func (s *Store) Replayed() int {
	n := 0
	for _, st := range s.ShardStats() {
		n += st.WALReplayed
	}
	return n
}

// UseLinearScan toggles the pre-index ablation: Select scans and sorts
// every stored record, as the store did before posting lists existed.
// Results are identical; only the work per query differs. Used as the
// before/after baseline in benchmarks.
func (s *Store) UseLinearScan(on bool) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.linearScan = on
		sh.mu.Unlock()
	}
}

// shardFor routes a request ID to its shard.
func (s *Store) shardFor(id string) int {
	return shardOf(id, len(s.shards))
}

// shardOfPattern returns the one shard every ID matching pat can live on,
// or -1 when the pattern spans namespaces and the query must scatter.
func (s *Store) shardOfPattern(pat pattern.Pattern) int {
	if len(s.shards) == 1 {
		return 0
	}
	ns, ok := patternNamespace(pat)
	if !ok {
		return -1
	}
	return shardOfNamespace(ns, len(s.shards))
}

// Log appends records: each gets the next global sequence number and,
// when it has none, the current time, both taken under its shard's gate so
// every shard's seq order is its append order. With persistence on, a
// shard's records reach its write-ahead log (acknowledged only once the
// kernel has them) before memory; live subscriptions see them last, with
// non-blocking sends, so subscribers never slow the append path down. A
// batch bound for one shard — a volatile single-shard store's always, a
// shard-aware client's usually — is appended without being copied.
//
// Log never retains recs: the store keeps copies, and the caller may
// reuse or overwrite the slice as soon as Log returns (the server decodes
// every ingest body into a pooled slice on that promise).
func (s *Store) Log(recs ...Record) error { return s.logLines(recs, nil) }

// durable reports whether the store keeps a write-ahead log.
func (s *Store) durable() bool { return s.opts.DataDir != "" }

// logLines is Log for a batch decoded from an ingest body: lines[i], for
// i < len(lines), is the line record i was decoded from in canonical form,
// which the write-ahead log journals under the record's seq instead of
// encoding the record again (see wal.append), or nil for a record
// encoding/json decoded, which the log encodes. Like recs, lines is not
// retained.
func (s *Store) logLines(recs []Record, lines [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	if s.closed.Load() {
		return fmt.Errorf("eventlog: store closed")
	}
	si := 0
	if len(s.shards) > 1 {
		si = s.shardFor(recs[0].RequestID)
		for _, r := range recs[1:] {
			if s.shardFor(r.RequestID) != si {
				return s.logScattered(recs, lines)
			}
		}
	}
	sh := s.shards[si]
	sh.gate.Lock()
	defer sh.gate.Unlock()
	n := uint64(len(recs))
	return sh.write(recs, lines, s.seq.Add(n)-n+1, time.Now())
}

// logScattered appends a batch that spans shards. It holds every involved
// shard's gate — taken in shard order, so concurrent batches cannot
// deadlock — while it reserves the batch's seqs, so seqs follow the batch
// order and each shard still appends in seq order. Each shard's group
// takes along its records' lines, but not those of records the store
// stamps with a timestamp: once stamped, the log cannot tell them apart.
func (s *Store) logScattered(recs []Record, lines [][]byte) error {
	groups := make([][]Record, len(s.shards))
	lineGroups := make([][][]byte, len(s.shards))
	for i, r := range recs {
		si := s.shardFor(r.RequestID)
		if i < len(lines) {
			line := lines[i]
			if r.Timestamp.IsZero() {
				line = nil
			}
			lineGroups[si] = append(lineGroups[si], line)
		}
		r.Seq = uint64(i) // batch position until the seqs are reserved
		groups[si] = append(groups[si], r)
	}
	for si, g := range groups {
		if len(g) > 0 {
			s.shards[si].gate.Lock()
		}
	}
	n := uint64(len(recs))
	base, now := s.seq.Add(n)-n+1, time.Now()
	var err error
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		for i := range g {
			stamp(&g[i], base+g[i].Seq, now)
		}
		if err == nil {
			err = s.shards[si].write(g, lineGroups[si], 0, time.Time{})
		}
		s.shards[si].gate.Unlock()
	}
	return err
}

// Select returns the records matching q in (timestamp, seq) order,
// scatter-gathering across shards and merging their sorted streams. A
// query whose IDPattern pins one namespace reads only that namespace's
// shard.
func (s *Store) Select(q Query) ([]Record, error) {
	pat, err := pattern.Compile(q.IDPattern)
	if err != nil {
		return nil, fmt.Errorf("eventlog: bad query pattern: %w", err)
	}
	if si := s.shardOfPattern(pat); si >= 0 {
		return s.shards[si].selectMatching(q, pat), nil
	}
	parts := make([][]Record, len(s.shards))
	s.scatter(func(i int) { parts[i] = s.shards[i].selectMatching(q, pat) })
	merged := mergeSorted(parts)
	if q.Limit > 0 && len(merged) > q.Limit {
		merged = merged[:q.Limit]
	}
	return merged, nil
}

// Count reports how many records match q without copying them out — the
// cheap path for count-only assertions and campaign bookkeeping.
func (s *Store) Count(q Query) (int, error) {
	pat, err := pattern.Compile(q.IDPattern)
	if err != nil {
		return 0, fmt.Errorf("eventlog: bad query pattern: %w", err)
	}
	if si := s.shardOfPattern(pat); si >= 0 {
		return s.shards[si].countMatching(q, pat), nil
	}
	counts := make([]int, len(s.shards))
	s.scatter(func(i int) { counts[i] = s.shards[i].countMatching(q, pat) })
	total := 0
	for _, c := range counts {
		total += c
	}
	if q.Limit > 0 && total > q.Limit {
		total = q.Limit
	}
	return total, nil
}

// scatterThreshold is the combined record count above which a
// scatter-gather read pays for per-shard goroutines; smaller stores scan
// sequentially.
const scatterThreshold = 8192

// scatter runs fn(i) for every shard — in parallel when the store is
// large enough for the goroutine fan-out to pay.
func (s *Store) scatter(fn func(i int)) {
	if s.Len() < scatterThreshold {
		for i := range s.shards {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// mergeSorted merges per-shard sorted record slices into one sorted slice
// using a binary min-heap of shard cursors.
func mergeSorted(parts [][]Record) []Record {
	nonEmpty, total := 0, 0
	last := -1
	for i, p := range parts {
		if len(p) > 0 {
			nonEmpty++
			total += len(p)
			last = i
		}
	}
	if nonEmpty == 0 {
		return nil
	}
	if nonEmpty == 1 {
		return parts[last]
	}

	type cursor struct {
		part, idx int
	}
	heap := make([]cursor, 0, nonEmpty)
	less := func(a, b cursor) bool {
		return parts[a.part][a.idx].Before(parts[b.part][b.idx])
	}
	push := func(c cursor) {
		heap = append(heap, c)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if !less(heap[i], heap[parent]) {
				break
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	fix := func() { // sift the root down after its cursor advanced
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && less(heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	for i, p := range parts {
		if len(p) > 0 {
			push(cursor{part: i})
		}
	}
	out := make([]Record, 0, total)
	for len(heap) > 0 {
		c := heap[0]
		out = append(out, parts[c.part][c.idx])
		if c.idx+1 < len(parts[c.part]) {
			heap[0].idx++
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		fix()
	}
	return out
}

// Len reports the number of stored records across all shards.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.len()
	}
	return n
}

// Appended reports the total number of records ever appended (a monotone
// counter, unlike Len, which a clear lowers).
func (s *Store) Appended() uint64 {
	var n uint64
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.appended
		sh.mu.RUnlock()
	}
	return n
}

// Clear removes all records and returns how many were dropped. Recipes
// clear the store between test steps so assertions evaluate only the
// current step's observations.
func (s *Store) Clear() int {
	n, _ := s.ClearMatching("*")
	return n
}

// ClearMatching removes the records whose request ID matches idPattern
// and returns how many were dropped. Campaigns reclaim a finished run's
// namespaced records ("camp-<runID>-*") without disturbing concurrent
// runs sharing the store; an empty pattern clears everything. Only the
// owning shard is touched when the pattern pins a namespace, as campaign
// cleanup's always does. With persistence on, a clear that matches
// records is journalled as a tombstone first, and a shard whose cleared
// records reach the CompactAfter trigger compacts its log.
func (s *Store) ClearMatching(idPattern string) (int, error) {
	pat, err := pattern.Compile(idPattern)
	if err != nil {
		return 0, fmt.Errorf("eventlog: bad clear pattern: %w", err)
	}
	lo, hi := 0, len(s.shards)
	if si := s.shardOfPattern(pat); si >= 0 {
		lo, hi = si, si+1
	}
	total := 0
	for _, sh := range s.shards[lo:hi] {
		n, err := s.clearShard(sh, idPattern, pat)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// clearShard clears one shard under its gate, so no append lands between
// finding the first match and the clear: a clear that matches nothing
// leaves memory and log as they are, and replay's result with them.
func (s *Store) clearShard(sh *shard, idPattern string, pat pattern.Pattern) (int, error) {
	sh.gate.Lock()
	defer sh.gate.Unlock()
	first := sh.firstMatch(pat)
	if first < 0 {
		return 0, nil
	}
	if sh.wal != nil {
		if err := sh.wal.appendClear(idPattern); err != nil {
			return 0, err
		}
	}
	n := sh.clearMatching(pat, first)
	if sh.wal != nil && s.opts.CompactAfter >= 0 {
		if sh.wal.addGarbage(n) >= max(s.opts.CompactAfter, len(sh.recs)) {
			_ = sh.compact() // the tombstone is durable; a failed compaction retries on the next clear
		}
	}
	return n, nil
}

// Compact rewrites every shard's write-ahead log down to its live
// records, reclaiming the space of cleared namespaces immediately instead
// of waiting for the CompactAfter threshold. Volatile stores have nothing
// to compact.
func (s *Store) Compact() error {
	for si := range s.shards {
		if err := s.CompactShard(si); err != nil {
			return err
		}
	}
	return nil
}

// CompactShard compacts one shard's write-ahead log.
func (s *Store) CompactShard(si int) error {
	if si < 0 || si >= len(s.shards) {
		return nil
	}
	sh := s.shards[si]
	sh.gate.Lock()
	defer sh.gate.Unlock()
	return sh.compact()
}

// ShardStats returns one entry per shard with its record, append, and
// write-ahead-log counters.
func (s *Store) ShardStats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		st := ShardStats{Shard: i, Records: len(sh.recs), Appended: sh.appended}
		sh.mu.RUnlock()
		if sh.wal != nil {
			sh.wal.stats(&st)
		}
		out[i] = st
	}
	return out
}

// Sync forces dirty write-ahead segments to stable storage (the
// FsyncInterval loop does this continuously).
func (s *Store) Sync() error {
	for _, sh := range s.shards {
		if sh.wal != nil {
			if err := sh.wal.sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close stops the background sync loop and seals the write-ahead logs.
// The in-memory store remains readable; further appends fail.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.stopSync != nil {
		close(s.stopSync)
		<-s.syncDone
	}
	var first error
	for _, sh := range s.shards {
		sh.gate.Lock()
		if sh.wal != nil {
			if err := sh.wal.close(); err != nil && first == nil {
				first = err
			}
		}
		sh.gate.Unlock()
	}
	return first
}

func (s *Store) closeWALs() {
	for _, sh := range s.shards {
		if sh.wal != nil {
			_ = sh.wal.close()
		}
	}
}

// syncLoop fsyncs dirty segments on the configured cadence.
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = s.Sync()
		case <-s.stopSync:
			return
		}
	}
}
