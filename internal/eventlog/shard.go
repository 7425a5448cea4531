package eventlog

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/pattern"
)

// StoreOptions configures a ShardedStore. The zero value is a pure
// in-memory single shard — behaviourally identical to NewStore.
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

	// CompactAfter triggers a shard's WAL compaction once that many
	// records have been cleared from it since the last compaction
	// (default 8192; negative disables automatic compaction). Compaction
	// rewrites the live set into a single snapshot segment, reclaiming
	// the space of cleared campaign namespaces.
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
}

// ShardedStore partitions the event log across N independent Stores, each
// with its own lock, posting-list indexes, subscriber fan-out, and
// (optionally) write-ahead log — so concurrent appends and selects stop
// contending on one mutex. Records route to shards by a hash of their
// request-ID namespace; reads scatter across the shards and merge the
// time-sorted streams, so Select/Count/Subscribe behave exactly like a
// single Store's. It implements the same Sink/Source surface as Store and
// is safe for concurrent use.
type ShardedStore struct {
	shards []*Store
	wals   []*wal // nil entries when DataDir is unset

	// gates serialize the WAL-append + memory-append pair per shard so
	// replay order always equals memory order and compaction snapshots
	// are exact.
	gates   []sync.Mutex
	garbage []atomic.Int64 // records cleared per shard since last compaction

	seq    atomic.Uint64 // global sequence numbers, unique across shards
	opts   StoreOptions
	closed atomic.Bool

	stopSync chan struct{}
	syncDone chan struct{}
}

var (
	_ Sink   = (*ShardedStore)(nil)
	_ Source = (*ShardedStore)(nil)
)

// NewShardedStore creates a store partitioned per opts, replaying any
// existing write-ahead logs under opts.DataDir.
func NewShardedStore(opts StoreOptions) (*ShardedStore, error) {
	o := opts.withDefaults()
	ss := &ShardedStore{
		shards:  make([]*Store, o.Shards),
		wals:    make([]*wal, o.Shards),
		gates:   make([]sync.Mutex, o.Shards),
		garbage: make([]atomic.Int64, o.Shards),
		opts:    o,
	}
	for i := range ss.shards {
		ss.shards[i] = NewStore()
	}
	if o.DataDir != "" {
		if err := checkShardCount(o.DataDir, o.Shards); err != nil {
			return nil, err
		}
		for i := range ss.shards {
			w, recs, err := openWAL(filepath.Join(o.DataDir, fmt.Sprintf("shard-%d", i)), o.Fsync, o.MaxSegmentBytes)
			if err != nil {
				ss.closeWALs()
				return nil, err
			}
			ss.wals[i] = w
			ss.shards[i].logStamped(recs)
			for _, r := range recs {
				if r.Seq > ss.seq.Load() {
					ss.seq.Store(r.Seq)
				}
			}
		}
		if o.Fsync == FsyncInterval {
			ss.stopSync = make(chan struct{})
			ss.syncDone = make(chan struct{})
			go ss.syncLoop()
		}
	}
	return ss, nil
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
func (ss *ShardedStore) NumShards() int { return len(ss.shards) }

// Durability reports the store's WAL configuration — fsync policy,
// background sync cadence, and data directory (empty for volatile
// stores). GET /v1/info exposes it to remote operators.
func (ss *ShardedStore) Durability() (FsyncPolicy, time.Duration, string) {
	return ss.opts.Fsync, ss.opts.FsyncInterval, ss.opts.DataDir
}

// Replayed reports how many records were recovered from the write-ahead
// logs when the store was opened.
func (ss *ShardedStore) Replayed() int {
	n := 0
	for _, w := range ss.wals {
		if w != nil {
			_, _, r, _ := w.stats()
			n += r
		}
	}
	return n
}

// namespaceOf extracts a request ID's routing namespace: the leading
// segment before the first '-', except campaign IDs ("camp-<runID>-...")
// which keep the run ID so each campaign run owns a namespace. IDs
// without a '-' (or truncated campaign IDs) are their own namespace.
func namespaceOf(id string) string {
	const camp = "camp-"
	if strings.HasPrefix(id, camp) {
		if i := strings.IndexByte(id[len(camp):], '-'); i >= 0 {
			return id[:len(camp)+i]
		}
		return id
	}
	if i := strings.IndexByte(id, '-'); i >= 0 {
		return id[:i]
	}
	return id
}

// patternNamespace returns the one namespace every ID matching pat lies
// in, or ok=false when the pattern can span namespaces. A pattern pins a
// namespace when its literal prefix extends past the namespace boundary
// (e.g. "camp-run1-*" or "test-*"): all matching IDs then share the
// prefix's namespace. The shard router and the store's namespace posting
// lists both rely on this rule.
func patternNamespace(pat pattern.Pattern) (ns string, ok bool) {
	if pat.MatchAll() {
		return "", false
	}
	prefix := pat.LiteralPrefix()
	ns = namespaceOf(prefix)
	return ns, len(ns) < len(prefix)
}

// shardOfNamespace hashes a namespace to one of shards partitions.
func shardOfNamespace(ns string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(ns))
	return int(h.Sum32() % uint32(shards))
}

// shardFor routes a request ID to its shard.
func (ss *ShardedStore) shardFor(id string) int {
	return shardOf(id, len(ss.shards))
}

// shardOfPattern returns the one shard every ID matching pat can live on,
// or -1 when the pattern spans namespaces and the query must scatter.
func (ss *ShardedStore) shardOfPattern(pat pattern.Pattern) int {
	if len(ss.shards) == 1 {
		return 0
	}
	ns, ok := patternNamespace(pat)
	if !ok {
		return -1
	}
	return shardOfNamespace(ns, len(ss.shards))
}

// Log appends records: stamps global sequence numbers and timestamps,
// groups the batch by shard, and for each shard writes the group to the
// write-ahead log (acknowledged only once the kernel has it) before
// appending it to that shard's in-memory index and fanning it out to
// subscribers.
func (ss *ShardedStore) Log(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	if ss.closed.Load() {
		return fmt.Errorf("eventlog: store closed")
	}
	now := time.Now()
	if len(ss.shards) == 1 {
		batch := make([]Record, len(recs))
		for i, r := range recs {
			r.Seq = ss.seq.Add(1)
			if r.Timestamp.IsZero() {
				r.Timestamp = now
			}
			batch[i] = r
		}
		return ss.appendShard(0, batch)
	}

	groups := make(map[int][]Record, 4)
	for _, r := range recs {
		r.Seq = ss.seq.Add(1)
		if r.Timestamp.IsZero() {
			r.Timestamp = now
		}
		si := ss.shardFor(r.RequestID)
		groups[si] = append(groups[si], r)
	}
	for si, g := range groups {
		if err := ss.appendShard(si, g); err != nil {
			return err
		}
	}
	return nil
}

// LogShard appends a batch a shard-aware client pre-routed to shard si
// (POST /v1/records?shard=). Routing is re-verified record by record —
// placement determines which lock a namespaced query takes, so a stale or
// buggy client hint must not strand records on the wrong shard. Verified
// prefixes append as one batch; stragglers fall back to ordinary routing.
func (ss *ShardedStore) LogShard(si int, recs ...Record) error {
	if si < 0 || si >= len(ss.shards) {
		return ss.Log(recs...)
	}
	match := len(recs)
	for i, r := range recs {
		if ss.shardFor(r.RequestID) != si {
			match = i
			break
		}
	}
	if match == 0 {
		return ss.Log(recs...)
	}
	if ss.closed.Load() {
		return fmt.Errorf("eventlog: store closed")
	}
	now := time.Now()
	batch := make([]Record, match)
	for i, r := range recs[:match] {
		r.Seq = ss.seq.Add(1)
		if r.Timestamp.IsZero() {
			r.Timestamp = now
		}
		batch[i] = r
	}
	if err := ss.appendShard(si, batch); err != nil {
		return err
	}
	if match < len(recs) {
		return ss.Log(recs[match:]...)
	}
	return nil
}

// appendShard writes one shard's stamped batch: WAL first, memory second,
// under the shard's append gate.
func (ss *ShardedStore) appendShard(si int, batch []Record) error {
	ss.gates[si].Lock()
	defer ss.gates[si].Unlock()
	if w := ss.wals[si]; w != nil {
		if err := w.append(batch); err != nil {
			return err
		}
	}
	ss.shards[si].logStamped(batch)
	return nil
}

// Select returns the records matching q in (timestamp, seq) order,
// scatter-gathering across shards and merging their sorted streams. A
// query whose IDPattern pins one namespace reads only that namespace's
// shard.
func (ss *ShardedStore) Select(q Query) ([]Record, error) {
	pat, err := pattern.Compile(q.IDPattern)
	if err != nil {
		return nil, fmt.Errorf("eventlog: bad query pattern: %w", err)
	}
	if si := ss.shardOfPattern(pat); si >= 0 {
		return ss.shards[si].selectMatching(q, pat), nil
	}
	parts := make([][]Record, len(ss.shards))
	ss.scatter(func(i int) { parts[i] = ss.shards[i].selectMatching(q, pat) })
	merged := mergeSorted(parts)
	if q.Limit > 0 && len(merged) > q.Limit {
		merged = merged[:q.Limit]
	}
	return merged, nil
}

// Count reports how many records match q without materializing them.
func (ss *ShardedStore) Count(q Query) (int, error) {
	pat, err := pattern.Compile(q.IDPattern)
	if err != nil {
		return 0, fmt.Errorf("eventlog: bad query pattern: %w", err)
	}
	if si := ss.shardOfPattern(pat); si >= 0 {
		return ss.shards[si].countMatching(q, pat), nil
	}
	counts := make([]int, len(ss.shards))
	ss.scatter(func(i int) { counts[i] = ss.shards[i].countMatching(q, pat) })
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
func (ss *ShardedStore) scatter(fn func(i int)) {
	if len(ss.shards) == 1 {
		fn(0)
		return
	}
	total := 0
	for _, sh := range ss.shards {
		total += sh.Len()
	}
	if total < scatterThreshold {
		for i := range ss.shards {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := range ss.shards {
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
func (ss *ShardedStore) Len() int {
	n := 0
	for _, sh := range ss.shards {
		n += sh.Len()
	}
	return n
}

// Appended reports the total records ever appended across all shards.
func (ss *ShardedStore) Appended() uint64 {
	var n uint64
	for _, sh := range ss.shards {
		n += sh.Appended()
	}
	return n
}

// Clear removes all records from every shard and returns how many were
// dropped. With persistence enabled the clear is journalled and the usual
// compaction accounting applies.
func (ss *ShardedStore) Clear() int {
	n := 0
	for si := range ss.shards {
		ss.gates[si].Lock()
		if w := ss.wals[si]; w != nil {
			_ = w.appendClear("*")
		}
		d := ss.shards[si].Clear()
		ss.gates[si].Unlock()
		n += d
		ss.noteGarbage(si, d)
	}
	return n
}

// ClearMatching removes the records whose request ID matches idPattern,
// touching only the owning shard when the pattern pins a namespace
// (campaign cleanup's "camp-<runID>-*" always does). Cleared space in a
// persistent store is reclaimed by compaction once a shard accumulates
// CompactAfter cleared records.
func (ss *ShardedStore) ClearMatching(idPattern string) (int, error) {
	pat, err := pattern.Compile(idPattern)
	if err != nil {
		return 0, fmt.Errorf("eventlog: bad clear pattern: %w", err)
	}
	targets := make([]int, 0, len(ss.shards))
	if si := ss.shardOfPattern(pat); si >= 0 {
		targets = append(targets, si)
	} else {
		for i := range ss.shards {
			targets = append(targets, i)
		}
	}
	total := 0
	for _, si := range targets {
		ss.gates[si].Lock()
		if w := ss.wals[si]; w != nil {
			if werr := w.appendClear(idPattern); werr != nil {
				ss.gates[si].Unlock()
				return total, werr
			}
		}
		d := ss.shards[si].clearMatching(pat)
		ss.gates[si].Unlock()
		total += d
		ss.noteGarbage(si, d)
	}
	return total, nil
}

// noteGarbage accounts cleared records against the shard's compaction
// budget and compacts when the threshold trips.
func (ss *ShardedStore) noteGarbage(si, dropped int) {
	if dropped == 0 || ss.wals[si] == nil || ss.opts.CompactAfter < 0 {
		return
	}
	if ss.garbage[si].Add(int64(dropped)) >= int64(ss.opts.CompactAfter) {
		_ = ss.CompactShard(si)
	}
}

// Compact rewrites every shard's write-ahead log down to its live
// records, reclaiming the space of cleared namespaces immediately instead
// of waiting for the CompactAfter threshold.
func (ss *ShardedStore) Compact() error {
	for si := range ss.shards {
		if err := ss.CompactShard(si); err != nil {
			return err
		}
	}
	return nil
}

// CompactShard compacts one shard's write-ahead log. The snapshot is the
// shard's own record slice, written in append order under its read lock —
// no copy — so replay rebuilds exactly the in-memory state, order and all.
// The append gate keeps every writer out meanwhile.
func (ss *ShardedStore) CompactShard(si int) error {
	if si < 0 || si >= len(ss.shards) || ss.wals[si] == nil {
		return nil
	}
	ss.gates[si].Lock()
	defer ss.gates[si].Unlock()
	sh := ss.shards[si]
	sh.mu.RLock()
	err := ss.wals[si].compact(sh.recs)
	sh.mu.RUnlock()
	if err != nil {
		return err
	}
	ss.garbage[si].Store(0)
	return nil
}

// Subscribe opens a live feed of records whose request ID matches
// idPattern, merged across shards. See Store.Subscribe.
func (ss *ShardedStore) Subscribe(idPattern string) (Subscriber, error) {
	return ss.SubscribeBuffer(idPattern, DefaultSubscriberBuffer)
}

// SubscribeBuffer is Subscribe with an explicit per-shard buffer
// capacity. A pattern that pins one namespace taps only that shard's
// fan-out; otherwise each shard feeds a fan-in goroutine and the merged
// feed preserves per-shard order (concurrent shards interleave, exactly
// as concurrent appends do).
func (ss *ShardedStore) SubscribeBuffer(idPattern string, buffer int) (Subscriber, error) {
	pat, err := pattern.Compile(idPattern)
	if err != nil {
		return nil, fmt.Errorf("eventlog: bad subscribe pattern: %w", err)
	}
	if si := ss.shardOfPattern(pat); si >= 0 {
		return ss.shards[si].SubscribeBuffer(idPattern, buffer)
	}
	if buffer < 1 {
		buffer = 1
	}
	m := &mergedSub{ch: make(chan Record, buffer)}
	m.subs = make([]Subscriber, len(ss.shards))
	for i, sh := range ss.shards {
		sub, serr := sh.SubscribeBuffer(idPattern, buffer)
		if serr != nil {
			for _, open := range m.subs[:i] {
				open.Close()
			}
			return nil, serr
		}
		m.subs[i] = sub
	}
	m.wg.Add(len(m.subs))
	for _, sub := range m.subs {
		go func(sub Subscriber) {
			defer m.wg.Done()
			for rec := range sub.C() {
				m.ch <- rec
			}
		}(sub)
	}
	go func() {
		m.wg.Wait()
		close(m.ch)
	}()
	return m, nil
}

// mergedSub fans N per-shard subscriptions into one channel.
type mergedSub struct {
	subs []Subscriber
	ch   chan Record
	wg   sync.WaitGroup
	once sync.Once
}

func (m *mergedSub) C() <-chan Record { return m.ch }

func (m *mergedSub) Dropped() int64 {
	var n int64
	for _, sub := range m.subs {
		n += sub.Dropped()
	}
	return n
}

func (m *mergedSub) Close() {
	m.once.Do(func() {
		for _, sub := range m.subs {
			sub.Close()
		}
		// The fan-in goroutines drain the closed shard channels and then
		// close m.ch; no need to wait here.
	})
}

// Subscribers reports the number of open per-shard subscriptions.
func (ss *ShardedStore) Subscribers() int {
	n := 0
	for _, sh := range ss.shards {
		n += sh.Subscribers()
	}
	return n
}

// Published reports the total records delivered to subscribers.
func (ss *ShardedStore) Published() int64 {
	var n int64
	for _, sh := range ss.shards {
		n += sh.Published()
	}
	return n
}

// SubscriberDropped reports the total records dropped on full subscriber
// buffers.
func (ss *ShardedStore) SubscriberDropped() int64 {
	var n int64
	for _, sh := range ss.shards {
		n += sh.SubscriberDropped()
	}
	return n
}

// ShardStats returns one entry per shard with its record, append, and
// write-ahead-log counters.
func (ss *ShardedStore) ShardStats() []ShardStats {
	out := make([]ShardStats, len(ss.shards))
	for i, sh := range ss.shards {
		st := ShardStats{Shard: i, Records: sh.Len(), Appended: sh.Appended()}
		if w := ss.wals[i]; w != nil {
			st.WALSegments, st.WALBytes, st.WALReplayed, st.WALCompactions = w.stats()
		}
		out[i] = st
	}
	return out
}

// Sync forces dirty write-ahead segments to stable storage (the
// FsyncInterval loop does this continuously).
func (ss *ShardedStore) Sync() error {
	for _, w := range ss.wals {
		if w != nil {
			if err := w.sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close stops the background sync loop and seals the write-ahead logs.
// The in-memory store remains readable; further appends fail.
func (ss *ShardedStore) Close() error {
	if !ss.closed.CompareAndSwap(false, true) {
		return nil
	}
	if ss.stopSync != nil {
		close(ss.stopSync)
		<-ss.syncDone
	}
	var first error
	for si := range ss.shards {
		ss.gates[si].Lock()
		if w := ss.wals[si]; w != nil {
			if err := w.close(); err != nil && first == nil {
				first = err
			}
		}
		ss.gates[si].Unlock()
	}
	return first
}

func (ss *ShardedStore) closeWALs() {
	for _, w := range ss.wals {
		if w != nil {
			_ = w.close()
		}
	}
}

// syncLoop fsyncs dirty segments on the configured cadence.
func (ss *ShardedStore) syncLoop() {
	defer close(ss.syncDone)
	t := time.NewTicker(ss.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = ss.Sync()
		case <-ss.stopSync:
			return
		}
	}
}

// WriteJSONL streams every stored record to w as JSON Lines in
// (timestamp, seq) order. See Store.WriteJSONL.
func (ss *ShardedStore) WriteJSONL(w io.Writer) (int, error) { return writeJSONL(w, ss) }

// ReadJSONL appends records decoded from r (one JSON record per line),
// reassigning sequence numbers. See Store.ReadJSONL.
func (ss *ShardedStore) ReadJSONL(r io.Reader) (int, error) { return readJSONL(r, ss) }

// SaveFile writes the store's records to path as JSON Lines, atomically.
func (ss *ShardedStore) SaveFile(path string) (int, error) { return saveFile(path, ss) }

// LoadFile appends records from a JSON Lines file; a missing file loads
// zero records.
func (ss *ShardedStore) LoadFile(path string) (int, error) { return loadFile(path, ss) }
