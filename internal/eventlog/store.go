package eventlog

import (
	"fmt"
	"sort"
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

// storeKey identifies one (src, dst) edge's posting list.
type storeKey struct {
	src, dst string
}

// Store is the in-memory event store. It is safe for concurrent use.
//
// Appended records are indexed by source, destination, (src, dst) edge and
// request-ID namespace — posting lists of record positions in append
// order — so the checker's narrow queries (GetRequests/GetReplies on one
// edge, a whole campaign run) visit only those records instead of
// scanning the whole store, and clearing a run touches only the records
// appended since the run's first one. The store also tracks how much of
// it is in (timestamp, seq) order; while all of it is (the common
// single-writer case), posting lists are already in output order and
// Select skips the output sort entirely.
type Store struct {
	mu       sync.RWMutex
	recs     []Record
	seq      uint64
	appended uint64

	// sorted is the length of the longest prefix of recs in (timestamp,
	// seq) order; the store is ordered while sorted == len(recs).
	sorted int

	// Posting lists: record positions in append order. byNS is keyed by
	// namespaceOf(RequestID), the shard router's namespace.
	byEdge map[storeKey][]int32
	bySrc  map[string][]int32
	byDst  map[string][]int32
	byNS   map[string][]int32

	// linearScan disables the posting-list index (ablation/benchmark
	// baseline; see UseLinearScan).
	linearScan bool

	// Live subscriptions (see subscribe.go). subCount mirrors len(subs) so
	// the append path can skip publishing without touching subMu.
	subMu      sync.RWMutex
	subs       map[uint64]*Subscription
	subSeq     uint64
	subCount   atomic.Int64
	subDropped atomic.Int64
	published  atomic.Int64
}

var (
	_ Sink   = (*Store)(nil)
	_ Source = (*Store)(nil)
)

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		byEdge: make(map[storeKey][]int32),
		bySrc:  make(map[string][]int32),
		byDst:  make(map[string][]int32),
		byNS:   make(map[string][]int32),
	}
}

// UseLinearScan toggles the pre-index ablation: Select scans and sorts
// every stored record, as the store did before posting lists existed.
// Results are identical; only the work per query differs. Used as the
// before/after baseline in benchmarks.
func (s *Store) UseLinearScan(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.linearScan = on
}

// Log appends records, assigning sequence numbers. Records with a zero
// timestamp are stamped with the current time. Appended records also fan
// out to live subscriptions (after the store lock is released, with
// non-blocking sends, so subscribers never slow the append path down).
func (s *Store) Log(recs ...Record) error {
	now := time.Now()
	live := s.subCount.Load() > 0
	var stamped []Record
	if live {
		stamped = make([]Record, 0, len(recs))
	}
	s.mu.Lock()
	for _, r := range recs {
		s.seq++
		r.Seq = s.seq
		if r.Timestamp.IsZero() {
			r.Timestamp = now
		}
		s.appendLocked(r)
		if live {
			stamped = append(stamped, r)
		}
	}
	s.mu.Unlock()
	if live {
		s.publish(stamped)
	}
	return nil
}

// logStamped appends records that already carry final sequence numbers
// and timestamps — the ShardedStore stamps globally unique sequences
// before routing a batch to its shard (and WAL replay restores the
// original ones), so this path must not reassign them.
func (s *Store) logStamped(recs []Record) {
	if len(recs) == 0 {
		return
	}
	live := s.subCount.Load() > 0
	s.mu.Lock()
	for _, r := range recs {
		if r.Seq > s.seq {
			s.seq = r.Seq
		}
		s.appendLocked(r)
	}
	s.mu.Unlock()
	if live {
		s.publish(recs)
	}
}

// appendLocked stores one stamped record and indexes it. Caller holds
// s.mu and has assigned Seq and Timestamp.
func (s *Store) appendLocked(r Record) {
	s.appended++
	pos := len(s.recs)
	s.recs = append(s.recs, r)
	s.index(&s.recs[pos], int32(pos))
	s.extendSorted()
}

// extendSorted grows the sorted prefix over the records that follow it in
// order. It stops at the first record out of order, so after an append it
// costs O(1) however unordered the store is.
func (s *Store) extendSorted() {
	for s.sorted < len(s.recs) && (s.sorted == 0 || !s.recs[s.sorted].Before(s.recs[s.sorted-1])) {
		s.sorted++
	}
}

// index appends pos, the position of r, to r's posting lists.
func (s *Store) index(r *Record, pos int32) {
	k := storeKey{r.Src, r.Dst}
	s.byEdge[k] = append(s.byEdge[k], pos)
	s.bySrc[r.Src] = append(s.bySrc[r.Src], pos)
	s.byDst[r.Dst] = append(s.byDst[r.Dst], pos)
	ns := namespaceOf(r.RequestID)
	s.byNS[ns] = append(s.byNS[ns], pos)
}

// cut shortens r's posting lists to their positions below first.
func (s *Store) cut(r *Record, first int32) {
	cutPosting(s.byEdge, storeKey{r.Src, r.Dst}, first)
	cutPosting(s.bySrc, r.Src, first)
	cutPosting(s.byDst, r.Dst, first)
	cutPosting(s.byNS, namespaceOf(r.RequestID), first)
}

// dropEmpty deletes those of r's posting lists that hold no position.
func (s *Store) dropEmpty(r *Record) {
	dropEmptyPosting(s.byEdge, storeKey{r.Src, r.Dst})
	dropEmptyPosting(s.bySrc, r.Src)
	dropEmptyPosting(s.byDst, r.Dst)
	dropEmptyPosting(s.byNS, namespaceOf(r.RequestID))
}

// cutPosting shortens k's posting list to its positions below first, by
// binary search; a list that ends below first is left alone in O(1).
func cutPosting[K comparable](lists map[K][]int32, k K, first int32) {
	l := lists[k]
	if len(l) == 0 || l[len(l)-1] < first {
		return
	}
	lists[k] = l[:sort.Search(len(l), func(i int) bool { return l[i] >= first })]
}

// dropEmptyPosting deletes k if its posting list is empty.
func dropEmptyPosting[K comparable](lists map[K][]int32, k K) {
	if l, ok := lists[k]; ok && len(l) == 0 {
		delete(lists, k)
	}
}

// Appended reports the total number of records ever appended (a monotone
// counter, unlike Len, which Clear resets).
func (s *Store) Appended() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.appended
}

// NumShards reports the number of partitions (always 1 for a plain
// Store; see ShardedStore).
func (s *Store) NumShards() int { return 1 }

// ShardStats returns the single-shard view of the store's counters, so
// shard-labelled metrics read identically against a Store and a
// ShardedStore.
func (s *Store) ShardStats() []ShardStats {
	return []ShardStats{{Shard: 0, Records: s.Len(), Appended: s.Appended()}}
}

// Len reports the number of stored records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Clear removes all records and returns how many were dropped. Recipes
// clear the store between test steps so assertions evaluate only the
// current step's observations.
func (s *Store) Clear() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.recs)
	s.recs = nil
	s.sorted = 0
	s.byEdge = make(map[storeKey][]int32)
	s.bySrc = make(map[string][]int32)
	s.byDst = make(map[string][]int32)
	s.byNS = make(map[string][]int32)
	return n
}

// ClearMatching removes the records whose request ID matches idPattern
// and returns how many were dropped. Campaigns reclaim a finished run's
// namespaced records ("camp-<runID>-*") without disturbing concurrent
// runs sharing the store; an empty pattern clears everything.
func (s *Store) ClearMatching(idPattern string) (int, error) {
	pat, err := pattern.Compile(idPattern)
	if err != nil {
		return 0, fmt.Errorf("eventlog: bad clear pattern: %w", err)
	}
	return s.clearMatching(pat), nil
}

// clearMatching is ClearMatching with the pattern already compiled (the
// sharded store compiles it once for all shards).
func (s *Store) clearMatching(pat pattern.Pattern) int {
	if pat.MatchAll() {
		return s.Clear()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.firstMatch(pat)
	if first < 0 {
		return 0
	}

	// Records before first neither move nor change position, so only the
	// suffix is touched. Every posting list that reaches into the suffix
	// belongs to one of its records: cut those back to first, partition
	// the suffix stably (survivors slide down, dropped records collect at
	// the tail), re-index the survivors at their new positions, and drop
	// the lists only dropped records kept alive.
	recs := s.recs
	kept := first
	for i := first; i < len(recs); i++ {
		s.cut(&recs[i], int32(first))
		if pat.Match(recs[i].RequestID) {
			continue
		}
		if kept != i {
			recs[kept], recs[i] = recs[i], recs[kept]
		}
		kept++
	}
	for i := first; i < kept; i++ {
		s.index(&recs[i], int32(i))
	}
	for i := kept; i < len(recs); i++ {
		s.dropEmpty(&recs[i])
	}
	clear(recs[kept:]) // release the dropped records' strings
	s.recs = recs[:kept]
	s.sorted = min(s.sorted, first)
	s.extendSorted()
	return len(recs) - kept
}

// firstMatch returns the lowest position whose request ID matches pat, or
// -1. A pattern pinned to one namespace reads only that namespace's
// posting list. Caller holds s.mu.
func (s *Store) firstMatch(pat pattern.Pattern) int {
	if ns, ok := patternNamespace(pat); ok {
		for _, pos := range s.byNS[ns] {
			if pat.Match(s.recs[pos].RequestID) {
				return int(pos)
			}
		}
		return -1
	}
	for i := range s.recs {
		if pat.Match(s.recs[i].RequestID) {
			return i
		}
	}
	return -1
}

// Select returns the records matching q in (timestamp, seq) order.
func (s *Store) Select(q Query) ([]Record, error) {
	pat, err := pattern.Compile(q.IDPattern)
	if err != nil {
		return nil, fmt.Errorf("eventlog: bad query pattern: %w", err)
	}
	return s.selectMatching(q, pat), nil
}

// selectMatching is Select with q.IDPattern already compiled.
func (s *Store) selectMatching(q Query, pat pattern.Pattern) []Record {
	s.mu.RLock()
	ordered := s.sorted == len(s.recs)
	var matched []Record
	if list, ok := s.postings(q, pat); ok {
		// Filter positions through pointers first, then copy the matching
		// records once at exactly the right size — records are wide enough
		// that copying candidates (or regrowing the result) dominates an
		// edge query's cost.
		hits := make([]int32, 0, len(list))
		for _, pos := range list {
			r := &s.recs[pos]
			if ordered && !q.Until.IsZero() && !r.Timestamp.Before(q.Until) {
				// Posting lists are in timestamp order while the store is
				// ordered: nothing past the Until bound can match.
				break
			}
			if matches(r, q, pat) {
				hits = append(hits, pos)
				if ordered && q.Limit > 0 && len(hits) == q.Limit {
					// Already in output order: the limit is final.
					break
				}
			}
		}
		matched = make([]Record, len(hits))
		for i, pos := range hits {
			matched[i] = s.recs[pos]
		}
	} else {
		matched = make([]Record, 0, 64)
		for _, r := range s.recs {
			if matches(&r, q, pat) {
				matched = append(matched, r)
			}
		}
	}
	s.mu.RUnlock()

	if !ordered {
		sort.Slice(matched, func(i, j int) bool { return matched[i].Before(matched[j]) })
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	return matched
}

// Count reports how many records match q without copying them out — the
// cheap path for count-only assertions and campaign bookkeeping.
func (s *Store) Count(q Query) (int, error) {
	pat, err := pattern.Compile(q.IDPattern)
	if err != nil {
		return 0, fmt.Errorf("eventlog: bad query pattern: %w", err)
	}
	return s.countMatching(q, pat), nil
}

// countMatching is Count with q.IDPattern already compiled.
func (s *Store) countMatching(q Query, pat pattern.Pattern) int {
	n := 0
	s.mu.RLock()
	if list, ok := s.postings(q, pat); ok {
		ordered := s.sorted == len(s.recs)
		for _, pos := range list {
			r := &s.recs[pos]
			if ordered && !q.Until.IsZero() && !r.Timestamp.Before(q.Until) {
				break
			}
			if matches(r, q, pat) {
				n++
				if q.Limit > 0 && n == q.Limit {
					break
				}
			}
		}
	} else {
		for i := range s.recs {
			if matches(&s.recs[i], q, pat) {
				n++
				if q.Limit > 0 && n == q.Limit {
					break
				}
			}
		}
	}
	s.mu.RUnlock()
	return n
}

// Counter is the optional count-only surface of a Source. Store,
// ShardedStore, and Client all implement it.
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

// postings returns the narrowest posting list serving q — its edge,
// source or destination list, or the namespace list of an ID pattern
// pinned to one namespace (pat is q.IDPattern compiled) — or ok=false when
// none applies (or the index is disabled) and a full scan is required.
// Caller holds at least a read lock.
func (s *Store) postings(q Query, pat pattern.Pattern) (list []int32, ok bool) {
	if s.linearScan {
		return nil, false
	}
	switch {
	case q.Src != "" && q.Dst != "":
		list, ok = s.byEdge[storeKey{q.Src, q.Dst}], true
	case q.Src != "":
		list, ok = s.bySrc[q.Src], true
	case q.Dst != "":
		list, ok = s.byDst[q.Dst], true
	}
	if ns, pinned := patternNamespace(pat); pinned {
		if l := s.byNS[ns]; !ok || len(l) < len(list) {
			return l, true
		}
	}
	return list, ok
}

func matches(r *Record, q Query, pat pattern.Pattern) bool {
	if q.Src != "" && r.Src != q.Src {
		return false
	}
	if q.Dst != "" && r.Dst != q.Dst {
		return false
	}
	if q.Kind != "" && r.Kind != q.Kind {
		return false
	}
	if !pat.MatchAll() && !pat.Match(r.RequestID) {
		return false
	}
	if !q.Since.IsZero() && r.Timestamp.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && !r.Timestamp.Before(q.Until) {
		return false
	}
	return true
}
