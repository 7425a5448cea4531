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
// Appended records are indexed by source, destination, and (src, dst) edge
// — posting lists of record positions in append order — so the checker's
// narrow queries (GetRequests/GetReplies on one edge) visit only that
// edge's records instead of scanning the whole store. The store also
// tracks whether appended timestamps are nondecreasing; while they are
// (the common single-writer case), posting lists are already in
// (timestamp, seq) order and Select skips the output sort entirely.
type Store struct {
	mu       sync.RWMutex
	recs     []Record
	seq      uint64
	appended uint64

	// ordered reports whether recs is in (timestamp, seq) order as
	// appended; lastTS is the most recently appended timestamp.
	ordered bool
	lastTS  time.Time

	// Posting lists: record positions in append order.
	byEdge map[storeKey][]int32
	bySrc  map[string][]int32
	byDst  map[string][]int32

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
		ordered: true,
		byEdge:  make(map[storeKey][]int32),
		bySrc:   make(map[string][]int32),
		byDst:   make(map[string][]int32),
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
	pos := int32(len(s.recs))
	s.recs = append(s.recs, r)
	s.byEdge[storeKey{r.Src, r.Dst}] = append(s.byEdge[storeKey{r.Src, r.Dst}], pos)
	s.bySrc[r.Src] = append(s.bySrc[r.Src], pos)
	s.byDst[r.Dst] = append(s.byDst[r.Dst], pos)
	if r.Timestamp.Before(s.lastTS) {
		s.ordered = false
	} else {
		s.lastTS = r.Timestamp
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
	s.ordered = true
	s.lastTS = time.Time{}
	s.byEdge = make(map[storeKey][]int32)
	s.bySrc = make(map[string][]int32)
	s.byDst = make(map[string][]int32)
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
	kept := s.recs[:0]
	for _, r := range s.recs {
		if !pat.Match(r.RequestID) {
			kept = append(kept, r)
		}
	}
	dropped := len(s.recs) - len(kept)
	if dropped == 0 {
		return 0
	}
	s.recs = kept

	// Positions shifted: rebuild the posting lists, in the lists' own
	// memory, and the order flag.
	truncatePostings(s.byEdge)
	truncatePostings(s.bySrc)
	truncatePostings(s.byDst)
	s.ordered = true
	s.lastTS = time.Time{}
	for pos := range s.recs {
		r := &s.recs[pos]
		p := int32(pos)
		s.byEdge[storeKey{r.Src, r.Dst}] = append(s.byEdge[storeKey{r.Src, r.Dst}], p)
		s.bySrc[r.Src] = append(s.bySrc[r.Src], p)
		s.byDst[r.Dst] = append(s.byDst[r.Dst], p)
		if r.Timestamp.Before(s.lastTS) {
			s.ordered = false
		} else {
			s.lastTS = r.Timestamp
		}
	}
	dropEmptyPostings(s.byEdge)
	dropEmptyPostings(s.bySrc)
	dropEmptyPostings(s.byDst)
	return dropped
}

// truncatePostings empties every posting list in place, keeping its
// capacity for the rebuild.
func truncatePostings[K comparable](lists map[K][]int32) {
	for k, l := range lists {
		lists[k] = l[:0]
	}
}

// dropEmptyPostings removes the keys a rebuild left without records.
func dropEmptyPostings[K comparable](lists map[K][]int32) {
	for k, l := range lists {
		if len(l) == 0 {
			delete(lists, k)
		}
	}
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
	ordered := s.ordered
	var matched []Record
	if list, ok := s.postings(q); ok {
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
	if list, ok := s.postings(q); ok {
		for _, pos := range list {
			r := &s.recs[pos]
			if s.ordered && !q.Until.IsZero() && !r.Timestamp.Before(q.Until) {
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

// postings returns the narrowest posting list serving q, or ok=false when
// the query filters on neither endpoint (or the index is disabled) and a
// full scan is required. Caller holds at least a read lock.
func (s *Store) postings(q Query) ([]int32, bool) {
	if s.linearScan {
		return nil, false
	}
	switch {
	case q.Src != "" && q.Dst != "":
		return s.byEdge[storeKey{q.Src, q.Dst}], true
	case q.Src != "":
		return s.bySrc[q.Src], true
	case q.Dst != "":
		return s.byDst[q.Dst], true
	}
	return nil, false
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
