package eventlog

import (
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/pattern"
)

// storeKey identifies one (src, dst) edge's posting list.
type storeKey struct {
	src, dst string
}

// shard is one partition of a Store: its records, the posting lists over
// them, its write-ahead log and the subscriptions its appends feed.
//
// Appended records are indexed by source, destination, (src, dst) edge and
// request-ID namespace — posting lists of record positions in append
// order — so the checker's narrow queries (GetRequests/GetReplies on one
// edge, a whole campaign run) visit only those records instead of
// scanning the whole shard, and clearing a run touches only the records
// appended since the run's first one. The shard also tracks how much of
// it is in (timestamp, seq) order; while all of it is (the common case:
// Log stamps records inside the gate), posting lists are already in output
// order and a select skips the output sort entirely.
type shard struct {
	// gate serializes every change to the shard — append, clear,
	// compaction — so the write-ahead log and memory change in one order,
	// replay order always equals memory order, and a writer holding it may
	// read recs without mu.
	gate sync.Mutex
	wal  *wal // nil for a volatile store

	mu       sync.RWMutex
	recs     []Record
	appended uint64

	// sorted is the length of the longest prefix of recs in (timestamp,
	// seq) order; the shard is ordered while sorted == len(recs).
	sorted int

	// Posting lists: record positions in append order. byNS is keyed by
	// namespaceOf(RequestID), the shard router's namespace.
	byEdge map[storeKey][]int32
	bySrc  map[string][]int32
	byDst  map[string][]int32
	byNS   map[string][]int32

	// linearScan disables the posting-list index (ablation/benchmark
	// baseline; see Store.UseLinearScan).
	linearScan bool

	// Subscriptions this shard's appends feed (see subscribe.go). nsubs
	// mirrors len(subs) so an append can skip publishing without subMu.
	subMu      sync.RWMutex
	subs       []*Subscription
	nsubs      atomic.Int32
	published  atomic.Int64
	subDropped atomic.Int64
}

func newShard() *shard {
	return &shard{
		byEdge: make(map[storeKey][]int32),
		bySrc:  make(map[string][]int32),
		byDst:  make(map[string][]int32),
		byNS:   make(map[string][]int32),
	}
}

// stamp gives r its sequence number and, when it has none, a timestamp.
func stamp(r *Record, seq uint64, now time.Time) {
	r.Seq = seq
	if r.Timestamp.IsZero() {
		r.Timestamp = now
	}
}

// write appends a batch; the caller holds sh.gate. A non-zero base stamps
// record i with seq base+i (and now when it has no timestamp); base 0
// keeps the seqs the records carry. lines, which may be shorter than recs
// or nil, holds the ingest lines records were decoded from (see
// Store.logLines). The batch reaches the write-ahead log, when there is
// one, before memory, and then the subscriptions. Neither copies the batch
// to stamp it: the log stamps each line as it writes it, memory each
// record as it copies it in, with the same base and now.
func (sh *shard) write(recs []Record, lines [][]byte, base uint64, now time.Time) error {
	if sh.wal != nil {
		if err := sh.wal.append(recs, lines, base, now); err != nil {
			return err
		}
	}
	sh.add(recs, base, now)
	return nil
}

// add appends a batch to memory, stamping as write does, and publishes it.
// The caller holds sh.gate (or is replaying into a shard nobody else can
// reach yet), so the appended records stay put for publish after mu is
// released.
func (sh *shard) add(recs []Record, base uint64, now time.Time) {
	sh.mu.Lock()
	start := len(sh.recs)
	for i, r := range recs {
		if base > 0 {
			stamp(&r, base+uint64(i), now)
		}
		sh.appended++
		sh.recs = append(sh.recs, r)
		pos := len(sh.recs) - 1
		sh.index(&sh.recs[pos], int32(pos))
		sh.extendSorted()
	}
	added := sh.recs[start:]
	sh.mu.Unlock()
	sh.publish(added)
}

// extendSorted grows the sorted prefix over the records that follow it in
// order. It stops at the first record out of order, so after an append it
// costs O(1) however unordered the shard is.
func (sh *shard) extendSorted() {
	for sh.sorted < len(sh.recs) && (sh.sorted == 0 || !sh.recs[sh.sorted].Before(sh.recs[sh.sorted-1])) {
		sh.sorted++
	}
}

// index appends pos, the position of r, to r's posting lists.
func (sh *shard) index(r *Record, pos int32) {
	k := storeKey{r.Src, r.Dst}
	sh.byEdge[k] = append(sh.byEdge[k], pos)
	sh.bySrc[r.Src] = append(sh.bySrc[r.Src], pos)
	sh.byDst[r.Dst] = append(sh.byDst[r.Dst], pos)
	ns := namespaceOf(r.RequestID)
	sh.byNS[ns] = append(sh.byNS[ns], pos)
}

// cut shortens r's posting lists to their positions below first.
func (sh *shard) cut(r *Record, first int32) {
	cutPosting(sh.byEdge, storeKey{r.Src, r.Dst}, first)
	cutPosting(sh.bySrc, r.Src, first)
	cutPosting(sh.byDst, r.Dst, first)
	cutPosting(sh.byNS, namespaceOf(r.RequestID), first)
}

// dropEmpty deletes those of r's posting lists that hold no position.
func (sh *shard) dropEmpty(r *Record) {
	dropEmptyPosting(sh.byEdge, storeKey{r.Src, r.Dst})
	dropEmptyPosting(sh.bySrc, r.Src)
	dropEmptyPosting(sh.byDst, r.Dst)
	dropEmptyPosting(sh.byNS, namespaceOf(r.RequestID))
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

func (sh *shard) len() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.recs)
}

// clearMatching removes the records whose request ID matches pat, the
// first of them at position first (see firstMatch), and returns how many
// were dropped. The caller holds sh.gate, so first still holds.
func (sh *shard) clearMatching(pat pattern.Pattern, first int) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if pat.MatchAll() {
		n := len(sh.recs)
		sh.recs = nil
		sh.sorted = 0
		sh.byEdge = make(map[storeKey][]int32)
		sh.bySrc = make(map[string][]int32)
		sh.byDst = make(map[string][]int32)
		sh.byNS = make(map[string][]int32)
		return n
	}

	// Records before first neither move nor change position, so only the
	// suffix is touched. Every posting list that reaches into the suffix
	// belongs to one of its records: cut those back to first, partition
	// the suffix stably (survivors slide down, dropped records collect at
	// the tail), re-index the survivors at their new positions, and drop
	// the lists only dropped records kept alive.
	recs := sh.recs
	kept := first
	for i := first; i < len(recs); i++ {
		sh.cut(&recs[i], int32(first))
		if pat.Match(recs[i].RequestID) {
			continue
		}
		if kept != i {
			recs[kept], recs[i] = recs[i], recs[kept]
		}
		kept++
	}
	for i := first; i < kept; i++ {
		sh.index(&recs[i], int32(i))
	}
	for i := kept; i < len(recs); i++ {
		sh.dropEmpty(&recs[i])
	}
	clear(recs[kept:]) // release the dropped records' strings
	sh.recs = recs[:kept]
	sh.sorted = min(sh.sorted, first)
	sh.extendSorted()
	return len(recs) - kept
}

// firstMatch returns the lowest position whose request ID matches pat, or
// -1. A pattern pinned to one namespace reads only that namespace's
// posting list. The caller holds sh.gate, which keeps recs still.
func (sh *shard) firstMatch(pat pattern.Pattern) int {
	if pat.MatchAll() {
		if len(sh.recs) == 0 {
			return -1
		}
		return 0
	}
	if ns, ok := patternNamespace(pat); ok {
		for _, pos := range sh.byNS[ns] {
			if pat.Match(sh.recs[pos].RequestID) {
				return int(pos)
			}
		}
		return -1
	}
	for i := range sh.recs {
		if pat.Match(sh.recs[i].RequestID) {
			return i
		}
	}
	return -1
}

// compact rewrites the shard's write-ahead log down to its live records.
// The snapshot is the shard's own record slice in append order — no copy —
// so replay rebuilds exactly the in-memory state, order and all. The
// caller holds sh.gate, which keeps every writer out meanwhile.
func (sh *shard) compact() error {
	if sh.wal == nil {
		return nil
	}
	return sh.wal.compact(sh.recs)
}

// selectMatching returns the shard's records matching q (pat is
// q.IDPattern compiled) in (timestamp, seq) order.
func (sh *shard) selectMatching(q Query, pat pattern.Pattern) []Record {
	sh.mu.RLock()
	ordered := sh.sorted == len(sh.recs)
	var matched []Record
	if list, ok := sh.postings(q, pat); ok {
		// Filter positions through pointers first, then copy the matching
		// records once at exactly the right size — records are wide enough
		// that copying candidates (or regrowing the result) dominates an
		// edge query's cost.
		hits := make([]int32, 0, len(list))
		for _, pos := range list {
			r := &sh.recs[pos]
			if ordered && !q.Until.IsZero() && !r.Timestamp.Before(q.Until) {
				// Posting lists are in timestamp order while the shard is
				// ordered: nothing past the Until bound can match.
				break
			}
			if Matches(r, q, pat) {
				hits = append(hits, pos)
				if ordered && q.Limit > 0 && len(hits) == q.Limit {
					// Already in output order: the limit is final.
					break
				}
			}
		}
		matched = make([]Record, len(hits))
		for i, pos := range hits {
			matched[i] = sh.recs[pos]
		}
	} else {
		matched = make([]Record, 0, 64)
		for _, r := range sh.recs {
			if Matches(&r, q, pat) {
				matched = append(matched, r)
			}
		}
	}
	sh.mu.RUnlock()

	if !ordered {
		sort.Slice(matched, func(i, j int) bool { return matched[i].Before(matched[j]) })
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	return matched
}

// countMatching reports how many of the shard's records match q without
// copying them out.
func (sh *shard) countMatching(q Query, pat pattern.Pattern) int {
	n := 0
	sh.mu.RLock()
	if list, ok := sh.postings(q, pat); ok {
		ordered := sh.sorted == len(sh.recs)
		for _, pos := range list {
			r := &sh.recs[pos]
			if ordered && !q.Until.IsZero() && !r.Timestamp.Before(q.Until) {
				break
			}
			if Matches(r, q, pat) {
				n++
				if q.Limit > 0 && n == q.Limit {
					break
				}
			}
		}
	} else {
		for i := range sh.recs {
			if Matches(&sh.recs[i], q, pat) {
				n++
				if q.Limit > 0 && n == q.Limit {
					break
				}
			}
		}
	}
	sh.mu.RUnlock()
	return n
}

// postings returns the narrowest posting list serving q — its edge,
// source or destination list, or the namespace list of an ID pattern
// pinned to one namespace (pat is q.IDPattern compiled) — or ok=false when
// none applies (or the index is disabled) and a full scan is required.
// Caller holds at least a read lock.
func (sh *shard) postings(q Query, pat pattern.Pattern) (list []int32, ok bool) {
	if sh.linearScan {
		return nil, false
	}
	switch {
	case q.Src != "" && q.Dst != "":
		list, ok = sh.byEdge[storeKey{q.Src, q.Dst}], true
	case q.Src != "":
		list, ok = sh.bySrc[q.Src], true
	case q.Dst != "":
		list, ok = sh.byDst[q.Dst], true
	}
	if ns, pinned := patternNamespace(pat); pinned {
		if l := sh.byNS[ns]; !ok || len(l) < len(list) {
			return l, true
		}
	}
	return list, ok
}

// Matches reports whether r satisfies q, with pat being q.IDPattern
// compiled; q.Limit is ignored. It is the one record predicate: Select,
// Count and the checker's live bounds all decide membership through it.
func Matches(r *Record, q Query, pat pattern.Pattern) bool {
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
// prefix's namespace. The shard router and the shards' namespace posting
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
