package eventlog

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)

func rec(src, dst string, kind Kind, id string, at time.Duration) Record {
	return Record{
		Timestamp: t0.Add(at),
		RequestID: id,
		Src:       src,
		Dst:       dst,
		Kind:      kind,
	}
}

func TestLogAssignsSeqAndTimestamp(t *testing.T) {
	s := NewStore()
	if err := s.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Seq != 1 {
		t.Fatalf("Seq = %d, want 1", recs[0].Seq)
	}
	if recs[0].Timestamp.IsZero() {
		t.Fatal("zero timestamp should be stamped")
	}
}

func TestSelectFilters(t *testing.T) {
	s := NewStore()
	err := s.Log(
		rec("a", "b", KindRequest, "test-1", 0),
		rec("a", "b", KindReply, "test-1", time.Millisecond),
		rec("a", "c", KindRequest, "test-2", 2*time.Millisecond),
		rec("x", "b", KindRequest, "prod-9", 3*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{}, 4},
		{"by src", Query{Src: "a"}, 3},
		{"by dst", Query{Dst: "b"}, 3},
		{"by src+dst", Query{Src: "a", Dst: "b"}, 2},
		{"by kind request", Query{Kind: KindRequest}, 3},
		{"by kind reply", Query{Kind: KindReply}, 1},
		{"by id glob", Query{IDPattern: "test-*"}, 3},
		{"by id exact", Query{IDPattern: "test-1"}, 2},
		{"by regexp", Query{IDPattern: "re:^prod-"}, 1},
		{"no match", Query{Src: "nobody"}, 0},
		{"limit", Query{Limit: 2}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := s.Select(tt.q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tt.want {
				t.Fatalf("Select(%+v) returned %d records, want %d", tt.q, len(got), tt.want)
			}
		})
	}
}

func TestSelectTimeBounds(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		if err := s.Log(rec("a", "b", KindRequest, "test", time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Select(Query{Since: t0.Add(3 * time.Second), Until: t0.Add(7 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 { // ts 3,4,5,6 (Until is exclusive)
		t.Fatalf("got %d records, want 4", len(got))
	}
	if !got[0].Timestamp.Equal(t0.Add(3 * time.Second)) {
		t.Fatalf("first ts = %v", got[0].Timestamp)
	}
}

func TestSelectSortedByTimeThenSeq(t *testing.T) {
	s := NewStore()
	// Log out of order, with duplicate timestamps.
	if err := s.Log(
		rec("a", "b", KindRequest, "2", 2*time.Second),
		rec("a", "b", KindRequest, "0a", 0),
		rec("a", "b", KindRequest, "0b", 0),
		rec("a", "b", KindRequest, "1", time.Second),
	); err != nil {
		t.Fatal(err)
	}
	got, err := s.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]string, len(got))
	for i, r := range got {
		order[i] = r.RequestID
	}
	want := []string{"0a", "0b", "1", "2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSelectBadPattern(t *testing.T) {
	s := NewStore()
	if _, err := s.Select(Query{IDPattern: "re:["}); err == nil {
		t.Fatal("want error for bad pattern")
	}
}

func TestClear(t *testing.T) {
	s := NewStore()
	if err := s.Log(rec("a", "b", KindRequest, "x", 0)); err != nil {
		t.Fatal(err)
	}
	if n := s.Clear(); n != 1 {
		t.Fatalf("Clear = %d", n)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after clear", s.Len())
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := s.Log(rec("a", "b", KindRequest, fmt.Sprintf("test-%d-%d", w, i), 0)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Select(Query{Src: "a"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("Len = %d, want 800", s.Len())
	}
}

func TestRecordLatencyHelpers(t *testing.T) {
	r := Record{LatencyMillis: 150, InjectedDelayMillis: 100}
	if got := r.Latency(); got != 150*time.Millisecond {
		t.Fatalf("Latency = %v", got)
	}
	if got := r.InjectedDelay(); got != 100*time.Millisecond {
		t.Fatalf("InjectedDelay = %v", got)
	}
	if got := r.UntamperedLatency(); got != 50*time.Millisecond {
		t.Fatalf("UntamperedLatency = %v", got)
	}
	// Injected delay exceeding measured latency clamps at zero.
	r = Record{LatencyMillis: 50, InjectedDelayMillis: 100}
	if got := r.UntamperedLatency(); got != 0 {
		t.Fatalf("UntamperedLatency = %v, want 0", got)
	}
}

// Property: Select(Query{}) returns records in nondecreasing (ts, seq)
// order regardless of insertion order.
func TestSelectOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(n uint8) bool {
		s := NewStore()
		for i := 0; i < int(n%64); i++ {
			r := rec("a", "b", KindRequest, "x", time.Duration(rng.Intn(5))*time.Second)
			if err := s.Log(r); err != nil {
				return false
			}
		}
		got, err := s.Select(Query{})
		if err != nil {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Before(got[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentLogSelectClear hammers the store from writers,
// readers, and clearers at once. Run with -race; the invariant is that
// every Select observes a consistent prefix (sorted, no partial records)
// and nothing panics.
func TestStoreConcurrentLogSelectClear(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := s.Log(rec("a", "b", KindRequest, fmt.Sprintf("test-%d-%d", w, i), 0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				got, err := s.Select(Query{Src: "a", Dst: "b"})
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < len(got); j++ {
					if got[j].Before(got[j-1]) {
						t.Error("Select returned unsorted records")
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Clear()
			s.Len()
		}
	}()
	wg.Wait()
	// The store must still be fully consistent after the storm.
	if _, err := s.Select(Query{}); err != nil {
		t.Fatal(err)
	}
}

// Property: the posting-list index returns exactly what the pre-index
// linear scan returns, for every filter shape, including out-of-order
// timestamps that force the sort path.
func TestIndexedSelectMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	srcs := []string{"a", "b", "c"}
	dsts := []string{"x", "y"}
	f := func(n uint8, qi uint8) bool {
		s := NewStore()
		for i := 0; i < int(n%80); i++ {
			r := rec(srcs[rng.Intn(3)], dsts[rng.Intn(2)], KindRequest,
				fmt.Sprintf("test-%d", i%7),
				time.Duration(rng.Intn(10))*time.Second) // out of order on purpose
			if rng.Intn(2) == 0 {
				r.Kind = KindReply
			}
			if err := s.Log(r); err != nil {
				return false
			}
		}
		queries := []Query{
			{Src: "a", Dst: "x"},
			{Src: "b"},
			{Dst: "y", Kind: KindReply},
			{Src: "c", Dst: "y", IDPattern: "test-3"},
			{Src: "a", Since: t0.Add(2 * time.Second), Until: t0.Add(7 * time.Second)},
			{Src: "a", Dst: "x", Limit: 3},
		}
		q := queries[int(qi)%len(queries)]
		indexed, err := s.Select(q)
		if err != nil {
			return false
		}
		s.UseLinearScan(true)
		scanned, err := s.Select(q)
		s.UseLinearScan(false)
		if err != nil {
			return false
		}
		if len(indexed) != len(scanned) {
			return false
		}
		for i := range indexed {
			if indexed[i].Seq != scanned[i].Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClearMatching(t *testing.T) {
	s := NewStore()
	ids := []string{"camp-a-0-1", "camp-a-0-2", "camp-a-1-1", "test-1"}
	for i, id := range ids {
		if err := s.Log(rec("a", "b", KindRequest, id, time.Duration(i))); err != nil {
			t.Fatal(err)
		}
	}

	n, err := s.ClearMatching("camp-a-0-*")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ClearMatching = %d, want 2", n)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after pattern clear", s.Len())
	}

	// The survivors stay queryable through the rebuilt indexes.
	got, err := s.Select(Query{Src: "a", Dst: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].RequestID != "camp-a-1-1" || got[1].RequestID != "test-1" {
		t.Fatalf("survivors = %+v", got)
	}

	if _, err := s.ClearMatching("re:["); err == nil {
		t.Fatal("want error for bad pattern")
	}

	// A match-all pattern behaves like Clear.
	n, err = s.ClearMatching("*")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || s.Len() != 0 {
		t.Fatalf("match-all clear dropped %d, left %d", n, s.Len())
	}
}

// A clear that takes every record off an edge leaves that edge's posting
// lists reused-then-empty: they must be dropped, the surviving edges must
// point at the shifted positions, and the edge must index afresh when
// records arrive on it again.
func TestClearMatchingEmptiesEdge(t *testing.T) {
	s := NewStore()
	for i := 0; i < 6; i++ {
		if err := s.Log(
			rec("gone", "edge", KindRequest, fmt.Sprintf("drop-%d", i), time.Duration(2*i)),
			rec("a", "b", KindRequest, fmt.Sprintf("keep-%d", i), time.Duration(2*i+1)),
		); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.ClearMatching("drop-*"); err != nil || n != 6 {
		t.Fatalf("ClearMatching = %d, %v; want 6", n, err)
	}
	if sh := s.shards[0]; len(sh.byEdge) != 1 || len(sh.bySrc) != 1 || len(sh.byDst) != 1 {
		t.Fatalf("emptied edge still indexed: %d edges, %d sources, %d destinations", len(sh.byEdge), len(sh.bySrc), len(sh.byDst))
	}
	for _, q := range []Query{{Src: "gone", Dst: "edge"}, {Src: "gone"}, {Dst: "edge"}} {
		if got, err := s.Select(q); err != nil || len(got) != 0 {
			t.Fatalf("Select(%+v) on the emptied edge = %+v, %v", q, got, err)
		}
	}
	kept, err := s.Select(Query{Src: "a", Dst: "b"})
	if err != nil || len(kept) != 6 {
		t.Fatalf("survivors = %+v, %v", kept, err)
	}
	for i, r := range kept {
		if r.RequestID != fmt.Sprintf("keep-%d", i) {
			t.Fatalf("survivor %d is %s", i, r.RequestID)
		}
	}
	if err := s.Log(rec("gone", "edge", KindReply, "back-1", time.Hour)); err != nil {
		t.Fatal(err)
	}
	back, err := s.Select(Query{Src: "gone", Dst: "edge"})
	if err != nil || len(back) != 1 || back[0].RequestID != "back-1" {
		t.Fatalf("edge after refill = %+v, %v", back, err)
	}
}

// Replayed records keep the seqs and the order their log holds, and a log
// written by an older store — which stamped seqs outside the shard's gate —
// can hold equal-timestamp records in reverse seq order. The store must
// notice it is out of order and sort: Select's contract is (timestamp,
// seq).
func TestSelectOrdersTimestampTiesBySeq(t *testing.T) {
	s := NewStore()
	batch := func(seqs ...uint64) []Record {
		var recs []Record
		for _, seq := range seqs {
			recs = append(recs, Record{Seq: seq, Timestamp: t0, RequestID: fmt.Sprintf("x-%d", seq), Src: "a", Dst: "b", Kind: KindRequest})
		}
		return recs
	}
	logStamped(t, s, batch(3, 4))
	logStamped(t, s, batch(1, 2))
	for _, q := range []Query{{}, {Src: "a", Dst: "b"}, {IDPattern: "x-*"}, {Limit: 2}} {
		got, err := s.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if r.Seq != uint64(i+1) {
				t.Fatalf("Select(%+v): record %d has seq %d, want %d", q, i, r.Seq, i+1)
			}
		}
	}
}

// TestStoreLogAllocBudget: appending a 64-record batch to a warmed volatile
// store allocates nothing — the records are stamped as they are copied
// into the shard — whichever constructor built the store, and building
// one stays cheap. Every hop workload logs through NewStore.
func TestStoreLogAllocBudget(t *testing.T) {
	sharded, err := NewShardedStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch := hopBatch(64)
	for name, s := range map[string]*Store{"NewStore": NewStore(), "NewShardedStore": sharded} {
		for i := 0; i < 64; i++ {
			if err := s.Log(batch...); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(200, func() { _ = s.Log(batch...) }); got != 0 {
			t.Errorf("%s: Log of 64 records = %.0f allocs, want 0", name, got)
		}
	}
	for name, build := range map[string]func(){
		"NewStore":        func() { _ = NewStore() },
		"NewShardedStore": func() { _, _ = NewShardedStore(StoreOptions{}) },
	} {
		if got := testing.AllocsPerRun(100, build); got > 10 {
			t.Errorf("%s = %.0f allocs, want at most 10", name, got)
		}
	}
}
