package eventlog

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gremlin/internal/pattern"
)

func newSharded(t *testing.T, opts StoreOptions) *ShardedStore {
	t.Helper()
	ss, err := NewShardedStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	return ss
}

func TestNamespaceOf(t *testing.T) {
	tests := []struct{ id, want string }{
		{"test-1", "test"},
		{"test-99", "test"},
		{"prod-7", "prod"},
		{"camp-run1-u3-2", "camp-run1"},
		{"camp-run1-other", "camp-run1"},
		{"camp-run2-u1-0", "camp-run2"},
		{"noseparator", "noseparator"},
		{"", ""},
	}
	for _, tt := range tests {
		if got := namespaceOf(tt.id); got != tt.want {
			t.Errorf("namespaceOf(%q) = %q, want %q", tt.id, got, tt.want)
		}
	}
}

func TestNamespaceRoutingKeepsNamespaceTogether(t *testing.T) {
	// All IDs of one namespace must land on one shard, whatever the count.
	// shardOf (client side) and Store.shardFor (server side) must
	// agree, or client batch hints would always miss.
	for _, n := range []int{2, 3, 8} {
		ss := newSharded(t, StoreOptions{Shards: n})
		for _, ns := range []string{"test", "camp-run1", "camp-run2", "prod"} {
			want := shardOf(ns+"-0", n)
			for i := 1; i < 50; i++ {
				id := fmt.Sprintf("%s-%d", ns, i)
				if got := shardOf(id, n); got != want {
					t.Fatalf("shards=%d ns=%s: id %d routed to %d, want %d", n, ns, i, got, want)
				}
				if got := ss.shardFor(id); got != want {
					t.Fatalf("shards=%d ns=%s: server routes %q to %d, client to %d", n, ns, id, got, want)
				}
			}
		}
	}
}

// TestPatternPinning holds the one namespace rule, patternNamespace, to
// the shard router that uses it: a pattern pins a namespace exactly when
// shardOfPattern pins a shard, and that shard is where a matching ID
// routes. The store's namespace posting lists use the same helper.
func TestPatternPinning(t *testing.T) {
	ss := newSharded(t, StoreOptions{Shards: 8})
	tests := []struct {
		pattern string
		ns      string // "" = not pinned
		id      string // an ID the pattern matches
	}{
		{"test-*", "test", "test-x"}, // literal prefix passes the namespace boundary
		{"test-17", "test", "test-17"},
		{"camp-run1-*", "camp-run1", "camp-run1-x"},
		{"camp-r1-*", "camp-r1", "camp-r1-u3-0"},
		{"camp-run1-u2*", "camp-run1", "camp-run1-u2x"},
		{"re:^camp-x-", "camp-x", "camp-x-9"},
		{"re:camp-x-", "", "zzcamp-x-9"}, // unanchored: matches mid-ID
		{"camp-r1*", "", "camp-r1x-0"},   // "camp-r1" and "camp-r1x" differ
		{"camp-*", "", "camp-a-0"},       // prefix IS a (partial) namespace
		{"test*", "", "testing-1"},       // "test" and "testing" differ
		{"*", "", "x"},
		{"", "", "x"},
		{"*-suffix", "", "a-suffix"},
		{"solo1", "", "solo1"},                 // dash-less: no boundary inside the literal
		{"camp-\xffr1-*", "", "camp-\xffr1-9"}, // invalid UTF-8 glob: no usable literal prefix
	}
	for _, tt := range tests {
		pat, err := pattern.Compile(tt.pattern)
		if err != nil {
			t.Fatalf("compile %q: %v", tt.pattern, err)
		}
		ns, pinned := patternNamespace(pat)
		if pinned != (tt.ns != "") || pinned && ns != tt.ns {
			t.Errorf("patternNamespace(%q) = %q, %v; want %q", tt.pattern, ns, pinned, tt.ns)
		}
		if !pat.Match(tt.id) {
			t.Fatalf("bad case: %q does not match %q", tt.pattern, tt.id)
		}
		si := ss.shardOfPattern(pat)
		if si >= 0 != pinned {
			t.Errorf("shardOfPattern(%q) = %d, but patternNamespace pinned=%v", tt.pattern, si, pinned)
			continue
		}
		if pinned {
			// The pinned namespace and shard are where matching IDs live.
			if got := namespaceOf(tt.id); got != ns {
				t.Errorf("patternNamespace(%q) = %q, but %q is in namespace %q", tt.pattern, ns, tt.id, got)
			}
			if want := ss.shardFor(tt.id); si != want {
				t.Errorf("shardOfPattern(%q) = %d, but id %q routes to %d", tt.pattern, si, tt.id, want)
			}
		}
	}
}

// TestScatterGatherMatchesSingleStore is the merge-correctness check: a
// sharded Select over any pattern must return exactly what a single-shard
// store returns for the same input, in the same order.
func TestScatterGatherMatchesSingleStore(t *testing.T) {
	single := NewStore()
	sharded := newSharded(t, StoreOptions{Shards: 8})

	rng := rand.New(rand.NewSource(42))
	namespaces := []string{"test", "prod", "camp-run1", "camp-run2", "camp-run3", "chaos"}
	var recs []Record
	for i := 0; i < 5000; i++ {
		ns := namespaces[rng.Intn(len(namespaces))]
		r := Record{
			Timestamp: t0.Add(time.Duration(rng.Intn(1_000_000)) * time.Microsecond),
			RequestID: fmt.Sprintf("%s-%d", ns, rng.Intn(400)),
			Src:       fmt.Sprintf("svc%d", rng.Intn(5)),
			Dst:       fmt.Sprintf("svc%d", rng.Intn(5)),
			Kind:      KindRequest,
		}
		if rng.Intn(2) == 0 {
			r.Kind = KindReply
		}
		recs = append(recs, r)
	}
	// Stamp via the sharded store (global seq), replay the stamped records
	// into the single store so both hold identical data.
	if err := sharded.Log(recs...); err != nil {
		t.Fatal(err)
	}
	all, err := sharded.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(recs) {
		t.Fatalf("sharded holds %d records, want %d", len(all), len(recs))
	}
	logStamped(t, single, all)

	queries := []Query{
		{},
		{IDPattern: "test-*"},
		{IDPattern: "camp-*"},
		{IDPattern: "camp-run2-*"},
		{IDPattern: "*"},
		{Src: "svc1"},
		{Dst: "svc3", Kind: KindReply},
		{IDPattern: "camp-*", Since: t0.Add(200 * time.Millisecond)},
		{Until: t0.Add(500 * time.Millisecond)},
		{IDPattern: "test-*", Limit: 17},
		{Limit: 100},
	}
	for _, q := range queries {
		want, err := single.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %+v: sharded %d records, single %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq {
				t.Fatalf("query %+v: record %d Seq=%d, want %d", q, i, got[i].Seq, want[i].Seq)
			}
		}
		// Count must agree with Select.
		gc, err := sharded.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		wc := len(want)
		if q.Limit > 0 && wc > q.Limit {
			wc = q.Limit
		}
		if gc != wc {
			t.Fatalf("query %+v: Count=%d, want %d", q, gc, wc)
		}
	}
}

func TestScatterGatherTimestampTies(t *testing.T) {
	// Equal timestamps across shards: the merge must still be total and
	// deterministic (seq breaks the tie) and lose no records.
	ss := newSharded(t, StoreOptions{Shards: 4})
	ts := t0
	for i := 0; i < 100; i++ {
		ns := fmt.Sprintf("ns%d", i%7)
		if err := ss.Log(Record{Timestamp: ts, RequestID: ns + "-1", Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := ss.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 {
		t.Fatalf("got %d records, want 100", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if !recs[i-1].Before(recs[i]) {
			t.Fatalf("records %d/%d out of order: seq %d then %d", i-1, i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestShardedClearMatching(t *testing.T) {
	ss := newSharded(t, StoreOptions{Shards: 4})
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("camp-run1-u%d", i)
		if i%2 == 0 {
			id = fmt.Sprintf("test-%d", i)
		}
		if err := ss.Log(Record{RequestID: id, Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := ss.ClearMatching("camp-run1-*")
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("cleared %d, want 20", n)
	}
	if got := ss.Len(); got != 20 {
		t.Fatalf("Len=%d after clear, want 20", got)
	}
	left, err := ss.Select(Query{IDPattern: "camp-run1-*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d campaign records survived clear", len(left))
	}
}

func TestShardedSubscribe(t *testing.T) {
	ss := newSharded(t, StoreOptions{Shards: 4})

	// Pattern-pinned subscription: only its namespace's records arrive.
	pinned, err := ss.SubscribeBuffer("test-*", 64)
	if err != nil {
		t.Fatal(err)
	}
	// Scatter subscription: everything arrives.
	all, err := ss.SubscribeBuffer("", 256)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 30; i++ {
		ns := "test"
		if i%3 != 0 {
			ns = fmt.Sprintf("other%d", i%3)
		}
		if err := ss.Log(Record{RequestID: fmt.Sprintf("%s-%d", ns, i), Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
			t.Fatal(err)
		}
	}

	drain := func(sub *Subscription, want int) int {
		got := 0
		timeout := time.After(2 * time.Second)
		for got < want {
			select {
			case <-sub.C():
				got++
			case <-timeout:
				return got
			}
		}
		// Give stray extras a moment to show up.
		select {
		case <-sub.C():
			got++
		case <-time.After(50 * time.Millisecond):
		}
		return got
	}
	if got := drain(pinned, 10); got != 10 {
		t.Errorf("pinned subscription got %d records, want 10", got)
	}
	if got := drain(all, 30); got != 30 {
		t.Errorf("scatter subscription got %d records, want 30", got)
	}
	pinned.Close()
	all.Close()
	if n := ss.Subscribers(); n != 0 {
		t.Errorf("%d subscribers left after Close", n)
	}
}

func TestShardedStoreStats(t *testing.T) {
	ss := newSharded(t, StoreOptions{Shards: 4})
	for i := 0; i < 100; i++ {
		if err := ss.Log(Record{RequestID: fmt.Sprintf("ns%d-%d", i%11, i), Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
			t.Fatal(err)
		}
	}
	if ss.NumShards() != 4 {
		t.Fatalf("NumShards=%d", ss.NumShards())
	}
	stats := ss.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("%d shard stats", len(stats))
	}
	var total, appended int
	populated := 0
	for _, st := range stats {
		total += st.Records
		appended += int(st.Appended)
		if st.Records > 0 {
			populated++
		}
	}
	if total != 100 || appended != 100 {
		t.Fatalf("stats total=%d appended=%d, want 100/100", total, appended)
	}
	if populated < 2 {
		t.Fatalf("only %d shards populated; namespace hashing is degenerate", populated)
	}
}

func TestSingleShardIsPlainStore(t *testing.T) {
	// Shards=1, no DataDir: behaves exactly like NewStore, no WAL files.
	ss := newSharded(t, StoreOptions{})
	if ss.NumShards() != 1 {
		t.Fatalf("NumShards=%d, want 1", ss.NumShards())
	}
	if err := ss.Log(rec("a", "b", KindRequest, "test-1", 0)); err != nil {
		t.Fatal(err)
	}
	recs, err := ss.Select(Query{IDPattern: "test-*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("got %+v", recs)
	}
}

// TestLogShardVerifiesRouting: a shard-aware client's ?shard= hint is
// only a hint. A batch posted as shard i's — wrongly, or against a stale
// topology — still lands every record on the shard its namespace routes
// to, where a pinned query looks for it.
func TestLogShardVerifiesRouting(t *testing.T) {
	ss, c := newShardedTestServer(t, 4)
	hinted := ss.shardFor("test-1")
	otherID := "other-1"
	for i := 2; ss.shardFor(otherID) == hinted; i++ {
		otherID = fmt.Sprintf("other%d-1", i)
	}
	for _, hint := range []string{fmt.Sprintf("shard=%d&of=4", hinted), "shard=99&of=4", "shard=0&of=8"} {
		ss.Clear()
		body := `{"requestId":"test-1","src":"a","dst":"b","kind":"request"}
{"requestId":"` + otherID + `","src":"a","dst":"b","kind":"request"}
`
		resp, err := http.Post(c.wire.BaseURL+"/v1/records?"+hint, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d", hint, resp.StatusCode)
		}
		for id, si := range map[string]int{"test-1": hinted, otherID: ss.shardFor(otherID)} {
			if n := ss.shards[si].countMatching(Query{}, pattern.MustCompile(id)); n != 1 {
				t.Fatalf("%s: %s not on its shard %d", hint, id, si)
			}
		}
	}
}

// TestShardedStoreRace exercises concurrent multi-shard appends, selects,
// counts, clears, and subscriptions; run with -race.
func TestShardedStoreRace(t *testing.T) {
	ss := newSharded(t, StoreOptions{Shards: 8, DataDir: t.TempDir(), Fsync: FsyncNever, CompactAfter: 64})
	const (
		writers = 4
		readers = 3
		perW    = 300
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	sub, err := ss.SubscribeBuffer("", 4096)
	if err != nil {
		t.Fatal(err)
	}
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for {
			select {
			case <-sub.C():
			case <-stop:
				return
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				r := Record{
					RequestID: fmt.Sprintf("ns%d-%d", (w+i)%13, i),
					Src:       "a", Dst: "b", Kind: KindRequest,
				}
				if err := ss.Log(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := ss.Select(Query{IDPattern: fmt.Sprintf("ns%d-*", i%13)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := ss.Count(Query{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := ss.ClearMatching(fmt.Sprintf("ns%d-*", i%13)); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers/readers/clearer finish; then stop the subscriber drain.
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("race test deadlocked")
	}
	close(stop)
	<-drainDone
	sub.Close()
}
