package eventlog

import (
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"testing"
	"time"

	"gremlin/internal/pattern"
)

// oracleTarget is one store under test.
type oracleTarget struct {
	name string
	st   *Store
}

// logStamped appends records that already carry their seqs, in whatever
// order, as a replayed log holds them: each shard's group under its gate,
// WAL first.
func logStamped(t *testing.T, s *Store, recs []Record) {
	t.Helper()
	groups := make([][]Record, len(s.shards))
	for _, r := range recs {
		if r.Seq > s.seq.Load() {
			s.seq.Store(r.Seq)
		}
		si := s.shardFor(r.RequestID)
		groups[si] = append(groups[si], r)
	}
	for si, g := range groups {
		sh := s.shards[si]
		sh.gate.Lock()
		err := sh.write(g, nil, 0, time.Time{})
		sh.gate.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// oracleBody encodes batch as an ingest body whose lines take the forms
// senders use: most canonical, some carrying a seq of their own for the
// store to replace, some without a timestamp for the store to stamp, and
// now and then one that is not canonical, which hands the rest of the body
// to encoding/json. The records sent without a timestamp lose it in batch
// too.
func oracleBody(t *testing.T, rng *rand.Rand, batch []Record) []byte {
	t.Helper()
	var body []byte
	for i := range batch {
		r := batch[i]
		form := rng.Intn(10)
		switch form {
		case 0:
			r.Seq = uint64(1 + rng.Intn(1000))
		case 1:
			batch[i].Timestamp = time.Time{}
			r.Timestamp = time.Time{}
		}
		line, err := AppendRecord(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		if form == 2 {
			line = append([]byte("{ "), line[1:]...)
		}
		body = append(append(body, line...), '\n')
	}
	return body
}

// oracleRef is the naive reference: every live record in append order;
// a query filters, stable-sorts by Before, then limits.
type oracleRef []Record

func (ref oracleRef) query(q Query) []Record {
	pat := pattern.MustCompile(q.IDPattern)
	var out []Record
	for _, r := range ref {
		if (q.Src == "" || r.Src == q.Src) && (q.Dst == "" || r.Dst == q.Dst) &&
			(q.Kind == "" || r.Kind == q.Kind) && pat.Match(r.RequestID) &&
			(q.Since.IsZero() || !r.Timestamp.Before(q.Since)) &&
			(q.Until.IsZero() || r.Timestamp.Before(q.Until)) {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Before(out[j]) })
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

func (ref oracleRef) clear(idPattern string) (oracleRef, int) {
	pat := pattern.MustCompile(idPattern)
	kept := ref[:0]
	for _, r := range ref {
		if !pat.Match(r.RequestID) {
			kept = append(kept, r)
		}
	}
	return kept, len(ref) - len(kept)
}

var (
	oracleQueryPatterns = []string{
		"", "*", "camp-r1-*", "camp-r2-1*", "camp-r3-7", "x-*", "x-1?", "*-3",
		"camp-r*", "re:^camp-r0-", "re:-1$", "re:camp", "solo1", "y*",
	}
	oracleClearPatterns = []string{
		"camp-r0-*", "camp-r1-*", "camp-r2-*", "camp-r3-*", "camp-r2-1*", "x-*",
		"*-3", "camp-r*", "re:^camp-r1-", "re:-2$", "re:camp", "solo1", "y-*",
	}
	oracleEnds = []string{"a", "b", "c"}
)

// oracleID draws campaign IDs, plain "x-n"/"y-n-m" IDs, dash-less IDs and
// the empty ID.
func oracleID(rng *rand.Rand) string {
	switch rng.Intn(8) {
	case 0, 1, 2, 3:
		return fmt.Sprintf("camp-r%d-%d", rng.Intn(4), rng.Intn(30))
	case 4:
		return fmt.Sprintf("x-%d", rng.Intn(30))
	case 5:
		return fmt.Sprintf("y-%d-%d", rng.Intn(3), rng.Intn(5))
	case 6:
		return fmt.Sprintf("solo%d", rng.Intn(3))
	}
	return ""
}

func oracleQuery(rng *rand.Rand, clock int) Query {
	q := Query{IDPattern: oracleQueryPatterns[rng.Intn(len(oracleQueryPatterns))]}
	if rng.Intn(3) == 0 {
		q.Src = oracleEnds[rng.Intn(len(oracleEnds))]
	}
	if rng.Intn(3) == 0 {
		q.Dst = oracleEnds[rng.Intn(len(oracleEnds))]
	}
	if rng.Intn(3) == 0 {
		q.Kind = []Kind{KindRequest, KindReply}[rng.Intn(2)]
	}
	if rng.Intn(4) == 0 {
		q.Since = t0.Add(time.Duration(rng.Intn(clock+1)) * time.Millisecond)
	}
	if rng.Intn(4) == 0 {
		q.Until = t0.Add(time.Duration(rng.Intn(clock+2)) * time.Millisecond)
	}
	if rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(8)
	}
	return q
}

// checkOracleQuery holds Select and Count on st to the reference.
func checkOracleQuery(t *testing.T, name string, st *Store, ref oracleRef, q Query) {
	t.Helper()
	want := ref.query(q)
	got, err := st.Select(q)
	if err != nil {
		t.Fatalf("%s: Select(%+v): %v", name, q, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: Select(%+v) returned %d records, reference %d", name, q, len(got), len(want))
	}
	for i := range got {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("%s: Select(%+v) record %d = %+v, reference %+v", name, q, i, got[i], want[i])
		}
	}
	if n, err := st.Count(q); err != nil || n != len(want) {
		t.Fatalf("%s: Count(%+v) = %d, %v; reference %d", name, q, n, err, len(want))
	}
}

// checkStoreIndex is the white-box half of the oracle: every posting map
// equals a from-scratch rebuild over recs (same positions, no empty keys)
// and sorted equals a full rescan.
func checkStoreIndex(t *testing.T, name string, s *shard) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	fresh := newShard()
	for i := range s.recs {
		fresh.index(&s.recs[i], int32(i))
	}
	for _, m := range []struct {
		what      string
		got, want any
	}{
		{"byEdge", s.byEdge, fresh.byEdge},
		{"bySrc", s.bySrc, fresh.bySrc},
		{"byDst", s.byDst, fresh.byDst},
		{"byNS", s.byNS, fresh.byNS},
	} {
		if !reflect.DeepEqual(m.got, m.want) {
			t.Fatalf("%s: %s = %v, rebuild %v", name, m.what, m.got, m.want)
		}
	}
	sorted := len(s.recs)
	for i := 1; i < len(s.recs); i++ {
		if s.recs[i].Before(s.recs[i-1]) {
			sorted = i
			break
		}
	}
	if s.sorted != sorted {
		t.Fatalf("%s: sorted = %d, rescan %d (of %d records)", name, s.sorted, sorted, len(s.recs))
	}
}

// TestStoreOracle is the store's differential oracle: seeded random
// Log/stamped batches (equal and out-of-order timestamps, shuffled seqs)
// interleaved with pinned, unpinned, regexp and match-all clears, on a
// single-shard Store, a volatile 4-shard one and a WAL-backed one that
// compacts often and is reopened at the end. Every random query must
// answer exactly what the naive reference does, and every shard's index
// must equal a rebuild after every step.
func TestStoreOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		// Seeds past 3 stamp batches in seq order, as every log the store
		// writes itself is: there compaction copies live lines, where
		// shuffled seqs make it encode them.
		shuffle := seed <= 3
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			dir := t.TempDir()
			walOpts := StoreOptions{Shards: 4, DataDir: dir, Fsync: FsyncNever, CompactAfter: 16}
			wal := &oracleTarget{"wal", newSharded(t, walOpts)}
			targets := []*oracleTarget{
				{"store", NewStore()},
				{"sharded", newSharded(t, StoreOptions{Shards: 4})},
				wal,
			}
			rng := rand.New(rand.NewSource(seed))
			var ref oracleRef
			var seq uint64
			clock := 0
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op < 3:
					p := oracleClearPatterns[rng.Intn(len(oracleClearPatterns))]
					if rng.Intn(40) == 0 {
						p = []string{"", "*"}[rng.Intn(2)]
					}
					var want int
					ref, want = ref.clear(p)
					for _, tg := range targets {
						if n, err := tg.st.ClearMatching(p); err != nil || n != want {
							t.Fatalf("step %d %s: ClearMatching(%q) = %d, %v; reference %d", step, tg.name, p, n, err, want)
						}
					}
				default:
					batch := make([]Record, 1+rng.Intn(12))
					for i := range batch {
						clock += rng.Intn(2)
						batch[i] = Record{
							Timestamp: t0.Add(time.Duration(clock-rng.Intn(3)) * time.Millisecond),
							RequestID: oracleID(rng),
							Src:       oracleEnds[rng.Intn(len(oracleEnds))],
							Dst:       oracleEnds[rng.Intn(len(oracleEnds))],
							Kind:      []Kind{KindRequest, KindReply}[rng.Intn(2)],
						}
					}
					// Log stamps seqs in batch order; a stamped batch carries
					// the same seqs shuffled. Half the Log batches reach the
					// WAL-backed store as an ingest body instead, whose
					// lines it journals as they came; it stamps the records
					// sent without a timestamp, and the others log them with
					// its stamp.
					useLog := op < 7
					ingest := useLog && rng.Intn(2) == 0
					if ingest {
						if w := postRecords(&Server{store: wal.st}, oracleBody(t, rng, batch)); w.Code != http.StatusAccepted {
							t.Fatalf("step %d: POST /v1/records = %d: %s", step, w.Code, w.Body)
						}
						for _, sh := range wal.st.shards {
							for _, r := range sh.recs {
								if r.Seq > seq && r.Seq <= seq+uint64(len(batch)) {
									batch[r.Seq-seq-1].Timestamp = r.Timestamp
								}
							}
						}
					}
					order := rng.Perm(len(batch))
					stamped := append([]Record(nil), batch...)
					for i := range stamped {
						if useLog || !shuffle {
							order[i] = i
						}
						stamped[i].Seq = seq + uint64(order[i]) + 1
					}
					for _, tg := range targets {
						if ingest && tg == wal {
							continue
						}
						if useLog {
							if err := tg.st.Log(batch...); err != nil {
								t.Fatal(err)
							}
						} else {
							logStamped(t, tg.st, stamped)
						}
					}
					ref = append(ref, stamped...)
					seq += uint64(len(batch))
				}
				for _, tg := range targets {
					for si, s := range tg.st.shards {
						checkStoreIndex(t, fmt.Sprintf("step %d %s shard %d", step, tg.name, si), s)
					}
					for i := 0; i < 3; i++ {
						checkOracleQuery(t, fmt.Sprintf("step %d %s", step, tg.name), tg.st, ref, oracleQuery(rng, clock))
					}
				}
			}

			// Reopen the WAL-backed store: replay must rebuild each shard
			// exactly — same records in the same order, same sorted prefix.
			// Compaction must have run often enough on the way to count,
			// copying the live lines often enough too.
			var compactions, copies uint64
			for _, sh := range wal.st.shards {
				compactions += sh.wal.compactions
				copies += sh.wal.copies
			}
			if compactions < 10 || !shuffle && copies < 10 {
				t.Fatalf("the WAL-backed store compacted %d times, %d of them by copying, want at least 10 of each", compactions, copies)
			}
			var before [][]Record
			for _, s := range wal.st.shards {
				before = append(before, append([]Record(nil), s.recs...))
			}
			if err := wal.st.Close(); err != nil {
				t.Fatal(err)
			}
			reopened := newSharded(t, walOpts)
			for si, s := range reopened.shards {
				if !sameRecords(s.recs, before[si]) && len(s.recs)+len(before[si]) > 0 {
					t.Fatalf("shard %d replays %d records, held %d (or in another order)", si, len(s.recs), len(before[si]))
				}
				checkStoreIndex(t, fmt.Sprintf("reopened shard %d", si), s)
			}
			for i := 0; i < 200; i++ {
				checkOracleQuery(t, "wal reopened", reopened, ref, oracleQuery(rng, clock))
			}
		})
	}
}
