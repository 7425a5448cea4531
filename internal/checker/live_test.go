package checker

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gremlin/internal/eventlog"
)

func liveReq(id string, at time.Duration) eventlog.Record { return request("a", "b", id, at) }

func liveReply(id string, at time.Duration, status int, latencyMillis float64) eventlog.Record {
	return reply("a", "b", id, at, withStatus(status), withLatency(latencyMillis))
}

func mustBuild(t testing.TB, s Spec) *Bound {
	t.Helper()
	b, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNumRequestsWindowBound(t *testing.T) {
	a := mustBuild(t, Spec{Type: "numRequests", Src: "a", Dst: "b", WindowMillis: 1000, Max: 2})
	// Three requests inside one second cross the bound; the first two don't.
	if v := a.Observe(liveReq("r1", 0)); v != nil {
		t.Fatalf("violation after 1 request: %v", v)
	}
	if v := a.Observe(liveReq("r2", 100*time.Millisecond)); v != nil {
		t.Fatalf("violation after 2 requests: %v", v)
	}
	v := a.Observe(liveReq("r3", 200*time.Millisecond))
	if v == nil {
		t.Fatal("3 requests in 1s did not violate max=2")
	}
	if v.Assertion != "numRequests" || v.Record.RequestID != "r3" {
		t.Fatalf("violation = %+v", v)
	}
	if want := "3 requests a->b exceed the bound of 2 in 1s"; v.Detail != want {
		t.Fatalf("detail = %q, want %q", v.Detail, want)
	}
	// Fired bounds stay silent.
	if v := a.Observe(liveReq("r4", 300*time.Millisecond)); v != nil {
		t.Fatal("violated bound fired twice")
	}
}

func TestNumRequestsWindowSlides(t *testing.T) {
	a := mustBuild(t, Spec{Type: "numRequests", Src: "a", Dst: "b", WindowMillis: 1000, Max: 2})
	// Two per window, forever: never violates because old requests expire.
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * 2 * time.Second
		if v := a.Observe(liveReq("r", at)); v != nil {
			t.Fatalf("violation at step %d: %v", i, v)
		}
		if v := a.Observe(liveReq("r", at+100*time.Millisecond)); v != nil {
			t.Fatalf("violation at step %d: %v", i, v)
		}
	}
}

// TestWindowOutOfOrderArrival feeds records the way agents ship them: a
// request record carries its start time but travels after the reply, and
// agents flush independently. The window is (newest − span, newest], so a
// late record older than that is not counted, and one inside it is.
func TestWindowOutOfOrderArrival(t *testing.T) {
	n := mustBuild(t, Spec{Type: "numRequests", WindowMillis: 1000, Max: 1})
	if v := n.Observe(liveReq("r1", 2*time.Second)); v != nil {
		t.Fatalf("violation after 1 request: %v", v)
	}
	if v := n.Observe(liveReq("r0", 0)); v != nil {
		t.Fatalf("requests 2s apart violated a 1-per-1s bound: %v", v)
	}
	if v := n.Observe(liveReq("r2", 1500*time.Millisecond)); v == nil {
		t.Fatal("late request 0.5s before the newest was not counted")
	}

	// Late records are kept in timestamp order, so eviction drops exactly
	// the ones the newest record pushes out: at 2.3s only 1.2s leaves.
	o := mustBuild(t, Spec{Type: "numRequests", WindowMillis: 1000, Max: 3})
	for _, at := range []time.Duration{2000, 1500, 1200, 2300} {
		if v := o.Observe(liveReq("r", at*time.Millisecond)); v != nil {
			t.Fatalf("at %dms: %v", at, v)
		}
	}

	l := mustBuild(t, Spec{Type: "replyLatency", WindowMillis: 1000, MaxLatencyMillis: 100, WithRule: true})
	if v := l.Observe(liveReply("r1", 2*time.Second, 200, 5)); v != nil {
		t.Fatalf("5ms violated a 100ms bound: %v", v)
	}
	if v := l.Observe(liveReply("r0", 0, 200, 500)); v != nil {
		t.Fatalf("a reply 2s older than the newest entered a 1s window: %v", v)
	}
	if v := l.Observe(liveReply("r2", 1500*time.Millisecond, 200, 500)); v == nil {
		t.Fatal("late slow reply inside the window was not judged")
	}
}

func TestNumRequestsIgnoresNonMatching(t *testing.T) {
	a := mustBuild(t, Spec{Type: "numRequests", Src: "a", Dst: "b", Pattern: "camp-1-*"})
	if v := a.Observe(liveReq("other", 0)); v != nil {
		t.Fatal("non-matching ID counted")
	}
	if v := a.Observe(liveReply("camp-1-x", 0, 200, 1)); v != nil {
		t.Fatal("reply counted as request")
	}
	wrongDst := liveReq("camp-1-x", 0)
	wrongDst.Dst = "c"
	if v := a.Observe(wrongDst); v != nil {
		t.Fatal("wrong destination counted")
	}
	if v := a.Observe(liveReq("camp-1-x", 0)); v == nil {
		t.Fatal("matching request did not violate max=0")
	}
}

func TestCheckStatusAnyFailure(t *testing.T) {
	a := mustBuild(t, Spec{Type: "checkStatus", Src: "a", Dst: "b", Status: -1, Max: 1})
	if v := a.Observe(liveReply("r1", 0, 200, 1)); v != nil {
		t.Fatal("success reply counted as failure")
	}
	if v := a.Observe(liveReply("r2", 0, 503, 1)); v != nil {
		t.Fatal("first failure violated max=1")
	}
	v := a.Observe(liveReply("r3", 0, 0, 1)) // severed connection is a failure too
	if v == nil {
		t.Fatal("second failure did not violate max=1")
	}
	if !strings.Contains(v.Detail, "failure replies") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestCheckStatusExactCode(t *testing.T) {
	a := mustBuild(t, Spec{Type: "checkStatus", Status: 503})
	if v := a.Observe(liveReply("r1", 0, 500, 1)); v != nil {
		t.Fatal("500 counted as 503")
	}
	if v := a.Observe(liveReply("r2", 0, 503, 1)); v == nil {
		t.Fatal("first 503 did not violate max=0")
	}
}

func TestRequestRateBound(t *testing.T) {
	a := mustBuild(t, Spec{Type: "requestRate", Src: "a", Dst: "b", WindowMillis: 1000, Max: 5})
	// 5 requests over a second is exactly the bound: no violation.
	for i := 0; i < 5; i++ {
		if v := a.Observe(liveReq("r", time.Duration(i)*200*time.Millisecond)); v != nil {
			t.Fatalf("violation at request %d: %v", i, v)
		}
	}
	// The sixth in the same window pushes the rate to 6/s.
	if v := a.Observe(liveReq("r", 900*time.Millisecond)); v == nil {
		t.Fatal("6 req/s did not violate the 5 req/s bound")
	}
}

func TestRequestRateRejectsBadConfig(t *testing.T) {
	if _, err := Build(Spec{Type: "requestRate", Max: 5}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := Build(Spec{Type: "requestRate", WindowMillis: 1000}); err == nil {
		t.Error("zero bound accepted")
	}
}

func TestReplyLatencyQuantileBound(t *testing.T) {
	a := mustBuild(t, Spec{Type: "replyLatency", Src: "a", Dst: "b", Quantile: 0.5, MaxLatencyMillis: 100, WithRule: true})
	// Fast replies keep the median low.
	for i := 0; i < 10; i++ {
		if v := a.Observe(liveReply("r", time.Duration(i)*time.Millisecond, 200, 10)); v != nil {
			t.Fatalf("violation on fast replies: %v", v)
		}
	}
	// Slow replies drag the median past 100 ms.
	var v *Violation
	for i := 0; i < 20 && v == nil; i++ {
		v = a.Observe(liveReply("r", time.Duration(10+i)*time.Millisecond, 200, 500))
	}
	if v == nil {
		t.Fatal("median of slow replies did not violate 100ms bound")
	}
	if !strings.Contains(v.Detail, "p50") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestReplyLatencyWindowForgets(t *testing.T) {
	a := mustBuild(t, Spec{Type: "replyLatency", Src: "a", Dst: "b", WindowMillis: 1000, MaxLatencyMillis: 100, WithRule: true})
	// A slow reply arrives but stays under the bound's attention only while
	// in-window: after it expires, fast replies must not violate.
	if v := a.Observe(liveReply("r", 0, 200, 90)); v != nil {
		t.Fatalf("90ms violated a 100ms bound: %v", v)
	}
	for i := 0; i < 50; i++ {
		at := 2*time.Second + time.Duration(i)*10*time.Millisecond
		if v := a.Observe(liveReply("r", at, 200, 5)); v != nil {
			t.Fatalf("violation after slow reply expired: %v", v)
		}
	}
}

func TestReplyLatencyUntamperedModeSkipsGremlin(t *testing.T) {
	a := mustBuild(t, Spec{Type: "replyLatency", Src: "a", Dst: "b", MaxLatencyMillis: 100})
	// A Gremlin-synthesized abort reply is not the callee's latency.
	synth := liveReply("r1", 0, 503, 5000)
	synth.GremlinGenerated = true
	if v := a.Observe(synth); v != nil {
		t.Fatalf("synthesized reply judged: %v", v)
	}
	// An injected delay is subtracted before judging.
	delayed := liveReply("r2", 0, 200, 550)
	delayed.InjectedDelayMillis = 500
	if v := a.Observe(delayed); v != nil {
		t.Fatalf("injected delay judged against the callee: %v", v)
	}
	// The same latency with no injected delay violates.
	if v := a.Observe(liveReply("r3", 0, 200, 550)); v == nil {
		t.Fatal("genuine 550ms latency did not violate 100ms bound")
	}
}

func TestReplyLatencyDefaultQuantileIsMax(t *testing.T) {
	if b := mustBuild(t, Spec{Type: "replyLatency", MaxLatencyMillis: 100}); b.q != 1 {
		t.Fatalf("default quantile = %v, want 1", b.q)
	}
}

func TestMonitorCollectsAndCallsBack(t *testing.T) {
	cs := mustBuild(t, Spec{Type: "checkStatus", Status: -1})
	nr := mustBuild(t, Spec{Type: "numRequests"})
	var fired []string
	m := NewMonitor([]*Bound{cs, nr}, func(v Violation) { fired = append(fired, v.Assertion) })

	if m.Violated() {
		t.Fatal("fresh monitor violated")
	}
	m.Observe(liveReply("r1", 0, 503, 1)) // fires checkStatus
	m.Observe(liveReq("r2", 0))           // fires numRequests
	m.Observe(liveReply("r3", 0, 503, 1)) // both already fired: silent

	vs := m.Violations()
	if len(vs) != 2 || vs[0].Assertion != "checkStatus" || vs[1].Assertion != "numRequests" {
		t.Fatalf("violations = %+v", vs)
	}
	if first, ok := m.FirstViolation(); !ok || first.Assertion != "checkStatus" {
		t.Fatalf("first violation = %+v, ok=%v", first, ok)
	}
	if len(fired) != 2 {
		t.Fatalf("callback fired %d times, want 2", len(fired))
	}
	if m.Observed() != 3 {
		t.Fatalf("observed = %d, want 3", m.Observed())
	}
}

func waitSubscribed(t *testing.T, store *eventlog.Store) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for store.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("feed never subscribed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestStoreFeedDeliversAndCancels(t *testing.T) {
	store := eventlog.NewStore()
	m := NewMonitor([]*Bound{mustBuild(t, Spec{Type: "checkStatus", Status: -1})}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- Watch(ctx, StoreFeed(store), "live-*", m, true) }()

	waitSubscribed(t, store)
	good := liveReply("live-1", 0, 200, 1)
	bad := liveReply("live-2", time.Millisecond, 503, 1)
	if err := store.Log(good, bad); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("watch returned %v, want nil on stop-on-violation", err)
		}
	case <-ctx.Done():
		t.Fatal("watch did not stop on violation")
	}
	if !m.Violated() {
		t.Fatal("monitor saw no violation")
	}
}

func TestWatchReturnsContextErrWithoutViolation(t *testing.T) {
	store := eventlog.NewStore()
	m := NewMonitor(nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Watch(ctx, StoreFeed(store), "", m, true) }()
	waitSubscribed(t, store)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("watch err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not return on cancel")
	}
}

const readmeSpecs = `[
  {"type": "checkStatus", "src": "gateway", "dst": "payments",
   "status": -1, "max": 0},
  {"type": "replyLatency", "quantile": 0.99, "maxLatencyMillis": 250,
   "windowMillis": 10000}
]`

func TestSpecBuildAndLoad(t *testing.T) {
	specJSON := `[
		{"type": "checkStatus", "src": "a", "dst": "b", "status": -1, "max": 0},
		{"type": "numRequests", "max": 100, "windowMillis": 1000},
		{"type": "requestRate", "max": 50, "windowMillis": 1000},
		{"type": "replyLatency", "quantile": 0.99, "maxLatencyMillis": 250}
	]`
	specs, err := LoadSpecs(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"checkStatus", "numRequests", "requestRate", "replyLatency"}
	if len(specs) != len(wantNames) {
		t.Fatalf("loaded %d specs, want %d", len(specs), len(wantNames))
	}
	for i, s := range specs {
		if b := mustBuild(t, s); b.spec.Type != wantNames[i] {
			t.Errorf("bound %d = %q, want %q", i, b.spec.Type, wantNames[i])
		}
	}
	if _, err := LoadSpecs(strings.NewReader(readmeSpecs)); err != nil {
		t.Errorf("README example rejected: %v", err)
	}
}

// loadSpecsCases is the table for TestLoadSpecs, and FuzzSpec's seeds.
var loadSpecsCases = []struct {
	name, json string
	ok         bool
}{
	{"empty", `[]`, true},
	{"whole run", `[{"type": "numRequests", "max": 3}]`, true},
	{"exact status", `[{"type": "checkStatus", "status": 503, "max": 2, "pattern": "test-*"}]`, true},
	{"median latency", `[{"type": "replyLatency", "quantile": 0.5, "maxLatencyMillis": 10, "withRule": true}]`, true},
	{"malformed", `{`, false},
	{"not an array", `{"type": "numRequests"}`, false},
	{"unknown type", `[{"type": "nope"}]`, false},
	{"misspelled field", `[{"type": "numRequests", "maximum": 5}]`, false},
	{"negative window", `[{"type": "numRequests", "max": 1, "windowMillis": -1}]`, false},
	{"fractional count", `[{"type": "numRequests", "max": 2.5}]`, false},
	{"fractional status count", `[{"type": "checkStatus", "status": -1, "max": 0.1}]`, false},
	{"negative count", `[{"type": "checkStatus", "status": -1, "max": -1}]`, false},
	{"rate without window", `[{"type": "requestRate", "max": 5}]`, false},
	{"rate without bound", `[{"type": "requestRate", "windowMillis": 1000}]`, false},
	{"quantile above 1", `[{"type": "replyLatency", "quantile": 1.5, "maxLatencyMillis": 10}]`, false},
	{"latency without bound", `[{"type": "replyLatency"}]`, false},
	{"bad pattern", `[{"type": "numRequests", "pattern": "re:("}]`, false},
	{"window overflow", `[{"type": "numRequests", "windowMillis": 1e300}]`, false},
	{"large latency", `[{"type": "replyLatency", "maxLatencyMillis": 1e8}]`, true},
	{"latency under the histogram top", `[{"type": "replyLatency", "maxLatencyMillis": 131071999}]`, true},
	{"latency at the histogram top", `[{"type": "replyLatency", "maxLatencyMillis": 131072000}]`, false},
	{"latency beyond the histogram top", `[{"type": "replyLatency", "maxLatencyMillis": 1e12}]`, false},
	{"latency overflow", `[{"type": "replyLatency", "maxLatencyMillis": 1e300}]`, false},
	{"second spec bad", `[{"type": "numRequests"}, {"type": "numRequests", "max": -2}]`, false},
}

func TestLoadSpecs(t *testing.T) {
	for _, c := range loadSpecsCases {
		specs, err := LoadSpecs(strings.NewReader(c.json))
		if (err == nil) != c.ok {
			t.Errorf("%s: LoadSpecs err = %v, want ok=%v", c.name, err, c.ok)
		}
		if err != nil && specs != nil {
			t.Errorf("%s: rejected input returned specs %+v", c.name, specs)
		}
	}
}

// fuzzStream is a short mixed feed: requests and replies, success, failure
// and severed statuses, a synthesized reply, an injected delay, and late
// arrivals.
var fuzzStream = func() []eventlog.Record {
	synth := liveReply("test-3", 30*time.Millisecond, 503, 1)
	synth.GremlinGenerated = true
	delayed := liveReply("camp-r-1", 40*time.Millisecond, 200, 600)
	delayed.InjectedDelayMillis = 500
	return []eventlog.Record{
		liveReq("test-1", 10*time.Millisecond),
		liveReply("test-1", 20*time.Millisecond, 200, 10),
		liveReq("test-0", 0),
		synth,
		delayed,
		liveReply("test-2", 2*time.Second, 0, 0),
		liveReq("test-2", 5*time.Millisecond),
		liveReply("prod-1", time.Second, 500, 1e9),
	}
}()

func FuzzSpec(f *testing.F) {
	f.Add(readmeSpecs)
	for _, c := range loadSpecsCases {
		f.Add(c.json)
	}
	f.Fuzz(func(t *testing.T, data string) {
		specs, err := LoadSpecs(strings.NewReader(data))
		if err != nil {
			return
		}
		for i, s := range specs {
			b, err := Build(s)
			if err != nil {
				t.Fatalf("spec %d passed LoadSpecs but Build fails: %v", i, err)
			}
			for _, rec := range fuzzStream {
				b.Observe(rec)
			}
		}
	})
}

// TestLiveMatchesBatch is the differential oracle between the live bounds
// and the batch checker: seeded random record sets, fed to a monitor in a
// shuffled order from several goroutines with window 0, must give the
// batch verdict — checkStatus fires iff the matching replies exceed max,
// numRequests iff NumRequests does, and replyLatency admits exactly the
// samples ReplyLatency returns, in both modes.
func TestLiveMatchesBatch(t *testing.T) {
	ends := []string{"a", "b", "c"}
	ids := []string{"test-1", "test-2", "camp-r1-1", "camp-r1-2", "camp-r2-1", ""}
	patterns := []string{"", "test-*", "camp-r1-*", "re:^camp-r[12]-1$"}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			recs := make([]eventlog.Record, 200+rng.Intn(200))
			for i := range recs {
				r := eventlog.Record{
					Timestamp: t0.Add(time.Duration(rng.Intn(5000)) * time.Millisecond),
					RequestID: ids[rng.Intn(len(ids))],
					Src:       ends[rng.Intn(len(ends))],
					Dst:       ends[rng.Intn(len(ends))],
					Kind:      []eventlog.Kind{eventlog.KindRequest, eventlog.KindReply}[rng.Intn(2)],
				}
				if r.Kind == eventlog.KindReply {
					r.Status = []int{0, 200, 200, 503}[rng.Intn(4)]
					r.LatencyMillis = float64(rng.Intn(2000)) / 4
					switch rng.Intn(4) {
					case 0:
						r.GremlinGenerated, r.FaultAction = true, "abort"
					case 1:
						r.InjectedDelayMillis, r.FaultAction = float64(rng.Intn(800))/4, "delay"
					}
				}
				recs[i] = r
			}
			c := New(storeWith(t, recs...))

			type live struct {
				b     *Bound
				fires bool            // the batch verdict, for count bounds
				lats  []time.Duration // ReplyLatency's samples, for latency bounds
			}
			var lives []live
			for _, pat := range patterns {
				src, dst := ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))]
				if rng.Intn(3) == 0 {
					src = ""
				}
				reqs, err := c.GetRequests(src, dst, pat)
				if err != nil {
					t.Fatal(err)
				}
				reps, err := c.GetReplies(src, dst, pat)
				if err != nil {
					t.Fatal(err)
				}
				sel := Spec{Src: src, Dst: dst, Pattern: pat}

				nr := sel
				nr.Type, nr.Max = "numRequests", float64(rng.Intn(len(reqs)+2))
				lives = append(lives, live{b: mustBuild(t, nr), fires: NumRequests(reqs, 0, true) > int(nr.Max)})

				for _, status := range []int{-1, 0, 200, 503} {
					cs := sel
					cs.Type, cs.Status = "checkStatus", status
					n := CountFailures(reps, true)
					if status >= 0 {
						n = 0
						for _, r := range reps {
							if r.Status == status {
								n++
							}
						}
					}
					cs.Max = float64(rng.Intn(n + 2))
					lives = append(lives, live{b: mustBuild(t, cs), fires: n > int(cs.Max)})
				}

				for _, withRule := range []bool{false, true} {
					rl := sel
					rl.Type, rl.MaxLatencyMillis, rl.WithRule = "replyLatency", 1e8, withRule
					lives = append(lives, live{b: mustBuild(t, rl), lats: ReplyLatency(reps, withRule)})
				}
			}

			bounds := make([]*Bound, len(lives))
			for i, l := range lives {
				bounds[i] = l.b
			}
			m := NewMonitor(bounds, nil)
			shuffled := append([]eventlog.Record(nil), recs...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			const feeders = 4
			var wg sync.WaitGroup
			for f := 0; f < feeders; f++ {
				wg.Add(1)
				go func(f int) {
					defer wg.Done()
					for i := f; i < len(shuffled); i += feeders {
						m.Observe(shuffled[i])
					}
				}(f)
			}
			wg.Wait()

			for i, l := range lives {
				s := l.b.spec
				if s.Type != "replyLatency" {
					if l.b.fired != l.fires {
						t.Errorf("bound %d %+v: live fired=%v, batch says %v", i, s, l.b.fired, l.fires)
					}
					continue
				}
				var got, want []float64
				for _, smp := range l.b.w.samples[l.b.w.head:] {
					got = append(got, smp.v)
				}
				for _, d := range l.lats {
					want = append(want, d.Seconds())
				}
				sort.Float64s(got)
				sort.Float64s(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("bound %d %+v: live admitted %v, ReplyLatency %v", i, s, got, want)
				}
			}
		})
	}
}
