package checker

import (
	"reflect"
	"testing"
	"time"

	"gremlin/internal/eventlog"
)

var t0 = time.Date(2026, 7, 4, 10, 0, 0, 0, time.UTC)

type recOpt func(*eventlog.Record)

func withStatus(s int) recOpt { return func(r *eventlog.Record) { r.Status = s } }
func withLatency(ms float64) recOpt {
	return func(r *eventlog.Record) { r.LatencyMillis = ms }
}
func withInjected(ms float64) recOpt {
	return func(r *eventlog.Record) { r.InjectedDelayMillis = ms; r.FaultAction = "delay" }
}
func gremlinMade() recOpt {
	return func(r *eventlog.Record) { r.GremlinGenerated = true; r.FaultAction = "abort" }
}

func reply(src, dst, id string, at time.Duration, opts ...recOpt) eventlog.Record {
	r := eventlog.Record{
		Timestamp: t0.Add(at), RequestID: id, Src: src, Dst: dst,
		Kind: eventlog.KindReply, Status: 200, LatencyMillis: 10,
	}
	for _, o := range opts {
		o(&r)
	}
	return r
}

func request(src, dst, id string, at time.Duration) eventlog.Record {
	return eventlog.Record{
		Timestamp: t0.Add(at), RequestID: id, Src: src, Dst: dst,
		Kind: eventlog.KindRequest, Method: "GET", URI: "/",
	}
}

func storeWith(t *testing.T, recs ...eventlog.Record) *eventlog.Store {
	t.Helper()
	s := eventlog.NewStore()
	if err := s.Log(recs...); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGetRequestsAndReplies(t *testing.T) {
	s := storeWith(t,
		request("a", "b", "test-1", 0),
		reply("a", "b", "test-1", time.Millisecond),
		request("a", "c", "test-2", 2*time.Millisecond),
		request("a", "b", "prod-7", 3*time.Millisecond),
	)
	c := New(s)

	reqs, err := c.GetRequests("a", "b", "test-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].RequestID != "test-1" {
		t.Fatalf("GetRequests = %+v", reqs)
	}

	reps, err := c.GetReplies("a", "b", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Kind != eventlog.KindReply {
		t.Fatalf("GetReplies = %+v", reps)
	}

	all, err := c.GetRequests("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("unfiltered GetRequests = %d", len(all))
	}
}

func TestQueriesPropagateErrors(t *testing.T) {
	c := New(eventlog.NewStore())
	if _, err := c.GetRequests("a", "b", "re:["); err == nil {
		t.Fatal("want pattern error")
	}
	if _, err := c.GetReplies("a", "b", "re:["); err == nil {
		t.Fatal("want pattern error")
	}
}

func TestDestinations(t *testing.T) {
	s := storeWith(t,
		request("web", "auth", "t1", 0),
		request("web", "db", "t2", time.Millisecond),
		request("web", "auth", "t3", 2*time.Millisecond),
		request("other", "cache", "t4", 3*time.Millisecond),
	)
	c := New(s)
	dsts, err := c.Destinations("web")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"auth", "db"}; !reflect.DeepEqual(dsts, want) {
		t.Fatalf("Destinations = %v", dsts)
	}
}

func TestNumRequests(t *testing.T) {
	rl := RList{
		reply("a", "b", "1", 0),
		reply("a", "b", "2", 10*time.Second, gremlinMade(), withStatus(503)),
		reply("a", "b", "3", 20*time.Second),
		reply("a", "b", "4", 2*time.Minute),
	}
	if got := NumRequests(rl, 0, true); got != 4 {
		t.Fatalf("all withRule = %d", got)
	}
	if got := NumRequests(rl, 0, false); got != 3 {
		t.Fatalf("all withoutRule = %d (gremlin-made record should be excluded)", got)
	}
	if got := NumRequests(rl, time.Minute, true); got != 3 {
		t.Fatalf("windowed = %d", got)
	}
	if got := NumRequests(nil, 0, true); got != 0 {
		t.Fatalf("empty = %d", got)
	}
}

func TestReplyLatency(t *testing.T) {
	rl := RList{
		reply("a", "b", "1", 0, withLatency(150), withInjected(100)),
		reply("a", "b", "2", time.Second, withLatency(30)),
		reply("a", "b", "3", 2*time.Second, withLatency(0.5), gremlinMade()),
		request("a", "b", "4", 3*time.Second), // requests carry no latency
	}
	withRule := ReplyLatency(rl, true)
	if want := []time.Duration{150 * time.Millisecond, 30 * time.Millisecond, 500 * time.Microsecond}; !reflect.DeepEqual(withRule, want) {
		t.Fatalf("withRule = %v", withRule)
	}
	withoutRule := ReplyLatency(rl, false)
	if want := []time.Duration{50 * time.Millisecond, 30 * time.Millisecond}; !reflect.DeepEqual(withoutRule, want) {
		t.Fatalf("withoutRule = %v", withoutRule)
	}
}

func TestAtMostAtLeastRequests(t *testing.T) {
	rl := RList{
		reply("a", "b", "1", 0),
		reply("a", "b", "2", time.Second),
		reply("a", "b", "3", 2*time.Second),
	}
	if !AtMostRequests(rl, 0, true, 3) {
		t.Fatal("AtMost 3 of 3 should pass")
	}
	if AtMostRequests(rl, 0, true, 2) {
		t.Fatal("AtMost 2 of 3 should fail")
	}
}

func TestCheckStatus(t *testing.T) {
	rl := RList{
		reply("a", "b", "1", 0, withStatus(503), gremlinMade()),
		reply("a", "b", "2", time.Second, withStatus(503), gremlinMade()),
		reply("a", "b", "3", 2*time.Second, withStatus(200)),
	}
	if !CheckStatus(rl, 503, 2, true) {
		t.Fatal("2 x 503 withRule should pass")
	}
	if CheckStatus(rl, 503, 3, true) {
		t.Fatal("3 x 503 should fail")
	}
	if CheckStatus(rl, 503, 1, false) {
		t.Fatal("withRule=false should ignore gremlin-made 503s")
	}
	if !CheckStatus(rl, 200, 1, false) {
		t.Fatal("real 200 should count")
	}
	if !CheckStatus(rl, 404, 0, true) {
		t.Fatal("zero matches required always passes")
	}
}

func TestIsFailureStatusAndCountFailures(t *testing.T) {
	for status, want := range map[int]bool{0: true, 200: false, 399: false, 404: true, 503: true} {
		if got := IsFailureStatus(status); got != want {
			t.Errorf("IsFailureStatus(%d) = %v", status, got)
		}
	}
	rl := RList{
		reply("a", "b", "1", 0, withStatus(503)),
		reply("a", "b", "2", time.Second, withStatus(0), gremlinMade()),
		reply("a", "b", "3", 2*time.Second, withStatus(200)),
	}
	if got := CountFailures(rl, true); got != 2 {
		t.Fatalf("CountFailures withRule = %d", got)
	}
	if got := CountFailures(rl, false); got != 1 {
		t.Fatalf("CountFailures withoutRule = %d", got)
	}
}

func TestRequestRate(t *testing.T) {
	rl := RList{
		request("a", "b", "1", 0),
		request("a", "b", "2", time.Second),
		request("a", "b", "3", 2*time.Second),
		request("a", "b", "4", 3*time.Second),
	}
	got := RequestRate(rl)
	if got < 1.3 || got > 1.4 { // 4 records over 3 s
		t.Fatalf("RequestRate = %v, want ~1.33", got)
	}
	if RequestRate(nil) != 0 || RequestRate(rl[:1]) != 0 {
		t.Fatal("degenerate lists should report 0")
	}
	same := RList{request("a", "b", "1", 0), request("a", "b", "2", 0)}
	if RequestRate(same) != 0 {
		t.Fatal("zero time span should report 0")
	}
}

func TestMaxLatency(t *testing.T) {
	rl := RList{
		reply("a", "b", "1", 0, withLatency(10)),
		reply("a", "b", "2", time.Second, withLatency(250)),
	}
	if got := MaxLatency(rl, true); got != 250*time.Millisecond {
		t.Fatalf("MaxLatency = %v", got)
	}
	if got := MaxLatency(nil, true); got != 0 {
		t.Fatalf("empty MaxLatency = %v", got)
	}
}

func connClose(src, dst, connID, ruleID string, up, down int64, at time.Duration) eventlog.Record {
	return eventlog.Record{
		Timestamp: t0.Add(at), RequestID: connID, Src: src, Dst: dst,
		Kind: eventlog.KindConnClose, BytesUp: up, BytesDown: down,
		FaultRuleID: ruleID,
	}
}

func TestGetConnsAndCountStreamFaults(t *testing.T) {
	s := storeWith(t,
		eventlog.Record{Timestamp: t0, RequestID: "l4-web-1", Src: "web", Dst: "db", Kind: eventlog.KindConnOpen},
		connClose("web", "db", "l4-web-1", "l4-sever-web-db-sever-1", 100, 220, time.Millisecond),
		connClose("web", "db", "l4-web-2", "", 50, 50, 2*time.Millisecond),
		connClose("web", "db", "l4-web-3", "other-rule-1", 1, 1, 3*time.Millisecond),
		connClose("web", "auth", "l4-web-4", "l4-sever-web-db-sever-1", 9, 9, 4*time.Millisecond),
	)
	c := New(s)

	conns, err := c.GetConns("web", "db", "")
	if err != nil {
		t.Fatal(err)
	}
	// Only conn-close records count as completed connections: the open
	// record and the web->auth edge are excluded.
	if len(conns) != 3 {
		t.Fatalf("conns = %+v", conns)
	}
	if conns[0].BytesUp != 100 || conns[0].BytesDown != 220 {
		t.Fatalf("byte counters = %+v", conns[0])
	}

	if n := CountStreamFaults(conns, "l4-sever-web-db"); n != 1 {
		t.Fatalf("prefix count = %d, want 1", n)
	}
	// Empty prefix counts every faulted connection, not the clean one.
	if n := CountStreamFaults(conns, ""); n != 2 {
		t.Fatalf("any-fault count = %d, want 2", n)
	}
	if n := CountStreamFaults(conns, "nope"); n != 0 {
		t.Fatalf("miss count = %d, want 0", n)
	}
}
