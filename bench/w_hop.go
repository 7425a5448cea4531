package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/microservice"
	"gremlin/internal/proxy"
	"gremlin/internal/rules"
	"gremlin/internal/trace"
)

// One agent in front of one leaf backend: the smallest deployment that
// has a Gremlin hop in it. hop_small sends every request down the
// no-fault path; hop_faulted sends a fixed mix down each fault path.

const (
	hopSrc      = "client"
	hopDst      = "backend"
	hopBody     = "ok"
	hopModified = "KO"
	// hopIdleRules is how many installed rules never match the load: the
	// matcher has to look at them, nothing fires.
	hopIdleRules = 200
	// hopDelay is the injected delay of the delay class.
	hopDelay = time.Millisecond
)

// fault classes of hop_faulted, by request-ID prefix.
const (
	classPass = iota
	classAbort
	classDelay
	classModify
	numClasses
)

var classNames = [numClasses]string{"pass", "abort", "delay", "modify"}

// classBlock is the mix, exact in every block of ten ops per client:
// 40 % pass, 20 % each fault. Only the order within a block is seeded,
// so class counts — and with them the medians — do not drift with seed.
var classBlock = [10]uint8{
	classPass, classPass, classPass, classPass,
	classAbort, classAbort, classDelay, classDelay, classModify, classModify,
}

// newHTTPClient returns a client with its own transport and so its own
// connections: one per bench client goroutine, as the harness rules ask.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxInFlight}}
}

// idleRules returns n valid rules on the hop that match no request the
// bench sends, spread over the three HTTP actions and both directions.
func idleRules(n int) []rules.Rule {
	out := make([]rules.Rule, 0, n)
	for i := 0; i < n; i++ {
		r := rules.Rule{
			ID:      fmt.Sprintf("idle-%03d", i),
			Src:     hopSrc,
			Dst:     hopDst,
			Pattern: fmt.Sprintf("test-%d-*", i),
		}
		switch i % 3 {
		case 0:
			r.Action, r.ErrorCode = rules.ActionAbort, http.StatusServiceUnavailable
		case 1:
			r.Action, r.DelayMillis = rules.ActionDelay, 10
		default:
			r.Action, r.On = rules.ActionModify, rules.OnResponse
			r.SearchBytes, r.ReplaceBytes = "a", "b"
		}
		out = append(out, r)
	}
	return out
}

// faultRules are the three rules hop_faulted's classes fire. They are
// installed after the idle rules, so a firing decision has walked past
// every rule that did not match first.
func faultRules() []rules.Rule {
	return []rules.Rule{
		{ID: "fault-abort", Src: hopSrc, Dst: hopDst, Action: rules.ActionAbort,
			Pattern: "abort-*", ErrorCode: http.StatusServiceUnavailable},
		{ID: "fault-delay", Src: hopSrc, Dst: hopDst, Action: rules.ActionDelay,
			Pattern: "delay-*", DelayMillis: hopDelay.Milliseconds()},
		{ID: "fault-modify", Src: hopSrc, Dst: hopDst, On: rules.OnResponse, Action: rules.ActionModify,
			Pattern: "modify-*", SearchBytes: hopBody, ReplaceBytes: hopModified},
	}
}

type hopDeployment struct {
	cfg     runConfig
	faulted bool

	backend *microservice.Service
	agent   *proxy.Agent
	store   *eventlog.Store
	sink    *eventlog.BufferedSink
	tsink   *tracedSink // nil unless traced

	url     [2]string // by side
	clients []*http.Client
	bufs    [][]byte
	// classes[c] is client c's seeded class sequence, cycled.
	classes [][]uint8

	// since the last settle:
	exchanges atomic.Int64             // ops sent through the agent
	byClass   [numClasses]atomic.Int64 // of those, per class
}

func buildHop(faulted bool, clients int) func(runConfig, *tracer) (deployment, error) {
	return func(cfg runConfig, tr *tracer) (deployment, error) {
		d := &hopDeployment{cfg: cfg, faulted: faulted}
		var err error
		d.backend, err = microservice.New(microservice.Config{
			Name:    hopDst,
			Handler: tracedHandler(microservice.LeafHandler(hopBody), tr),
		})
		if err != nil {
			return nil, err
		}
		d.backend.Start()

		d.store = eventlog.NewStore()
		d.sink = eventlog.NewBufferedSink(d.store, 0)
		var sink eventlog.Sink = d.sink
		if tr != nil {
			d.tsink = &tracedSink{BufferedSink: d.sink, tr: tr}
			sink = d.tsink
		}
		d.agent, err = proxy.New(proxy.Config{
			ServiceName: hopSrc,
			Routes:      []proxy.Route{{Dst: hopDst, ListenAddr: "127.0.0.1:0", Targets: []string{d.backend.Addr()}}},
			Sink:        sink,
			RNG:         rand.New(rand.NewSource(cfg.seed)),
		})
		if err != nil {
			d.close()
			return nil, err
		}
		set := idleRules(hopIdleRules)
		if faulted {
			set = append(idleRules(hopIdleRules-3), faultRules()...)
		}
		if err := d.agent.InstallRules(set...); err != nil {
			d.close()
			return nil, err
		}
		d.agent.Start()

		if d.url[sideAgent], err = d.agent.RouteURL(hopDst); err != nil {
			d.close()
			return nil, err
		}
		d.url[sideDirect] = d.backend.URL()
		rng := rand.New(rand.NewSource(cfg.seed ^ 0x686f70))
		for c := 0; c < clients; c++ {
			d.clients = append(d.clients, newHTTPClient())
			d.bufs = append(d.bufs, make([]byte, 256))
			seq := make([]uint8, 0, 1000*len(classBlock))
			for b := 0; b < 1000; b++ {
				blk := classBlock
				rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
				seq = append(seq, blk[:]...)
			}
			// The run's first op belongs to setup_s; keep it a pass under
			// every seed, or set-up would take a millisecond longer whenever
			// the seed drew the delay class first.
			for i, class := range seq[:len(classBlock)] {
				if class == classPass {
					seq[0], seq[i] = seq[i], seq[0]
					break
				}
			}
			d.classes = append(d.classes, seq)
		}
		return d, nil
	}
}

// classOf returns the fault class of op n (always pass on hop_small).
func (d *hopDeployment) classOf(n uint64) int {
	if !d.faulted {
		return classPass
	}
	n = (n - 1) % directOpBase
	c, k := n%uint64(len(d.classes)), n/uint64(len(d.classes))
	return int(d.classes[c][k%uint64(len(d.classes[c]))])
}

// readSmall reads a response body of at most len(buf) bytes.
func readSmall(resp *http.Response, buf []byte) ([]byte, error) {
	defer resp.Body.Close()
	n, err := io.ReadFull(resp.Body, buf)
	if err == nil {
		return nil, errors.New("response body larger than expected")
	}
	if err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}

func (d *hopDeployment) op(s side, c int, n uint64) error {
	class := classPass
	if s == sideAgent {
		class = d.classOf(n)
		d.exchanges.Add(1)
		d.byClass[class].Add(1)
	}
	prefix := "hop"
	if d.faulted {
		prefix = classNames[class]
	}
	req, err := http.NewRequest(http.MethodGet, d.url[s]+"/item", nil)
	if err != nil {
		return err
	}
	req.Header.Set(trace.HeaderRequestID, requestID(prefix, d.cfg.seed, n))
	t0 := time.Now()
	resp, err := d.clients[c].Do(req)
	if err != nil {
		return err
	}
	body, err := readSmall(resp, d.bufs[c])
	if err != nil {
		return err
	}
	wantStatus, wantBody := http.StatusOK, hopBody
	switch class {
	case classAbort:
		wantStatus, wantBody = http.StatusServiceUnavailable, http.StatusText(http.StatusServiceUnavailable)+"\n"
	case classModify:
		wantBody = hopModified
	case classDelay:
		if took := time.Since(t0); took < hopDelay {
			return fmt.Errorf("op %d (delay): answered in %v, under the injected %v", n, took, hopDelay)
		}
	}
	if resp.StatusCode != wantStatus || string(body) != wantBody {
		return fmt.Errorf("op %d (%s): got %d %q, want %d %q", n, classNames[class], resp.StatusCode, body, wantStatus, wantBody)
	}
	return nil
}

// settle checks that every exchange left exactly its request and reply
// record in the store, and that the fired rule named on the replies
// matches the class counts, then empties the store so memory does not
// grow with run length.
func (d *hopDeployment) settle(s side) (expected, found int64, err error) {
	if s == sideDirect {
		return 0, 0, nil
	}
	if err := d.sink.Flush(); err != nil {
		return 0, 0, fmt.Errorf("flush: %w", err)
	}
	expected = 2 * d.exchanges.Swap(0)
	found = int64(d.store.Len())
	var want [numClasses]int64
	for i := range want {
		want[i] = d.byClass[i].Swap(0)
	}
	if d.sink.Dropped() != 0 {
		err = fmt.Errorf("buffered sink dropped %d records", d.sink.Dropped())
	}
	if d.faulted && err == nil {
		replies, serr := d.store.Select(eventlog.Query{Kind: eventlog.KindReply})
		if serr != nil {
			return expected, found, serr
		}
		fired := map[string]int64{}
		for _, r := range replies {
			fired[r.FaultRuleID]++
		}
		for class, id := range map[int]string{classPass: "", classAbort: "fault-abort", classDelay: "fault-delay", classModify: "fault-modify"} {
			if fired[id] != want[class] {
				err = fmt.Errorf("%s: %d replies name rule %q, %d ops sent", classNames[class], fired[id], id, want[class])
			}
		}
	}
	d.store.Clear()
	return expected, found, err
}

func (d *hopDeployment) close() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	if d.agent != nil {
		_ = d.agent.Close()
	}
	if d.sink != nil {
		_ = d.sink.Close()
	}
	if d.backend != nil {
		_ = d.backend.Close()
	}
}

// hopLayers derives the single hop's per-layer figures from a traced
// run. The op span's self time is what is left of the exchange once the
// backend handler and the synchronous Sink.Log calls are taken out: the
// agent's own work plus the second HTTP client/server pair it brings.
func hopLayers(d deployment, tv *traceView, m map[string]float64) {
	h := d.(*hopDeployment)
	pass := func(t *opTree) bool { return h.classOf(t.op) == classPass }
	m["proxy.exchange_self_us"] = tv.median(tv.agent, pass, func(t *opTree) int64 { return t.self[kOp] }) / 1e3
	m["eventlog.sink_log_ns"] = tv.median(tv.agent, pass, func(t *opTree) int64 {
		return t.dur[kSinkLog] / int64(max(t.count[kSinkLog], 1))
	})
	m["microservice.handler_us"] = tv.median(tv.agent, pass, func(t *opTree) int64 { return t.dur[kHandler] }) / 1e3
	m["bench.client_self_us"] = tv.median(tv.direct, nil, func(t *opTree) int64 { return t.self[kOp] }) / 1e3
	if ops := tv.tracedOps(); ops > 0 {
		m["proxy.records_per_exchange"] = float64(h.tsink.records.Load()) / float64(ops)
	}
	// The three layers' medians against the whole op's: medians need not
	// add up, so this says how far the per-layer figures can be trusted
	// to explain the end-to-end one.
	if op := tv.median(tv.agent, pass, func(t *opTree) int64 { return t.dur[kOp] }); op > 0 {
		sink := tv.median(tv.agent, pass, func(t *opTree) int64 { return t.dur[kSinkLog] })
		m["bench.span_coverage_ratio"] = (m["proxy.exchange_self_us"]*1e3 + m["microservice.handler_us"]*1e3 + sink) / op
	}
	if !h.faulted {
		return
	}
	self := func(class int) float64 {
		return tv.median(tv.agent, func(t *opTree) bool { return h.classOf(t.op) == class },
			func(t *opTree) int64 { return t.self[kOp] }) / 1e3
	}
	m["proxy.abort_us"] = self(classAbort)
	m["proxy.modify_us"] = self(classModify)
	m["proxy.delay_overhead_us"] = self(classDelay) - float64(hopDelay)/1e3
}
