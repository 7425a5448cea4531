package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/loadgen"
)

// side says whether an op goes through Gremlin or around it.
type side int

const (
	sideAgent  side = iota // the deployment as Gremlin runs it
	sideDirect             // the same backends wired with no agent: the tax baseline
)

// directOpBase offsets direct-side op numbers so a trace never confuses
// the two sides' spans.
const directOpBase = 1 << 40

// runConfig is everything a run is parameterised by. The programs under
// test never see it: they receive only the inputs generated from it.
type runConfig struct {
	seed    int64
	measure time.Duration // measured phase, all segments together
	warmup  time.Duration // unmeasured, before the first segment
	trace   bool
	setups  int           // how many times to build the deployment for setup_s
	outDir  string        // where trace files go; inside the checkout
	workDir string        // this run's scratch directory under outDir (WAL files), removed at exit
	rung    time.Duration // how long one repetition of a ladder rung measures
	// smoke lets a run too short to carry p99 report anyway; the fast
	// tests use it to drive every workload through its oracle.
	smoke bool
	// load1, when non-negative, is the 1-minute load average taken before
	// an all-workloads run began; the workloads that follow the first
	// would otherwise see the load their predecessors made.
	load1 float64
}

// deployment is one built workload: the programs under test, wired up.
type deployment interface {
	// op performs operation n (unique per side, from 1) on behalf of
	// client c and checks its outcome against the workload's oracle. A
	// non-nil error counts the op as failed.
	op(s side, c int, n uint64) error
	// settle runs after every segment, outside the measured window: it
	// drains asynchronous work and checks record conservation, returning
	// how many records the segment's ops must have produced and how many
	// the store holds.
	settle(s side) (expected, found int64, err error)
	close()
}

// workload describes one benchmark workload.
type workload struct {
	name string
	why  string
	// clients is the closed-loop client count; rate, when non-zero, makes
	// the workload open-loop at that many arrivals per second instead.
	clients int
	rate    float64
	// baseline says a no-agent direct wiring exists and its segments are
	// interleaved with the Gremlin ones.
	baseline bool
	build    func(cfg runConfig, tr *tracer) (deployment, error)
	// layers turns a traced run into this workload's per-layer metrics.
	layers func(d deployment, tv *traceView, m map[string]float64)
	// rungs runs the ladder rungs whose inputs come from this workload.
	rungs func(cfg runConfig, d deployment, m map[string]float64) error
}

// maxInFlight caps outstanding open-loop requests; an arrival beyond it
// is shed and counts as a failure.
const maxInFlight = 64

// segKind is what one measured segment runs.
type segKind int

const (
	segAgent    segKind = iota // through Gremlin, tracing off
	segDirect                  // baseline (spans recorded in a traced run: two per op, no visible cost)
	segAgentTrc                // through Gremlin, tracing on
)

// segStat is one segment's measurements.
type segStat struct {
	ops     int64 // completed and correct
	failed  int64 // failed, shed, or oracle miss
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	lat     []int64 // ns per successful op
	late    []int64 // open loop: ns the generator ran behind schedule
	peak    int64   // open loop: highest in-flight count
}

// harness drives one deployment through warm-up and the measured
// segments.
type harness struct {
	w   *workload
	cfg runConfig
	d   deployment
	tr  *tracer

	// next op number per side and client; op numbers never repeat, so
	// request IDs and campaign namespaces never collide.
	nextOp [2][]uint64
	// segOrd numbers each side's segments so both sides draw the same
	// arrival schedules.
	segOrd [2]int

	// sleep waits for the next arrival; tests replace it to stall the
	// generator.
	sleep func(time.Duration)

	errMu sync.Mutex
	errs  []string // first few op errors, for the report
	// oracleMisses counts segments whose settle found the store or the
	// agents in a state the ops cannot explain.
	oracleMisses int64
}

// rampClients is how many closed-loop clients pre-warm an open-loop
// workload. A cold fleet answers its first requests slowly; arrivals that
// keep coming on schedule then pile up, every hop dials fresh
// connections for them, and the pile feeds itself. A short closed-loop
// ramp fills the connection pools first, so the open loop starts from the
// state a long-running deployment is in.
const rampClients = 4

func newHarness(w *workload, cfg runConfig, d deployment, tr *tracer) *harness {
	n := w.clients
	if w.rate > 0 {
		n = rampClients
	}
	h := &harness{w: w, cfg: cfg, d: d, tr: tr, sleep: time.Sleep}
	for s := range h.nextOp {
		h.nextOp[s] = make([]uint64, n)
	}
	return h
}

func (h *harness) noteErr(err error) {
	h.errMu.Lock()
	if len(h.errs) < 5 {
		h.errs = append(h.errs, err.Error())
	}
	h.errMu.Unlock()
}

// opNumber hands client c its next op number on side s: numbers
// interleave across clients (c+1, c+1+clients, ...) so they stay unique
// without sharing a counter on the hot path.
func (h *harness) opNumber(s side, c int) uint64 {
	k := h.nextOp[s][c]
	h.nextOp[s][c]++
	n := k*uint64(len(h.nextOp[s])) + uint64(c) + 1
	if s == sideDirect {
		n += directOpBase
	}
	return n
}

func sideOf(k segKind) side {
	if k == segDirect {
		return sideDirect
	}
	return sideAgent
}

// segment runs one segment of the given kind for dur and settles it. A
// settle that finds the oracle violated is recorded, not fatal: the run
// finishes and reports itself incorrect.
func (h *harness) segment(kind segKind, dur time.Duration) (segStat, int64, int64) {
	s := sideOf(kind)
	if h.tr != nil {
		h.tr.on.Store(kind != segAgent)
	}
	// Start every segment from a collected heap, so where the previous
	// segment left the GC cycle does not leak into this one's numbers.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()

	var st segStat
	if h.w.rate > 0 {
		st = h.openSegment(s, dur)
	} else {
		st = h.closedSegment(s, dur)
	}

	st.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.bytes = m1.TotalAlloc - m0.TotalAlloc
	if h.tr != nil {
		h.tr.on.Store(false)
	}
	expected, found, err := h.d.settle(s)
	if err != nil {
		h.oracleMisses++
		h.noteErr(fmt.Errorf("settle: %w", err))
	}
	return st, expected, found
}

// closedSegment runs the workload's clients back to back until dur has
// passed: each client sends its next op only after the previous one
// completed.
func (h *harness) closedSegment(s side, dur time.Duration) segStat {
	clients := len(h.nextOp[s])
	per := make([]segStat, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			st.lat = make([]int64, 0, 1<<14)
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				n := h.opNumber(s, c)
				ts, traced := h.tr.begin()
				err := h.d.op(s, c, n)
				if traced {
					h.tr.end(kOp, n, ts)
				}
				if err != nil {
					st.failed++
					h.noteErr(err)
					continue
				}
				st.ops++
				st.lat = append(st.lat, int64(time.Since(t0)))
			}
		}(c)
	}
	wg.Wait()
	out := segStat{wall: time.Since(start)}
	for i := range per {
		out.ops += per[i].ops
		out.failed += per[i].failed
		out.lat = append(out.lat, per[i].lat...)
	}
	return out
}

// arrivalOffsets draws the segment's arrival schedule: round(rate*dur)
// exponential gaps (loadgen.Poisson supplies the draws), rescaled so the
// arrivals span dur exactly. Conditioning on the count keeps the offered
// load identical across seeds — only the spacing is random — so ops_s
// measures the system, not the Poisson count's own variance.
func arrivalOffsets(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	if n < 1 {
		n = 1
	}
	p := loadgen.Poisson{RatePerSec: rate}
	offs := make([]time.Duration, n)
	var t time.Duration
	for i := range offs {
		t += p.Next(rng)
		offs[i] = t
	}
	// One more gap closes the window, so the last arrival is not pinned
	// to the segment's end.
	t += p.Next(rng)
	scale := float64(dur) / float64(t)
	for i := range offs {
		offs[i] = time.Duration(float64(offs[i]) * scale)
	}
	return offs
}

// openSegment issues ops on a fixed arrival schedule regardless of how
// many are outstanding. Latency runs from the instant an op was due, so
// a stall in the system (or in this generator) is charged to every op it
// delayed; how late the generator itself sent each op is kept
// separately. An arrival that finds maxInFlight ops outstanding is shed
// and counted as failed.
func (h *harness) openSegment(s side, dur time.Duration) segStat {
	ord := h.segOrd[s]
	h.segOrd[s]++
	rng := rand.New(rand.NewSource(h.cfg.seed*1_000_003 + int64(ord)))
	offs := arrivalOffsets(rng, h.w.rate, dur)

	lat := make([]int64, len(offs)) // 0 = failed or shed
	late := make([]int64, len(offs))
	var (
		wg       sync.WaitGroup
		failed   atomic.Int64
		inFlight atomic.Int64
		peak     int64
	)
	start := time.Now()
	for i, off := range offs {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			h.sleep(d)
		}
		late[i] = int64(time.Since(due))
		n := h.opNumber(s, 0)
		cur := inFlight.Add(1)
		if cur > maxInFlight {
			inFlight.Add(-1)
			failed.Add(1)
			h.noteErr(errors.New("open loop: shed at in-flight cap"))
			continue
		}
		if cur > peak {
			peak = cur
		}
		wg.Add(1)
		go func(i int, n uint64, due time.Time) {
			defer wg.Done()
			defer inFlight.Add(-1)
			ts, traced := h.tr.begin()
			err := h.d.op(s, 0, n)
			if traced {
				h.tr.end(kOp, n, ts)
			}
			if err != nil {
				failed.Add(1)
				h.noteErr(err)
				return
			}
			lat[i] = int64(time.Since(due))
		}(i, n, due)
	}
	wg.Wait()
	out := segStat{wall: time.Since(start), failed: failed.Load(), late: late, peak: peak}
	out.lat = make([]int64, 0, len(lat))
	for _, l := range lat {
		if l > 0 {
			out.lat = append(out.lat, l)
		}
	}
	out.ops = int64(len(out.lat))
	return out
}

// warm runs the deployment unmeasured: caches fill, connections open,
// pools grow, the scheduler spreads goroutines over the cores.
func (h *harness) warm() error {
	sides := []segKind{segAgent}
	if h.w.baseline {
		sides = append(sides, segDirect)
	}
	for _, k := range sides {
		dur := h.cfg.warmup / time.Duration(len(sides))
		if h.w.rate > 0 {
			dur /= 2
			if st := h.closedSegment(sideOf(k), dur); st.failed > 0 {
				return fmt.Errorf("warm-up ramp: %d ops failed: %v", st.failed, h.errs)
			}
		}
		st, expected, found := h.segment(k, dur)
		if st.failed > 0 || h.oracleMisses > 0 || expected != found {
			return fmt.Errorf("warm-up: %d ops failed, %d of %d records found: %v", st.failed, found, expected, h.errs)
		}
	}
	return nil
}

// plan lays out the measured phase as six equal segments. With a direct
// baseline the two sides interleave (A B A A B A) so both see the same
// machine weather. A traced run alternates traced and untraced Gremlin
// segments, which is what yields the tracing overhead.
func (h *harness) plan() []segKind {
	switch {
	case h.cfg.trace && h.w.baseline:
		return []segKind{segAgentTrc, segAgent, segDirect, segAgentTrc, segAgent, segDirect}
	case h.cfg.trace:
		return []segKind{segAgentTrc, segAgent, segAgentTrc, segAgent, segAgentTrc, segAgent}
	case h.w.baseline:
		return []segKind{segAgent, segDirect, segAgent, segAgent, segDirect, segAgent}
	default:
		return []segKind{segAgent, segAgent, segAgent, segAgent, segAgent, segAgent}
	}
}

// pooled is the sum of one kind's segments.
type pooled struct {
	segs    int
	ops     int64
	failed  int64
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	lat     []int64 // sorted
	late    []int64 // sorted
	peak    int64
	segP50  []int64 // each segment's own median: the run's internal spread
}

func (p *pooled) add(st segStat) {
	p.segs++
	p.ops += st.ops
	p.failed += st.failed
	p.wall += st.wall
	p.cpu += st.cpu
	p.mallocs += st.mallocs
	p.bytes += st.bytes
	p.lat = append(p.lat, st.lat...)
	p.late = append(p.late, st.late...)
	if st.peak > p.peak {
		p.peak = st.peak
	}
	p.segP50 = append(p.segP50, medianInt64(append([]int64(nil), st.lat...)))
}

func (p *pooled) p50() float64 {
	if len(p.lat) == 0 {
		return 0
	}
	v, _ := percentile(p.lat, 0.5)
	return float64(v)
}

func (p *pooled) perOp(total float64) float64 {
	if p.ops == 0 {
		return 0
	}
	return total / float64(p.ops)
}

// measured is everything the measured phase yields.
type measured struct {
	kinds    [3]pooled // by segKind
	expected int64     // records the Gremlin-side ops must have produced
	found    int64     // records the store held after each final flush
}

func (h *harness) measure() *measured {
	plan := h.plan()
	seg := h.cfg.measure / time.Duration(len(plan))
	m := &measured{}
	for _, kind := range plan {
		st, expected, found := h.segment(kind, seg)
		m.kinds[kind].add(st)
		if kind != segDirect {
			m.expected += expected
			m.found += found
		}
	}
	for i := range m.kinds {
		slices.Sort(m.kinds[i].lat)
		slices.Sort(m.kinds[i].late)
	}
	return m
}
