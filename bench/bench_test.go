package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p      float64
		v      int64
		beyond int
	}{{0.5, 50, 50}, {0.99, 99, 1}, {1, 100, 0}, {0.001, 1, 99}} {
		v, beyond := percentile(s, tc.p)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("percentile(1..100, %v) = %d with %d beyond, want %d with %d", tc.p, v, beyond, tc.v, tc.beyond)
		}
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	// p99 first has ten samples beyond it at n = 1000; the issue's round
	// 1100 leaves eleven.
	for n, want := range map[int]bool{0: false, 100: false, 999: false, 1000: true, 1100: true} {
		if got := tailSupported(n, 0.99); got != want {
			t.Errorf("tailSupported(%d, 0.99) = %t, want %t", n, got, want)
		}
	}
	s := make([]int64, 1100)
	if _, beyond := percentile(s, 0.99); beyond != 11 {
		t.Errorf("1100 samples leave %d beyond p99, want 11", beyond)
	}
	if tailSupported(500, 0.99) || !tailSupported(500, 0.95) {
		t.Error("500 samples must carry p95 but not p99")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// whose answers these are.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); got != (12-1.5)/4 {
		t.Errorf("spread = %v, want %v", got, (12-1.5)/4)
	}
	if spread([]float64{3}) != 0 || spread(nil) != 0 {
		t.Error("fewer than two values have no spread")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// Op 1: root [0,100] with children [10,30] and [50,90]; the second has
	// a child [60,70] and an overlapping sibling-in-time [85,95] that
	// started inside it. Op 0 spans never get a parent.
	spans := []span{
		{Kind: kSinkLog, Op: 1, Start: 60, End: 70},
		{Kind: kOp, Op: 1, Start: 0, End: 100},
		{Kind: kHandler, Op: 1, Start: 50, End: 90},
		{Kind: kSinkLog, Op: 1, Start: 10, End: 30},
		{Kind: kSinkLog, Op: 1, Start: 85, End: 95},
		{Kind: kLogBatch, Op: 0, Start: 5, End: 500},
		{Kind: kOp, Op: 2, Start: 200, End: 260},
	}
	resolveParents(spans)
	self := selfTimes(spans)
	type key struct {
		kind       spanKind
		start, end int64
	}
	got := map[key]int64{}
	parent := map[key]key{}
	for i, s := range spans {
		k := key{s.Kind, s.Start, s.End}
		got[k] = self[i]
		if s.Parent >= 0 {
			p := spans[s.Parent]
			parent[k] = key{p.Kind, p.Start, p.End}
		}
	}
	root, handler := key{kOp, 0, 100}, key{kHandler, 50, 90}
	for k, want := range map[key]int64{
		root:                 100 - 20 - 40, // children [10,30] and [50,90]
		handler:              40 - 10 - 5,   // child [60,70], and [85,95] clipped to 90
		{kSinkLog, 60, 70}:   10,
		{kSinkLog, 85, 95}:   10,
		{kLogBatch, 5, 500}:  495,
		{kOp, 200, 260}:      60,
		{kSinkLog, 10, 30}:   20,
		{kSinkLog, 999, 999}: 0,
	} {
		if got[k] != want {
			t.Errorf("self time of %v = %d, want %d", k, got[k], want)
		}
	}
	if parent[handler] != root || parent[key{kSinkLog, 60, 70}] != handler || parent[key{kSinkLog, 85, 95}] != handler {
		t.Errorf("parents wrong: %v", parent)
	}
	if _, has := parent[key{kLogBatch, 5, 500}]; has {
		t.Error("a background span (op 0) was given a parent")
	}

	trees := analyse(spans)
	if len(trees) != 2 || trees[0].op != 1 {
		t.Fatalf("analyse returned %d trees", len(trees))
	}
	tr := trees[0]
	if tr.self[kOp] != 40 || tr.dur[kSinkLog] != 40 || tr.count[kSinkLog] != 3 || tr.leafCount[kHandler] != 0 || tr.leafCount[kSinkLog] != 3 {
		t.Errorf("op tree wrong: %+v", tr)
	}
}

func TestTracerRingKeepsNewest(t *testing.T) {
	tr := &tracer{ring: make([]span, 4), epoch: time.Now()}
	tr.on.Store(true)
	for i := 1; i <= 6; i++ {
		tr.put(kOp, uint64(i), int64(i), int64(i)+1)
	}
	got := tr.spans()
	if len(got) != 4 || got[0].Op != 3 || got[3].Op != 6 {
		t.Errorf("ring holds %+v, want ops 3..6 oldest first", got)
	}
	var off *tracer
	if off.active() {
		t.Error("a nil tracer is active")
	}
}

func TestWriteSpansIsJSON(t *testing.T) {
	spans := []span{{Kind: kOp, Op: 1, Start: 0, End: 9, Parent: -1}, {Kind: kHandler, Op: 1, Start: 2, End: 5, Parent: 0}}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []struct {
		Name               string
		Start, End, Parent int64
		Op                 uint64
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(back) != 2 || back[1].Name != "microservice.handler" || back[1].Parent != 0 || back[1].End != 5 || back[0].Op != 1 {
		t.Errorf("read back %+v", back)
	}
}

func TestRequestIDRoundTrip(t *testing.T) {
	for _, n := range []uint64{1, 42, directOpBase + 7} {
		if got := opOfID(requestID("soak", -3, n)); got != n {
			t.Errorf("opOfID(requestID(%d)) = %d", n, got)
		}
	}
	for _, id := range []string{"", "abc", "abc-", "l4-x", "12"} {
		if got := opOfID(id); got != 0 {
			t.Errorf("opOfID(%q) = %d, want 0", id, got)
		}
	}
}

// stallDeployment answers every op at once.
type stallDeployment struct{}

func (stallDeployment) op(side, int, uint64) error        { return nil }
func (stallDeployment) settle(side) (int64, int64, error) { return 0, 0, nil }
func (stallDeployment) close()                            {}

// TestOpenLoopChargesStallFromDueTime stalls the generator for 50 ms in
// the middle of a segment. Every op that fell due during the stall was
// sent late; its latency must include the wait, and the lateness must be
// reported as such. A clock started at send would show neither.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const (
		rate  = 1000.0
		stall = 50 * time.Millisecond
	)
	w := &workload{name: "stall", rate: rate}
	h := newHarness(w, runConfig{seed: 7}, stallDeployment{}, nil)
	var once sync.Once
	start := time.Now()
	h.sleep = func(d time.Duration) {
		time.Sleep(d)
		if time.Since(start) > 100*time.Millisecond {
			once.Do(func() { time.Sleep(stall) })
		}
	}
	st := h.openSegment(sideAgent, 300*time.Millisecond)
	if st.failed != 0 || st.ops != 300 {
		t.Fatalf("ops %d failed %d, want 300 and 0", st.ops, st.failed)
	}
	// About rate*stall = 50 ops fell due while the generator slept.
	var delayed, charged int
	for i := range st.late {
		if st.late[i] > int64(5*time.Millisecond) {
			delayed++
			if st.lat[i] >= st.late[i] {
				charged++
			}
		}
	}
	if delayed < 35 || delayed > 65 {
		t.Errorf("%d ops were sent more than 5 ms late, want about 50", delayed)
	}
	if charged != delayed {
		t.Errorf("only %d of %d late ops carry the wait in their latency", charged, delayed)
	}
	worst := int64(0)
	for _, l := range st.lat {
		worst = max(worst, l)
	}
	if worst < int64(stall*8/10) {
		t.Errorf("worst latency %v does not show the %v stall", time.Duration(worst), stall)
	}
}

func TestArrivalOffsetsFixCountAndSpan(t *testing.T) {
	newRand := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	a := arrivalOffsets(newRand(1), 180, 2*time.Second)
	b := arrivalOffsets(newRand(2), 180, 2*time.Second)
	if len(a) != 360 || len(b) != 360 {
		t.Fatalf("%d and %d arrivals, want 360 each", len(a), len(b))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= 2*time.Second || a[0] <= 0 {
		t.Errorf("arrivals leave the segment: first %v last %v", a[0], a[len(a)-1])
	}
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Error("two seeds drew the same schedule")
	}
	if c := arrivalOffsets(newRand(1), 180, 2*time.Second); c[17] != a[17] {
		t.Error("one seed drew two schedules")
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "hop_small", "--seed", "3", "--seconds", "10", "--trace", "1"})
	if strings.Join(got, " ") != "--workload hop_small --seed 3 --seconds 10 -trace=1" {
		t.Errorf("driver form: %v", got)
	}
	got = normalizeArgs([]string{"-trace", "-workload", "x"})
	if strings.Join(got, " ") != "-trace -workload x" {
		t.Errorf("bare form: %v", got)
	}
}

func sampleResult(workload string, seed int64, p50 float64) *result {
	return &result{
		Workload: workload, Seed: seed, Seconds: 10, Correct: true, Attempted: 5000,
		Env: environment{Commit: "abc", NProc: 2, GOMAXPROCS: 2, Transport: "loopback"},
		Metrics: map[string]metric{
			"p50_us":            {p50, "us"},
			"ops_s":             {1000, "op/s"},
			"allocs_op":         {176.25, "allocs/op"},
			"record_loss_share": {0, "fraction"},
			"setup_s":           {0.05, "s"},
		},
		Notes: map[string]float64{"ops": 5000},
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "A.json")
	first, second := sampleResult("hop_small", 1, 71.264), sampleResult("hop_small", 2, 70.5)
	for _, r := range []*result{first, second} {
		if err := appendResult(path, r); err != nil {
			t.Fatal(err)
		}
	}
	back, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Seed != 2 || back[0].Metrics["p50_us"] != first.Metrics["p50_us"] ||
		back[0].Env != first.Env || back[0].Notes["ops"] != 5000 {
		t.Errorf("read back %+v", back)
	}

	// The result line: exactly four keys, and under metrics exactly the
	// contract's end-to-end names.
	var buf bytes.Buffer
	if err := printResultLine(&buf, first); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line keys: %s", buf.String())
	}
	var ms map[string]metric
	_ = json.Unmarshal(line["metrics"], &ms)
	for _, def := range endToEnd {
		if _, ok := ms[def.name]; ok != def.contract {
			t.Errorf("result line carries %s = %t, contract says %t", def.name, ok, def.contract)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	// The verdict logic, on bounds of the test's own so it does not move
	// when the benchmark's are re-measured.
	p50 := metricDef{name: "p50_us", unit: "us", rel: 0.10}
	ops := metricDef{name: "ops_s", unit: "op/s", higher: true, rel: 0.10}
	loss := metricDef{name: "record_loss_share", unit: "fraction"}
	setup := metricDef{name: "setup_s", unit: "s", rel: 0.20, abs: 0.1}
	tight := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"same", p50, tight, tight, verdictOK},
		{"better", p50, tight, []float64{80, 81, 79, 80, 82}, verdictOK},
		{"within bound", p50, tight, []float64{108, 109, 107, 108, 110}, verdictOK},
		{"worse", p50, tight, []float64{120, 121, 119, 120, 122}, verdictWorse},
		{"throughput fell", ops, tight, []float64{80, 81, 79, 80, 82}, verdictWorse},
		{"throughput rose", ops, tight, []float64{120, 121, 119, 120, 122}, verdictOK},
		{"too noisy to say", p50, []float64{100, 140, 80, 100, 120}, []float64{120, 121, 119, 120, 122}, verdictUnresolved},
		{"loss must stay zero", loss, []float64{0, 0, 0}, []float64{0, 0, 0.001}, verdictWorse},
		{"loss stayed zero", loss, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictOK},
		{"small setup, absolute allowance", setup, []float64{0.01, 0.011, 0.012}, []float64{0.05, 0.051, 0.052}, verdictOK},
	} {
		if got := judge(tc.def, tc.a, tc.b); got.Verdict != tc.want {
			t.Errorf("%s: %s (worse by %v, allowed %v, spread %v), want %s", tc.name, got.Verdict, got.Worse, got.Allowed, got.Spread, tc.want)
		}
	}

	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "A.json"), filepath.Join(dir, "B.json")
	for i, v := range tight {
		_ = appendResult(pa, sampleResult("hop_small", int64(i), v))
		_ = appendResult(pb, sampleResult("hop_small", int64(i), v*1.3))
		_ = appendResult(pb, sampleResult("l7_bulk", int64(i), v))
	}
	var out bytes.Buffer
	if code := runCompare(pa, pb, &out, io.Discard); code != 1 {
		t.Errorf("compare exit %d, want 1 on a worse metric\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "l7_bulk") {
		t.Errorf("table must show the worse row and skip workloads only one side ran:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(pa, pa, &out, io.Discard); code != 0 {
		t.Errorf("A against itself exits %d\n%s", code, out.String())
	}
}

// benchmarkFile is BENCHMARK.json as the acceptance driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram is the name inventory: every workload
// and metric BENCHMARK.json promises is one this program emits, with the
// same unit, direction and bound — and the other way round.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths %v", f.Paths)
	}

	if len(f.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, fw := range f.Workloads {
		if i >= len(workloads) {
			break
		}
		if w := workloads[i]; fw.Name != w.name || fw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, fw.Name, fw.Why, w.name, w.why)
		}
		if len(fw.Why) > 200 || strings.Contains(fw.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", fw.Name)
		}
	}

	seen := map[string]bool{}
	for _, m := range f.EndToEnd {
		seen[m.Name] = true
		def, ok := endToEndDef(m.Name)
		if !ok || !def.contract {
			t.Errorf("end_to_end %s is not a contract metric of the program", m.Name)
			continue
		}
		better := "lower"
		if def.higher {
			better = "higher"
		}
		if m.Unit != def.unit || m.Better != better || m.Bound != def.rel {
			t.Errorf("end_to_end %s: file says %s/%s/%v, program %s/%s/%v", m.Name, m.Unit, m.Better, m.Bound, def.unit, better, def.rel)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, def := range endToEnd {
		if def.contract && !seen[def.name] {
			t.Errorf("contract metric %s missing from BENCHMARK.json", def.name)
		}
	}

	if len(f.PerLayer) != len(perLayer) {
		t.Errorf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(f.PerLayer), len(perLayer))
	}
	layer := map[string]layerDef{}
	for _, def := range perLayer {
		if _, dup := layer[def.name]; dup {
			t.Errorf("per-layer metric %s listed twice", def.name)
		}
		layer[def.name] = def
		for _, home := range def.home {
			if findWorkload(home) == nil {
				t.Errorf("per-layer metric %s names unknown workload %s", def.name, home)
			}
		}
	}
	for _, m := range f.PerLayer {
		def, ok := layer[m.Name]
		if !ok {
			t.Errorf("per_layer %s is not emitted by the program", m.Name)
		} else if m.Unit != def.unit {
			t.Errorf("per_layer %s: unit %s in file, %s in program", m.Name, m.Unit, def.unit)
		}
		delete(layer, m.Name)
	}
	for name := range layer {
		t.Errorf("per-layer metric %s missing from BENCHMARK.json", name)
	}
}

// TestSmokeEveryWorkload drives each workload for 200 ms, end to end and
// traced: every oracle must pass, every promised metric must be there,
// and every per-layer metric must have come out of its home workload.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds seven deployments")
	}
	emitted := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				seed: 3, measure: 200 * time.Millisecond, warmup: 60 * time.Millisecond,
				trace: traced, setups: 1, smoke: true, load1: -1,
				outDir: t.TempDir(), workDir: t.TempDir(), rung: time.Millisecond,
			}
			res, err := runWorkload(w, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d: %v", w.name, traced, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			if traced {
				if len(res.Metrics) != len(perLayer) {
					t.Errorf("%s: traced run emitted %d metrics, inventory has %d", w.name, len(res.Metrics), len(perLayer))
				}
				for _, def := range perLayer {
					for _, home := range def.home {
						if home == w.name && res.Metrics[def.name].Value != 0 {
							emitted[def.name] = true
						}
					}
				}
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
				continue
			}
			for _, def := range endToEnd {
				mv, ok := res.Metrics[def.name]
				if want := !def.baselineOnly || w.baseline; ok != want {
					t.Errorf("%s: metric %s present=%t, want %t", w.name, def.name, ok, want)
				}
				if def.contract && (mv.Value <= 0 || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0)) {
					t.Errorf("%s: contract metric %s = %v must be positive", w.name, def.name, mv.Value)
				}
			}
			if res.Metrics["failed_share"].Value != 0 || res.Metrics["record_loss_share"].Value != 0 {
				t.Errorf("%s: failed_share %v, record_loss_share %v", w.name, res.Metrics["failed_share"].Value, res.Metrics["record_loss_share"].Value)
			}
		}
	}
	// Counters that read zero on a healthy run cannot prove they were set.
	zeroWhenHealthy := map[string]bool{
		"eventlog.buffer_dropped": true, "eventlog.buffer_retries": true, "rules.decide_allocs": true,
	}
	for _, def := range perLayer {
		if !emitted[def.name] && !zeroWhenHealthy[def.name] {
			t.Errorf("per-layer metric %s never came out non-zero from any of its home workloads %v", def.name, def.home)
		}
	}
}

func TestSoakTopologyIsPinnedAcrossSeeds(t *testing.T) {
	bodies := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		spec, err := soakSpec(seed)
		if err != nil {
			t.Fatal(err)
		}
		if hopsPerRequest(spec) != soakHops || instances(spec) != soakInstances || len(spec.Services) != soakServices {
			t.Errorf("seed %d: %d hops, %d instances", seed, hopsPerRequest(spec), instances(spec))
		}
		bodies[expectedBody(spec, soakPath)] = true
		again, _ := soakSpec(seed)
		if expectedBody(again, soakPath) != expectedBody(spec, soakPath) {
			t.Errorf("seed %d generated two topologies", seed)
		}
	}
	if len(bodies) < 4 {
		t.Errorf("8 seeds produced only %d distinct call trees", len(bodies))
	}
}
