package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"gremlin/internal/metrics"
)

// result is one run of one workload: what -json files hold and what
// -compare reads back.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	WarmupS   float64           `json:"warmupSeconds"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are figures that explain the metrics without being metrics:
	// sample counts, the run's own segment-to-segment spread, hop counts.
	Notes  map[string]float64 `json:"notes,omitempty"`
	Errors []string           `json:"errors,omitempty"`
}

// traceView is a traced run as the workloads' layer functions see it.
type traceView struct {
	agent  []opTree // traced Gremlin-side ops
	direct []opTree // direct-side ops
	m      *measured
}

// median returns the median of f over the ops keep admits (all when nil).
func (tv *traceView) median(ops []opTree, keep func(*opTree) bool, f func(*opTree) int64) float64 {
	vals := make([]int64, 0, len(ops))
	for i := range ops {
		if keep == nil || keep(&ops[i]) {
			vals = append(vals, f(&ops[i]))
		}
	}
	return float64(medianInt64(vals))
}

// tracedOps is how many Gremlin-side ops ran with tracing on.
func (tv *traceView) tracedOps() int64 {
	k := &tv.m.kinds[segAgentTrc]
	return k.ops + k.failed
}

// An end-to-end run builds its deployment several times and reports the
// median as setup_s, so one slow listen() or page fault does not decide
// it: at least setupRounds times, and — most deployments build in
// milliseconds, where noise is proportionally largest — on until
// setupBudget is spent or maxSetupRounds reached.
const (
	setupRounds    = 3
	maxSetupRounds = 15
	setupBudget    = 300 * time.Millisecond
)

// runWorkload builds, warms, measures and tears down one workload.
func runWorkload(w *workload, cfg runConfig, out io.Writer) (*result, error) {
	env := captureEnvironment(cfg.load1)
	began := time.Now()
	if env.NProc < 2 {
		return nil, errors.New("bench needs at least 2 CPUs: clients and the system under test must not share one")
	}
	res := &result{
		Workload: w.name, Traced: cfg.trace, Seed: cfg.seed,
		Seconds: cfg.measure.Seconds(), WarmupS: cfg.warmup.Seconds(),
		Env: env, Metrics: map[string]metric{}, Notes: map[string]float64{},
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up, timed up to and including the first op. The last build is
	// the one the run keeps.
	var (
		d      deployment
		h      *harness
		setups []float64
	)
	// A traced run reports no setup_s and builds once.
	enough := func(built int) bool {
		if built < cfg.setups {
			return false
		}
		return cfg.trace || built >= maxSetupRounds || time.Since(began) >= setupBudget
	}
	for i := 0; !enough(i); i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = w.build(cfg, tr); err != nil {
			return nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		h = newHarness(w, cfg, d, tr)
		if err := d.op(sideAgent, 0, h.opNumber(sideAgent, 0)); err != nil {
			d.close()
			return nil, fmt.Errorf("%s: first op: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()

	if err := h.warm(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	m := h.measure()

	a, b := &m.kinds[segAgent], &m.kinds[segDirect]
	for i := range m.kinds {
		res.Attempted += m.kinds[i].ops + m.kinds[i].failed
		res.Failed += m.kinds[i].failed
	}
	res.Failed += h.oracleMisses
	res.Errors = h.errs
	lossShare := 0.0
	if m.expected > 0 {
		lossShare = 1 - float64(m.found)/float64(m.expected)
	}
	res.Correct = res.Failed == 0 && m.found == m.expected

	if cfg.trace {
		spans := tr.spans()
		resolveParents(spans)
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		res.Notes["spans"] = float64(len(spans))
		tv := &traceView{m: m}
		for _, t := range analyse(spans) {
			if t.op >= directOpBase {
				tv.direct = append(tv.direct, t)
			} else {
				tv.agent = append(tv.agent, t)
			}
		}
		lm := map[string]float64{}
		if w.baseline && b.p50() > 0 {
			lm["tax_ratio"] = a.p50() / b.p50()
			lm["agent_allocs_op"] = a.perOp(float64(a.mallocs)) - b.perOp(float64(b.mallocs))
		}
		if a.p50() > 0 {
			lm["bench.trace_overhead_ratio"] = m.kinds[segAgentTrc].p50() / a.p50()
		}
		// The tail over every Gremlin-side op, traced or not: tracing costs
		// a percent or two, halving the sample would cost the percentile.
		if all := append(append([]int64(nil), a.lat...), m.kinds[segAgentTrc].lat...); len(all) > 0 {
			slices.Sort(all)
			p99, _ := percentile(all, 0.99)
			lm["p99_us"] = float64(p99) / 1e3
		}
		if w.layers != nil {
			w.layers(d, tv, lm)
		}
		if w.rungs != nil {
			if err := w.rungs(cfg, d, lm); err != nil {
				return nil, fmt.Errorf("%s: rungs: %w", w.name, err)
			}
		}
		for _, def := range perLayer {
			res.Metrics[def.name] = metric{Value: lm[def.name], Unit: def.unit}
			delete(lm, def.name)
		}
		if len(lm) > 0 {
			return nil, fmt.Errorf("%s: layer metrics not in the inventory: %v", w.name, metrics.SortedKeys(lm))
		}
		printLayers(out, w, res, path)
		return res, nil
	}

	if len(a.lat) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded: %v", w.name, h.errs)
	}
	if !cfg.smoke && !tailSupported(len(a.lat), 0.99) {
		return nil, fmt.Errorf("%s: %d measured ops cannot carry p99 with %d samples beyond it; run longer",
			w.name, len(a.lat), minBeyond)
	}
	p99, beyond := percentile(a.lat, 0.99)
	set := func(name string, v float64) {
		def, _ := endToEndDef(name)
		res.Metrics[name] = metric{Value: v, Unit: def.unit}
	}
	set("ops_s", float64(a.ops)/a.wall.Seconds())
	set("p50_us", a.p50()/1e3)
	set("cpu_us_op", a.perOp(float64(a.cpu)/1e3))
	set("allocs_op", a.perOp(float64(a.mallocs)))
	set("bytes_op", a.perOp(float64(a.bytes)))
	if w.baseline {
		set("tax_ratio", a.p50()/b.p50())
		set("agent_allocs_op", a.perOp(float64(a.mallocs))-b.perOp(float64(b.mallocs)))
		res.Notes["direct_p50_us"] = b.p50() / 1e3
		res.Notes["direct_ops"] = float64(b.ops)
	}
	set("failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	set("record_loss_share", lossShare)
	set("rss_peak_mb", rssPeakMiB())
	set("setup_s", median(setups))

	res.Notes["setup_rounds"] = float64(len(setups))
	res.Notes["ops"] = float64(a.ops)
	res.Notes["p99_us"] = float64(p99) / 1e3
	res.Notes["p99_samples_beyond"] = float64(beyond)
	lo, hi := a.segP50[0], a.segP50[0]
	for _, v := range a.segP50 {
		lo, hi = min(lo, v), max(hi, v)
	}
	res.Notes["segment_p50_min_us"] = float64(lo) / 1e3
	res.Notes["segment_p50_max_us"] = float64(hi) / 1e3
	res.Notes["records_expected"] = float64(m.expected)
	res.Notes["records_found"] = float64(m.found)
	if w.rate > 0 {
		late, _ := percentile(a.late, 0.99)
		res.Notes["sched_late_p99_us"] = float64(late) / 1e3
		late, _ = percentile(a.late, 0.5)
		res.Notes["sched_late_p50_us"] = float64(late) / 1e3
		res.Notes["peak_in_flight"] = float64(a.peak)
		res.Notes["offered_rate_s"] = w.rate
	}
	if n, ok := d.(interface{ notes(map[string]float64) }); ok {
		n.notes(res.Notes)
	}
	printEndToEnd(out, w, res)
	return res, nil
}

func printEndToEnd(out io.Writer, w *workload, r *result) {
	loop := fmt.Sprintf("closed loop, %d clients", w.clients)
	if w.rate > 0 {
		loop = fmt.Sprintf("open loop, Poisson %.0f/s", w.rate)
	}
	fmt.Fprintf(out, "\n== %s  (%s, seed %d, %.1fs measured after %.1fs warm-up; %s)\n",
		w.name, loop, r.Seed, r.Seconds, r.WarmupS, r.Env.Transport)
	for _, def := range endToEnd {
		mv, ok := r.Metrics[def.name]
		if !ok {
			continue
		}
		extra := ""
		switch def.name {
		case "p50_us":
			extra = fmt.Sprintf("   per-segment p50 %.1f..%.1f", r.Notes["segment_p50_min_us"], r.Notes["segment_p50_max_us"])
		case "tax_ratio":
			extra = fmt.Sprintf("   direct p50 %.1f us over %d ops", r.Notes["direct_p50_us"], int(r.Notes["direct_ops"]))
		case "record_loss_share":
			extra = fmt.Sprintf("   %d of %d records found", int(r.Notes["records_found"]), int(r.Notes["records_expected"]))
		}
		fmt.Fprintf(out, "  %-18s %14.4f %-10s%s\n", def.name, mv.Value, def.unit, extra)
		if def.name == "p50_us" {
			fmt.Fprintf(out, "  %-18s %14.4f %-10s   %d samples, %d beyond; no bound, see README\n",
				"p99_us", r.Notes["p99_us"], "us", int(r.Notes["ops"]), int(r.Notes["p99_samples_beyond"]))
		}
	}
	var notes []string
	for _, k := range metrics.SortedKeys(r.Notes) {
		switch k {
		case "segment_p50_min_us", "segment_p50_max_us", "ops", "p99_us", "p99_samples_beyond",
			"direct_p50_us", "direct_ops", "records_found", "records_expected":
		default:
			notes = append(notes, fmt.Sprintf("%s=%g", k, r.Notes[k]))
		}
	}
	if len(notes) > 0 {
		fmt.Fprintf(out, "  notes: %s\n", strings.Join(notes, " "))
	}
	printVerdict(out, r)
}

func printLayers(out io.Writer, w *workload, r *result, tracePath string) {
	fmt.Fprintf(out, "\n== %s  traced (seed %d, %.1fs; spans in %s)\n", w.name, r.Seed, r.Seconds, tracePath)
	for _, def := range perLayer {
		home := false
		for _, h := range def.home {
			home = home || h == w.name
		}
		if home {
			fmt.Fprintf(out, "  %-36s %14.4f %s\n", def.name, r.Metrics[def.name].Value, def.unit)
		}
	}
	printVerdict(out, r)
}

func printVerdict(out io.Writer, r *result) {
	if r.Env.Noisy {
		fmt.Fprintf(out, "  NOISY: load average %.2f on %d CPUs when the run began\n", r.Env.LoadAvg1, r.Env.NProc)
	}
	if r.Correct {
		fmt.Fprintf(out, "  oracle: ok (%d ops)\n", r.Attempted)
		return
	}
	fmt.Fprintf(out, "  oracle: FAILED (%d of %d ops)\n", r.Failed, r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(out, "    %s\n", e)
	}
}

// makeWorkDir creates the run's scratch directory inside the checkout.
func makeWorkDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
