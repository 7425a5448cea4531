package telemetry

import (
	"testing"
	"time"

	"gremlin/internal/campaign"
	"gremlin/internal/graph"
	"gremlin/internal/rules"
)

// synthesize writes a scrape-per-second history for service web: fast
// latencies up to the scrape at 10, slow ones in the scrapes after it
// through lastSlow, fast again after. Counters are cumulative across the
// whole run, as real scrapes are.
func synthesize(st *SeriesStore, lastSlow int) {
	var total, slow, aborted float64
	for i := 0; i <= 25; i++ {
		ts := at(float64(i))
		total += 10 // 10 req/s
		inWindow := i > 10 && i <= lastSlow
		if inWindow {
			slow += 10 // every request delayed past 100ms
			aborted += 2
		}
		match := map[string]string{"service": "web", "instance": "web"}
		st.Append(ts, familyProxied, match, total)
		st.Append(ts, familyAborted, match, aborted)
		st.Append(ts, familyDuration+"_count", match, total)
		buckets := map[string]float64{
			"0.01": total - slow, // fast requests land under 10ms
			"0.25": total,        // slow ones under 250ms
		}
		for le, v := range buckets {
			lm := map[string]string{"service": "web", "instance": "web", "le": le}
			st.Append(ts, familyDuration+"_bucket", lm, v)
		}
		lm := map[string]string{"service": "web", "instance": "web", "le": "+Inf"}
		st.Append(ts, familyDuration+"_bucket", lm, total)
	}
}

func TestDifferDelayWindow(t *testing.T) {
	st := NewSeriesStore(0)
	synthesize(st, 15)
	w := Window{
		Unit:   "delay-web->db",
		RunID:  "r1",
		Kind:   "delay",
		Target: "web->db",
		Edges:  []graph.Edge{{Src: "web", Dst: "db"}},
		Start:  at(10),
		End:    at(15),
		Status: campaign.StatusPassed,
	}
	d := NewDiffer(st, []Window{w})
	ut, ok := d.Diff(w)
	if !ok {
		t.Fatal("no differential computed")
	}
	if ut.Service != "web" {
		t.Fatalf("measured service = %s, want web (faulted edge Src)", ut.Service)
	}
	if ut.FaultP99Millis <= ut.BaselineP99Millis {
		t.Fatalf("fault p99 %.1fms not above baseline %.1fms", ut.FaultP99Millis, ut.BaselineP99Millis)
	}
	if ut.BaselineP99Millis <= 0 || ut.BaselineP99Millis > 10 {
		t.Fatalf("baseline p99 = %.1fms, want fast", ut.BaselineP99Millis)
	}
	if ut.FaultP99Millis < 100 {
		t.Fatalf("fault p99 = %.1fms, want >= 100 (delayed bucket)", ut.FaultP99Millis)
	}
	if ut.FaultErrorRatio <= ut.BaselineErrorRatio {
		t.Fatalf("fault error ratio %.2f not above baseline %.2f", ut.FaultErrorRatio, ut.BaselineErrorRatio)
	}
	if ut.BaselineRate < 9 || ut.BaselineRate > 11 {
		t.Fatalf("baseline rate = %.1f, want ~10", ut.BaselineRate)
	}
	if !ut.Recovered || ut.RecoveryMillis <= 0 {
		t.Fatalf("recovery = %v/%dms, want recovered with positive time", ut.Recovered, ut.RecoveryMillis)
	}
	// Post-window scrapes are fast again: recovery lands on the first
	// usable scrape after the window.
	if ut.RecoveryMillis > 3000 {
		t.Fatalf("recovery = %dms, want prompt", ut.RecoveryMillis)
	}
}

// TestDifferRecoveryFromFirstScrapeAfterWindow: the window closes at 15.5,
// after the fault load's last slow exchanges, which only the scrape at 16
// reports. Recovery counts from that scrape, so those exchanges do not
// hold the recovery p99 up.
func TestDifferRecoveryFromFirstScrapeAfterWindow(t *testing.T) {
	st := NewSeriesStore(0)
	synthesize(st, 16)
	w := Window{
		Unit: "delay-web->db", RunID: "r1",
		Edges: []graph.Edge{{Src: "web", Dst: "db"}},
		Start: at(10), End: at(15.5), Status: campaign.StatusPassed,
	}
	ut, ok := NewDiffer(st, []Window{w}).Diff(w)
	if !ok {
		t.Fatal("no differential computed")
	}
	if !ut.Recovered || ut.RecoveryMillis != 1500 {
		t.Fatalf("recovery = %v/%dms, want recovered at the second scrape after the window (1500ms)", ut.Recovered, ut.RecoveryMillis)
	}
}

func TestDifferBaselineExcludesOtherWindows(t *testing.T) {
	st := NewSeriesStore(0)
	synthesize(st, 15)
	// A second window covering the slow span: when diffing a later
	// window, the slow span must be carved out of its baseline.
	polluter := Window{
		Unit: "u-pollute", RunID: "r-pollute",
		Edges: []graph.Edge{{Src: "web", Dst: "db"}},
		Start: at(10), End: at(15), Status: campaign.StatusPassed,
	}
	later := Window{
		Unit: "u-later", RunID: "r-later",
		Edges: []graph.Edge{{Src: "web", Dst: "db"}},
		Start: at(20), End: at(24), Status: campaign.StatusPassed,
	}
	d := NewDiffer(st, []Window{polluter, later})
	ut, ok := d.Diff(later)
	if !ok {
		t.Fatal("no differential for later window")
	}
	// With the polluter carved out, the later window's baseline is all
	// fast traffic.
	if ut.BaselineP99Millis > 10 {
		t.Fatalf("baseline p99 = %.1fms; polluter window leaked into baseline", ut.BaselineP99Millis)
	}
}

func TestDifferSkipsActiveAndSilentWindows(t *testing.T) {
	st := NewSeriesStore(0)
	d := NewDiffer(st, nil)
	if _, ok := d.Diff(Window{Unit: "open", Start: at(0)}); ok {
		t.Fatal("active window should not diff")
	}
	if _, ok := d.Diff(Window{Unit: "silent", Start: at(0), End: at(1), Service: "ghost"}); ok {
		t.Fatal("window with no scraped signal should not diff")
	}
}

func TestRecorderWindows(t *testing.T) {
	r := NewRecorder()
	u := campaign.Unit{Key: "k1", Kind: "delay", Service: "db", Target: "web->db"}
	rs := []rules.Rule{{ID: "rule-1", Src: "web", Dst: "db"}}
	r.RunStarted(u, "run-1", rs)
	if n := len(r.ActiveWindows()); n != 1 {
		t.Fatalf("active windows = %d", n)
	}
	time.Sleep(time.Millisecond)
	r.RunFinished(u, "run-1", campaign.Entry{Status: campaign.StatusFailed})
	ws := r.Windows()
	if len(ws) != 1 || ws[0].Active() {
		t.Fatalf("windows = %+v", ws)
	}
	w := ws[0]
	if w.Status != campaign.StatusFailed || !w.End.After(w.Start) {
		t.Fatalf("window = %+v", w)
	}
	if len(w.Edges) != 1 || w.Edges[0].Src != "web" || len(w.RuleIDs) != 1 {
		t.Fatalf("window edges/rules = %+v", w)
	}
	// Unmatched finish is ignored.
	r.RunFinished(u, "run-unknown", campaign.Entry{})
}
