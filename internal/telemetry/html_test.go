package telemetry

import (
	"strings"
	"testing"

	"gremlin/internal/campaign"
	"gremlin/internal/graph"
)

func TestHTMLReport(t *testing.T) {
	st := NewSeriesStore(0)
	synthesize(st, 15)
	windows := []Window{{
		Unit: "delay-web->db", RunID: "r1",
		Edges: []graph.Edge{{Src: "web", Dst: "db"}},
		Start: at(10), End: at(15),
		Status: campaign.StatusFailed,
	}}
	units := []campaign.UnitTelemetry{{
		Unit: "delay-web->db", Service: "web",
		BaselineP99Millis: 5, FaultP99Millis: 150,
		Recovered: true, RecoveryMillis: 1000,
	}}
	out := HTMLReport("campaign tele <smoke>", st, windows, units)
	for _, want := range []string{
		"<svg",                        // sparkline rendered
		"polyline",                    // the p99 series line
		"class=\"window\"",            // fault-window shading
		"✕ delay-web-&gt;db",          // failed window labeled in text, not color alone
		"campaign tele &lt;smoke&gt;", // title escaped
		"prefers-color-scheme: dark",  // dark scope present
		"--series-1: #2a78d6",         // palette via custom properties
		"5.0 → 150",                   // differential row present
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "<script") {
		t.Error("report must be static markup")
	}
}
