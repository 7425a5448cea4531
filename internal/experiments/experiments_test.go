package experiments

import (
	"strings"
	"testing"
	"time"
)

// Small, fast experiment options for tests.
func testOpts(requests int) Options {
	return Options{Scale: 0.02, Requests: requests, Seed: 5}
}

func TestFigure5Shape(t *testing.T) {
	series, err := Figure5(testOpts(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4 delays", len(series))
	}
	for _, s := range series {
		// Paper shape: the fastest response is never quicker than the
		// injected delay (no timeout).
		min, err := s.CDF.Min()
		if err != nil {
			t.Fatal(err)
		}
		if min < s.InjectedDelay.Seconds() {
			t.Fatalf("fastest response %.1fms beat the injected delay %s — timeout appeared from nowhere",
				min*1000, s.InjectedDelay)
		}
		if s.TimeoutCheckPassed {
			t.Fatal("the unmodified plugin must fail the timeout check")
		}
	}
	// CDFs are ordered by injected delay.
	for i := 1; i < len(series); i++ {
		prev, _ := series[i-1].CDF.Quantile(0.5)
		cur, _ := series[i].CDF.Quantile(0.5)
		if cur <= prev {
			t.Fatalf("median did not grow with delay: %v then %v", prev, cur)
		}
	}
	var b strings.Builder
	PrintFigure5(&b, series)
	if !strings.Contains(b.String(), "Figure 5") {
		t.Fatal("printer output missing header")
	}
}

func TestFigure6Shape(t *testing.T) {
	r, err := Figure6(testOpts(20))
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: aborted requests answer fast (fallback), no delayed
	// request returns before the injected delay, breaker check fails.
	aMax, err := r.Aborted.Max()
	if err != nil {
		t.Fatal(err)
	}
	dMin, err := r.Delayed.Min()
	if err != nil {
		t.Fatal(err)
	}
	if aMax >= r.InjectedDelay.Seconds() {
		t.Fatalf("aborted requests should be fast, slowest %.1fms", aMax*1000)
	}
	if dMin < r.InjectedDelay.Seconds() {
		t.Fatalf("a delayed request returned early (%.1fms < %s) without a breaker",
			dMin*1000, r.InjectedDelay)
	}
	if r.BreakerCheckPassed {
		t.Fatal("the unmodified plugin must fail the breaker check")
	}
	var b strings.Builder
	PrintFigure6(&b, r)
	if !strings.Contains(b.String(), "Figure 6") {
		t.Fatal("printer output missing header")
	}
}

func TestFigure7Shape(t *testing.T) {
	rows, err := Figure7(testOpts(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want depths 0-4", len(rows))
	}
	wantServices := []int{1, 3, 7, 15, 31}
	for i, r := range rows {
		if r.Services != wantServices[i] {
			t.Fatalf("row %d services = %d, want %d", i, r.Services, wantServices[i])
		}
		if r.Orchestration <= 0 || r.Assertion <= 0 {
			t.Fatalf("row %d has zero timings: %+v", i, r)
		}
		// Paper shape: both control-plane phases stay well under a second.
		if r.Orchestration > time.Second || r.Assertion > time.Second {
			t.Fatalf("control plane too slow at %d services: %+v", r.Services, r)
		}
	}
	var b strings.Builder
	PrintFigure7(&b, rows)
	if !strings.Contains(b.String(), "Figure 7") {
		t.Fatal("printer output missing header")
	}
}

func TestFigure8Shape(t *testing.T) {
	rows, err := Figure8(testOpts(300))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Rules != 0 || rows[len(rows)-1].Rules != 200 {
		t.Fatalf("rule counts = %v...%v", rows[0].Rules, rows[len(rows)-1].Rules)
	}
	for _, r := range rows {
		if r.CDF.Len() != 300 {
			t.Fatalf("row %d has %d samples", r.Rules, r.CDF.Len())
		}
		if r.Summary.P50 <= 0 {
			t.Fatalf("row %d summary = %+v", r.Rules, r.Summary)
		}
	}
	// Paper shape: matching 200 rules costs measurably more than matching
	// none. Medians on a loaded machine are noisy, so compare the cheap
	// end against the expensive end loosely: p50(200 rules) should not be
	// *faster* than half of p50(0 rules).
	if rows[len(rows)-1].Summary.P50 < rows[0].Summary.P50/2 {
		t.Fatalf("200-rule p50 (%v) implausibly faster than 0-rule p50 (%v)",
			rows[len(rows)-1].Summary.P50, rows[0].Summary.P50)
	}
	var b strings.Builder
	PrintFigure8(&b, rows)
	if !strings.Contains(b.String(), "Figure 8") {
		t.Fatal("printer output missing header")
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(testOpts(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTable1(rows); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	PrintTable1(&b, rows)
	if !strings.Contains(b.String(), "Table 1") {
		t.Fatal("printer output missing header")
	}
}

func TestCheckTable1(t *testing.T) {
	good := func() []Table1Row {
		return []Table1Row{
			{Outage: "cascade", Deployment: "fragile", Passed: false},
			{Outage: "cascade", Deployment: "hardened", Passed: true},
			{Outage: "overload", Deployment: "fragile", Passed: false},
			{Outage: "overload", Deployment: "hardened", Passed: true},
		}
	}
	for _, tc := range []struct {
		name string
		edit func([]Table1Row) []Table1Row
		want string // substring of the error; "" = accepted
	}{
		{"correct matrix", func(rs []Table1Row) []Table1Row { return rs }, ""},
		{"fragile passed", func(rs []Table1Row) []Table1Row { rs[2].Passed = true; return rs }, "fragile deployment passed"},
		{"hardened failed", func(rs []Table1Row) []Table1Row { rs[1].Passed = false; return rs }, "hardened deployment failed"},
		{"missing row", func(rs []Table1Row) []Table1Row { return rs[:3] }, "3 rows"},
		{"unknown deployment", func(rs []Table1Row) []Table1Row { rs[3].Deployment = "patched"; return rs }, "unknown deployment"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckTable1(tc.edit(good()))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected the correct matrix: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("accepted")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
