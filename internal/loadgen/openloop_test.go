package loadgen

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestPoissonMeanRate draws a large seeded sample of interarrivals and
// checks the realized mean rate is within tolerance of the configured one.
func TestPoissonMeanRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Poisson{RatePerSec: 200}
	const n = 20000
	var total time.Duration
	for i := 0; i < n; i++ {
		total += p.Next(rng)
	}
	rate := float64(n) / total.Seconds()
	if math.Abs(rate-200)/200 > 0.05 {
		t.Fatalf("realized rate %.1f/s, want 200/s ±5%%", rate)
	}
}

// TestPoissonInterarrivalShape checks exponential shape, not just the
// mean: the coefficient of variation of exponential interarrivals is 1.
func TestPoissonInterarrivalShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := Poisson{RatePerSec: 100}
	const n = 20000
	xs := make([]float64, n)
	mean := 0.0
	for i := range xs {
		xs[i] = p.Next(rng).Seconds()
		mean += xs[i]
	}
	mean /= n
	variance := 0.0
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= n
	cv := math.Sqrt(variance) / mean
	if math.Abs(cv-1) > 0.1 {
		t.Fatalf("coefficient of variation %.3f, want ~1 (exponential)", cv)
	}
}

func TestConstantRate(t *testing.T) {
	c := Constant{RatePerSec: 50}
	if got := c.Next(nil); got != 20*time.Millisecond {
		t.Fatalf("interarrival = %v, want 20ms", got)
	}
}

// TestBurstyModulates checks the MMPP's realized overall rate sits
// between the base and burst rates (it spends time in both states) and is
// deterministic under a fixed seed.
func TestBurstyModulates(t *testing.T) {
	draw := func(seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		b := &Bursty{BaseRatePerSec: 50, BurstRatePerSec: 500, MeanCalm: 200 * time.Millisecond, MeanBurst: 100 * time.Millisecond}
		const n = 20000
		var total time.Duration
		for i := 0; i < n; i++ {
			total += b.Next(rng)
		}
		return float64(n) / total.Seconds()
	}
	rate := draw(3)
	if rate <= 55 || rate >= 495 {
		t.Fatalf("MMPP realized rate %.1f/s not between base 50 and burst 500", rate)
	}
	if rate != draw(3) {
		t.Fatal("seeded MMPP not deterministic")
	}
}

func TestRunOpenLoopRateAndMix(t *testing.T) {
	var mu sync.Mutex
	paths := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths[r.URL.Path]++
		mu.Unlock()
	}))
	defer srv.Close()

	res, err := RunOpenLoop(srv.URL, OpenLoopOptions{
		Arrival:  Poisson{RatePerSec: 400},
		Duration: 500 * time.Millisecond,
		RNG:      rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 0 {
		t.Fatalf("fast server shed %d arrivals", res.Shed)
	}
	if len(res.Samples) != res.Arrivals {
		t.Fatalf("samples %d != arrivals %d with nothing shed", len(res.Samples), res.Arrivals)
	}
	// Offered rate within a loose tolerance (timers make it imprecise,
	// but 400/s over 500 ms should land well inside ±30%).
	if rate := res.OfferedRate(); math.Abs(rate-400)/400 > 0.3 {
		t.Fatalf("offered rate %.1f/s, want ~400/s", rate)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(paths) != 1 || paths["/"] != res.Arrivals {
		t.Fatalf("paths %v, want all %d arrivals on /", paths, res.Arrivals)
	}
}

// stallingArrival is a constant-rate process whose generator stalls once:
// the draw numbered stallAt blocks for stall before returning, as a
// descheduled or garbage-collecting load generator would.
type stallingArrival struct {
	Constant
	stallAt, n int
	stall      time.Duration
}

func (a *stallingArrival) Next(rng *rand.Rand) time.Duration {
	if a.n++; a.n == a.stallAt {
		time.Sleep(a.stall)
	}
	return a.Constant.Next(rng)
}

// TestRunOpenLoopChargesStallFromDueTime stalls the dispatcher for 60 ms
// in the middle of a 1000/s run against an instant server. The ~60
// arrivals that fell due meanwhile are sent late; their latency must carry
// the wait and LateP99 must report it. A clock started at send would show
// a uniformly fast target and hide the queueing.
func TestRunOpenLoopChargesStallFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer srv.Close()
	const stall = 60 * time.Millisecond
	res, err := RunOpenLoop(srv.URL, OpenLoopOptions{
		Arrival:  &stallingArrival{Constant: Constant{RatePerSec: 1000}, stallAt: 100, stall: stall},
		Duration: 300 * time.Millisecond,
		RNG:      rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 0 || res.SuccessRate() != 1 {
		t.Fatalf("shed %d, success rate %.2f against an instant server", res.Shed, res.SuccessRate())
	}
	// The schedule is absolute, so the stall costs no arrivals.
	if res.Arrivals < 250 {
		t.Errorf("%d arrivals in 300 ms at 1000/s: the stall diluted the offered rate", res.Arrivals)
	}
	var worst time.Duration
	charged := 0
	for _, s := range res.Samples {
		worst = max(worst, s.Latency)
		if s.Latency > stall/4 {
			charged++
		}
	}
	if worst < stall*8/10 {
		t.Errorf("worst latency %v does not show the %v stall", worst, stall)
	}
	// Arrivals due in the first three quarters of the stall waited > stall/4.
	if charged < 30 {
		t.Errorf("%d samples carry the stall in their latency, want about 45", charged)
	}
	if res.LateP99 < stall/2 {
		t.Errorf("LateP99 = %v, want the %v stall to show in the generator's lateness", res.LateP99, stall)
	}
}

// TestRunOpenLoopShedsAtCap points a fast arrival process at a stalled
// server with a tiny in-flight cap: arrivals beyond the cap must be shed,
// and issued requests still complete.
func TestRunOpenLoopShedsAtCap(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()

	done := make(chan *OpenLoopResult, 1)
	go func() {
		res, err := RunOpenLoop(srv.URL, OpenLoopOptions{
			Arrival:     Constant{RatePerSec: 500},
			Duration:    300 * time.Millisecond,
			MaxInFlight: 4,
			RNG:         rand.New(rand.NewSource(5)),
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	time.Sleep(400 * time.Millisecond)
	close(release)
	res := <-done
	if res == nil {
		t.Fatal("no result")
	}
	if res.Shed == 0 {
		t.Fatal("stalled server shed nothing despite MaxInFlight=4")
	}
	if res.PeakInFlight > 4 {
		t.Fatalf("peak in-flight %d exceeded cap 4", res.PeakInFlight)
	}
	if got := len(res.Samples); got > 4 {
		t.Fatalf("%d issued requests with cap 4", got)
	}
	if res.Arrivals != len(res.Samples)+res.Shed {
		t.Fatalf("arrivals %d != issued %d + shed %d", res.Arrivals, len(res.Samples), res.Shed)
	}
}

func TestRunOpenLoopValidation(t *testing.T) {
	if _, err := RunOpenLoop("", OpenLoopOptions{Arrival: Constant{RatePerSec: 1}, Duration: time.Millisecond}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, err := RunOpenLoop("http://x", OpenLoopOptions{Duration: time.Millisecond}); err == nil {
		t.Fatal("missing arrival process accepted")
	}
	if _, err := RunOpenLoop("http://x", OpenLoopOptions{Arrival: Constant{RatePerSec: 1}}); err == nil {
		t.Fatal("missing duration and context accepted")
	}
}
