package rules

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchmarkMatcherDecide measures lock-free indexed decisions against the
// pre-overhaul linear scan, under parallel load (the agent decides on every
// concurrently proxied message). Rules are spread across distinct routes —
// the shape a real recipe produces — so the index visits only the probed
// route's bucket while the scan visits every rule.
func benchmarkMatcherDecide(b *testing.B, count int, linear bool) {
	m := NewMatcher(rand.New(rand.NewSource(1)))
	m.UseLinearScan(linear)
	batch := make([]Rule, 0, count)
	for i := 0; i < count; i++ {
		batch = append(batch, Rule{
			ID: fmt.Sprintf("r%d", i), Src: fmt.Sprintf("svc-%d", i), Dst: "server",
			Action: ActionDelay, Pattern: fmt.Sprintf("re:^never-%d-[0-9]+$", i),
			DelayMillis: 1,
		})
	}
	if err := m.Install(batch...); err != nil {
		b.Fatal(err)
	}
	msg := Message{Src: "client", Dst: "server", Type: OnRequest, RequestID: "test-12345"}
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if d := m.Decide(msg); d.Fired {
				b.Error("no rule should match")
				return
			}
		}
	})
}

func BenchmarkMatcherDecideIndexed200Rules(b *testing.B) { benchmarkMatcherDecide(b, 200, false) }
func BenchmarkMatcherDecideLinear200Rules(b *testing.B)  { benchmarkMatcherDecide(b, 200, true) }
func BenchmarkMatcherDecideIndexed10Rules(b *testing.B)  { benchmarkMatcherDecide(b, 10, false) }
func BenchmarkMatcherDecideLinear10Rules(b *testing.B)   { benchmarkMatcherDecide(b, 10, true) }
