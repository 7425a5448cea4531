package rules

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMatcherDecideInstallRemoveClearStress hammers the lock-free Decide
// path from many goroutines while rules are concurrently installed,
// removed, and cleared. Run with -race; the invariant is that every
// decision observes a consistent snapshot (a fired rule is always fully
// formed) and nothing panics or deadlocks.
func TestMatcherDecideInstallRemoveClearStress(t *testing.T) {
	m := NewMatcher(rand.New(rand.NewSource(11)))
	if err := m.Install(validAbort()); err != nil {
		t.Fatal(err)
	}

	const (
		readers   = 8
		decisions = 2000
		mutations = 300
	)
	var stop atomic.Bool
	var wg sync.WaitGroup

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < decisions; i++ {
				d := m.Decide(Message{
					Src: "serviceA", Dst: "serviceB", Type: OnRequest,
					RequestID: fmt.Sprintf("test-%d-%d", w, i),
				})
				if d.Fired && d.Rule.ID == "" {
					t.Error("fired decision carries a zero rule")
					return
				}
				// Also exercise the other read paths.
				if i%64 == 0 {
					m.Len()
					m.RuleSet()
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < mutations; i++ {
			extra := validDelay()
			extra.ID = fmt.Sprintf("extra-%d", i)
			if err := m.Install(extra); err != nil {
				t.Errorf("install: %v", err)
				return
			}
			if i%3 == 0 {
				if ok, err := dropRule(m, extra.ID); !ok || err != nil {
					t.Errorf("remove %s: found=%v err=%v", extra.ID, ok, err)
					return
				}
			}
			if i%97 == 0 {
				m.Clear()
				if err := m.Install(validAbort()); err != nil {
					t.Errorf("reinstall after clear: %v", err)
					return
				}
			}
		}
	}()

	wg.Wait()
	if !stop.Load() {
		t.Fatal("mutator did not finish")
	}
}

// TestLinearScanDecisionsMatchIndexed checks the ablation mode is
// decision-equivalent to the indexed fast path across routes, directions,
// and pattern forms.
func TestLinearScanDecisionsMatchIndexed(t *testing.T) {
	build := func(linear bool) *Matcher {
		m := NewMatcher(rand.New(rand.NewSource(1)))
		m.UseLinearScan(linear)
		var batch []Rule
		for i := 0; i < 20; i++ {
			r := validDelay()
			r.ID = fmt.Sprintf("r%d", i)
			r.Src = fmt.Sprintf("svc%d", i%4)
			r.Dst = fmt.Sprintf("dst%d", i%3)
			if i%2 == 0 {
				r.On = OnResponse
			}
			r.Pattern = fmt.Sprintf("test-%d-*", i%5)
			batch = append(batch, r)
		}
		if err := m.Install(batch...); err != nil {
			t.Fatal(err)
		}
		return m
	}
	indexed, linear := build(false), build(true)

	for src := 0; src < 5; src++ {
		for dst := 0; dst < 4; dst++ {
			for _, typ := range []MessageType{OnRequest, OnResponse} {
				for pat := 0; pat < 6; pat++ {
					msg := Message{
						Src:       fmt.Sprintf("svc%d", src),
						Dst:       fmt.Sprintf("dst%d", dst),
						Type:      typ,
						RequestID: fmt.Sprintf("test-%d-abc", pat),
					}
					a, b := indexed.Decide(msg), linear.Decide(msg)
					if a.Matched != b.Matched || a.Fired != b.Fired || a.Rule.ID != b.Rule.ID {
						t.Fatalf("divergence on %+v: indexed=%+v linear=%+v", msg, a, b)
					}
				}
			}
		}
	}
}

// TestIndexedDecidePreservesInsertionOrder pins first-match-wins semantics
// within one (src, dst, type) bucket on the indexed path.
func TestIndexedDecidePreservesInsertionOrder(t *testing.T) {
	m := NewMatcher(rand.New(rand.NewSource(1)))
	first := validAbort()
	second := validAbort()
	second.ID = "second"
	second.ErrorCode = 404
	if err := m.Install(first, second); err != nil {
		t.Fatal(err)
	}
	d := m.Decide(Message{Src: "serviceA", Dst: "serviceB", Type: OnRequest, RequestID: "test-1"})
	if !d.Fired || d.Rule.ID != "r1" {
		t.Fatalf("Decide = %+v, want first installed rule r1", d)
	}
	if ok, err := dropRule(m, "r1"); !ok || err != nil {
		t.Fatalf("remove r1: found=%v err=%v", ok, err)
	}
	d = m.Decide(Message{Src: "serviceA", Dst: "serviceB", Type: OnRequest, RequestID: "test-1"})
	if !d.Fired || d.Rule.ID != "second" {
		t.Fatalf("Decide after remove = %+v, want rule second", d)
	}
}
