package trace

import (
	"net/http"
	"net/textproto"
	"testing"
)

// TestHeaderConstantsCanonical pins every exported header constant to its
// canonical MIME form. A non-canonical spelling costs an allocation on
// every Get/Set/Del, and Stamp indexes the header map with the constants
// directly.
func TestHeaderConstantsCanonical(t *testing.T) {
	for _, h := range []string{HeaderRequestID, HeaderSpan, HeaderParentSpan, HeaderEI} {
		if c := textproto.CanonicalMIMEHeaderKey(h); h != c {
			t.Errorf("header constant %q is not canonical (%q)", h, c)
		}
	}
}

// TestAllocBudgets holds the per-hop helpers to the allocations they need:
// the string or value slice they return or store, never a scratch buffer,
// frame list or canonicalised key.
func TestAllocBudgets(t *testing.T) {
	gen := NewGenerator("sp-client-agent-", nil)
	deep := "gateway#0/checkout#1/payments#0"
	r, err := http.NewRequest(http.MethodGet, "http://a/", nil)
	if err != nil {
		t.Fatal(err)
	}
	SetRequestID(r, "test-1")
	ids := [3]string{"sp-1", "sp-0", deep}
	var sinkStr string
	for _, c := range []struct {
		name   string
		budget float64
		fn     func()
	}{
		{"Generator.Next", 1, func() { sinkStr = gen.Next() }},
		{"AppendEI depth 3", 1, func() { sinkStr, _ = AppendEI(deep, "ledger", 2) }},
		{"FromRequest+SpanFromRequest+EIFromRequest", 0, func() {
			sinkStr = FromRequest(r) + SpanFromRequest(r) + EIFromRequest(r)
		}},
		// One value slice per header stored, nothing for the keys.
		{"SetSpan+SetEI", 3, func() { SetSpan(r, "sp-1", "sp-0"); SetEI(r, deep) }},
		{"Stamp", 0, func() { Stamp(r.Header, &ids) }},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.budget {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", c.name, got, c.budget)
		}
	}
	_ = sinkStr
}

// TestStamp checks Stamp against SetSpan+SetEI, and that the value slices
// it cuts cannot grow into each other.
func TestStamp(t *testing.T) {
	ids := [3]string{"sp-1", "", "a#0"}
	h := http.Header{HeaderParentSpan: {"stale"}, HeaderEI: {"stale"}}
	Stamp(h, &ids)
	want, _ := http.NewRequest(http.MethodGet, "http://a/", nil)
	SetSpan(want, "sp-1", "")
	SetEI(want, "a#0")
	if len(h) != len(want.Header) || h.Get(HeaderSpan) != "sp-1" || h.Get(HeaderEI) != "a#0" {
		t.Fatalf("Stamp gave %v, SetSpan+SetEI gives %v", h, want.Header)
	}
	h.Add(HeaderSpan, "appended")
	if ids[1] != "" || h.Get(HeaderEI) != "a#0" {
		t.Fatalf("Add on a stamped header overwrote its neighbour: ids %q, header %v", ids, h)
	}
}
