package registry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"
)

// FuzzRegister drives POST /v1/instances with an arbitrary body and
// ttlMillis value. The handler must never panic; a 201 must leave the
// echoed service and addr among the members under a lease of at least
// one millisecond, and a 4xx must leave the membership as it was.
func FuzzRegister(f *testing.F) {
	f.Add([]byte(`{"service":"web","addr":"127.0.0.1:8080"}`), "")
	f.Add([]byte(`{"service":"web","addr":"127.0.0.1:8080","replica":1,"agentControlUrl":"http://a"}`), "500")
	f.Add([]byte(`{"service":"db","addr":"h:1"}`), "0")
	f.Add([]byte(`{"service":"web"}`), "1000")
	f.Add([]byte(`{"service":"web","addr":"x","bogus":1}`), "")
	f.Add([]byte(`{"service":"web","addr":"x"} trailing`), "")
	f.Add([]byte(`[1,2]`), "")
	f.Add([]byte(`{"service":"web","addr":"x"}`), "-1")
	f.Add([]byte(`{"service":"web","addr":"x"}`), "abc")
	f.Add([]byte(`{"service":"web","addr":"x"}`), "9223372036854775807")
	f.Add([]byte(`{"service":"web","addr":"x"}`), "76480200929599801") // ×1e6 wraps to 64 ns
	f.Fuzz(func(t *testing.T, body []byte, ttl string) {
		clock := newFakeClock()
		reg := NewDynamic(DynamicOptions{Now: clock.Now})
		if err := reg.Register(Instance{Service: "web", Addr: "127.0.0.1:8080"}, 0); err != nil {
			t.Fatal(err)
		}
		before := reg.Members()

		s := &Server{reg: reg}
		req := httptest.NewRequest(http.MethodPost, "/v1/instances?ttlMillis="+url.QueryEscape(ttl), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.handleRegister(rec, req)

		switch code := rec.Code; {
		case code == http.StatusCreated:
			var in Instance
			if err := json.Unmarshal(rec.Body.Bytes(), &in); err != nil {
				t.Fatalf("201 with an undecodable body %q: %v", rec.Body.Bytes(), err)
			}
			for _, m := range reg.Members() {
				if m.Service == in.Service && m.Addr == in.Addr {
					if lease := m.Expires.Sub(clock.Now()); lease < time.Millisecond {
						t.Fatalf("201 with ttlMillis %q, but the lease is %v", ttl, lease)
					}
					return
				}
			}
			t.Fatalf("201 for %+v, but Members() = %+v", in, reg.Members())
		case code >= 400 && code < 500:
			if after := reg.Members(); !reflect.DeepEqual(after, before) {
				t.Fatalf("%d changed Members() from %+v to %+v", code, before, after)
			}
		default:
			t.Fatalf("status %d, want 201 or 4xx: %s", code, rec.Body.Bytes())
		}
	})
}
