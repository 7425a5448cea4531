package trace

import (
	"strings"
	"testing"
)

// FuzzAppendEI is the differential oracle for AppendEI's fast path: for
// any inbound index, service and ordinal it must return exactly what the
// retained parse → clamp → format path returns, and never exceed the
// bounds.
func FuzzAppendEI(f *testing.F) {
	atFrames := strings.TrimSuffix(strings.Repeat("s#1/", MaxEIFrames), "/")
	atBytes := strings.Repeat("x", MaxEIBytes-len("/svc#7")-2) + "#0"
	for _, seed := range []string{
		"", "a#0", "a#0/b#1/c#2", // canonical
		"a#x/b#1", "a#0//b#1", "/a#0", "a#0/", "a", "#3", "a#", // malformed
		"a#-1", "a#+1", "a#007", "a#0/b#99999999999999999999", "svc#1#2", // ordinals Atoi reads differently
		"a#0/…", "…", "a#0/…/b#9", "…#1", // truncated
		atFrames, strings.TrimSuffix(atFrames, "/s#1"), atFrames + "/s#1", // at the frame bound
		atBytes, atBytes + "x", strings.Repeat("y", 2*MaxEIBytes) + "#0", // at the byte bound
	} {
		f.Add(seed, "svc", 7)
	}
	f.Add("a#0", "", -3)
	f.Add("a#0", "s/v#c", 1<<40)
	f.Fuzz(func(t *testing.T, ei, service string, ordinal int) {
		got, gotTrunc := AppendEI(ei, service, ordinal)
		want, wantTrunc := appendEISlow(ei, service, ordinal)
		if got != want || gotTrunc != wantTrunc {
			t.Fatalf("AppendEI(%q, %q, %d) = %q/%v, parse-clamp-format path gives %q/%v",
				ei, service, ordinal, got, gotTrunc, want, wantTrunc)
		}
		if len(got) > MaxEIBytes {
			t.Fatalf("AppendEI(%q, %q, %d) is %d bytes, above the %d cap", ei, service, ordinal, len(got), MaxEIBytes)
		}
	})
}
