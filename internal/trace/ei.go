package trace

import (
	"net/http"
	"strconv"
	"strings"
)

// HeaderEI carries the execution index of the hop that delivered a
// request: the causal call path from the edge of the system down to this
// hop, as a "/"-joined list of <service>#<ordinal> frames. Each Gremlin
// agent appends one frame per proxied hop — the destination service name
// plus the ordinal of this call among its siblings (same request, same
// parent span, same destination) — and the receiving service relays the
// header on its own outbound calls (Propagate). Two calls that reach the
// same edge along different causal paths therefore carry different
// execution indices, which is what lets the explorer name injection
// points finer than (src, dst) edges.
const HeaderEI = "X-Gremlin-Ei"

// EITruncationMarker is the sentinel frame terminating an execution index
// that hit the depth or byte bound. Once an index carries the marker no
// further frames are appended: on deep or cyclic topologies the header
// stays bounded and the truncation is explicit rather than silent.
const EITruncationMarker = "…"

// Bounds on execution-index growth enforced by AppendEI. A frame is
// ~8-24 bytes for realistic service names, so 32 frames comfortably fit
// the byte cap; the byte cap additionally guards against pathological
// service names.
const (
	MaxEIFrames = 32
	MaxEIBytes  = 1024
)

// EIFrame is one hop of an execution index: the destination service of
// the call and the call's ordinal among its siblings (0-based count of
// prior calls from the same parent span of the same request to the same
// destination — retries and sequential fan-out calls get 0, 1, 2, …).
type EIFrame struct {
	Service string
	Ordinal int
}

// String renders the frame in its wire form, <service>#<ordinal>.
func (f EIFrame) String() string {
	return f.Service + "#" + strconv.Itoa(f.Ordinal)
}

// FormatEI renders frames into the wire form of an execution index. When
// truncated is true the EITruncationMarker is appended as a final frame.
func FormatEI(frames []EIFrame, truncated bool) string {
	var b strings.Builder
	for i, f := range frames {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(f.String())
	}
	if truncated {
		if len(frames) > 0 {
			b.WriteByte('/')
		}
		b.WriteString(EITruncationMarker)
	}
	return b.String()
}

// ParseEI decodes a wire-form execution index into its frames, reporting
// whether the index was truncated. Parsing is forgiving: malformed frames
// (no '#' separator, empty service, non-numeric or negative ordinal) are
// dropped, and anything after a truncation marker is discarded — a header
// corrupted in flight degrades to a shorter path instead of an error.
// ParseEI(FormatEI(frames, t)) round-trips exactly for well-formed
// frames (service names must not contain '/' or '#').
func ParseEI(s string) (frames []EIFrame, truncated bool) {
	if s == "" {
		return nil, false
	}
	for _, part := range strings.Split(s, "/") {
		if part == EITruncationMarker {
			return frames, true
		}
		i := strings.LastIndexByte(part, '#')
		if i <= 0 {
			continue // malformed: no separator or empty service
		}
		n, err := strconv.Atoi(part[i+1:])
		if err != nil || n < 0 {
			continue
		}
		frames = append(frames, EIFrame{Service: part[:i], Ordinal: n})
	}
	return frames, false
}

// CanonicalEI re-encodes a wire-form execution index into its canonical
// form: malformed frames dropped, truncation marker (if any) moved to the
// terminal position. Canonical indices compare by string equality.
func CanonicalEI(s string) string {
	frames, truncated := ParseEI(s)
	return FormatEI(frames, truncated)
}

// AppendEI extends an inbound execution index with one more hop frame,
// enforcing the depth and byte bounds. It returns the new wire-form index
// and whether this append hit a bound (the frame was dropped and the
// index terminated with the truncation marker, or the inbound index was
// already truncated and the frame silently discarded). Agents count every
// true return as a truncation event.
//
// An inbound index that is already canonical and below the bounds — every
// hop's, unless the header was forged — is checked in one scan and extended
// in one allocation; anything else goes through appendEISlow, whose result
// the fast path must equal byte for byte (FuzzAppendEI).
func AppendEI(ei, service string, ordinal int) (string, bool) {
	if n := canonicalEIFrames(ei); n >= 0 && n < MaxEIFrames {
		sep := "/"
		if n == 0 {
			sep = ""
		}
		if out := ei + sep + service + "#" + strconv.Itoa(ordinal); len(out) <= MaxEIBytes {
			return out, false
		}
	}
	return appendEISlow(ei, service, ordinal)
}

// canonicalEIFrames returns the number of frames in ei when ParseEI →
// FormatEI would return ei unchanged and untruncated, and -1 otherwise.
func canonicalEIFrames(ei string) int {
	frames := 0
	for rest := ei; rest != ""; frames++ {
		part, tail, more := strings.Cut(rest, "/")
		h := strings.LastIndexByte(part, '#')
		ord := part[h+1:]
		// No empty final frame, no empty service, and only an ordinal that
		// Atoi → Itoa reproduces (nine digits fit an int on every platform).
		if (more && tail == "") || h <= 0 || ord == "" || len(ord) > 9 || (ord[0] == '0' && len(ord) > 1) ||
			strings.ContainsFunc(ord, func(r rune) bool { return r < '0' || r > '9' }) {
			return -1
		}
		rest = tail
	}
	return frames
}

// appendEISlow is AppendEI by parse → clamp → format: for malformed,
// truncated or at-the-bound input, and the fast path's reference.
func appendEISlow(ei, service string, ordinal int) (string, bool) {
	frames, truncated := ParseEI(ei)
	if truncated {
		// Already at the bound upstream: never grow past the marker.
		return FormatEI(clampEI(frames), true), true
	}
	next := append(frames, EIFrame{Service: service, Ordinal: ordinal})
	out := FormatEI(next, false)
	if len(next) > MaxEIFrames || len(out) > MaxEIBytes {
		return FormatEI(clampEI(frames), true), true
	}
	return out, false
}

// clampEI bounds an inbound frame list that somehow already exceeds the
// caps (a forged or pre-cap header) so AppendEI's output always honors
// them.
func clampEI(frames []EIFrame) []EIFrame {
	if len(frames) > MaxEIFrames {
		frames = frames[:MaxEIFrames]
	}
	for len(frames) > 0 && len(FormatEI(frames, true)) > MaxEIBytes {
		frames = frames[:len(frames)-1]
	}
	return frames
}

// EIFromRequest extracts the wire-form execution index from an HTTP
// request ("" if none).
func EIFromRequest(r *http.Request) string {
	return r.Header.Get(HeaderEI)
}

// SetEI stamps an execution index onto an outgoing request. An empty
// index deletes the header rather than leaving a stale inherited value.
func SetEI(r *http.Request, ei string) {
	if ei == "" {
		r.Header.Del(HeaderEI)
	} else {
		r.Header.Set(HeaderEI, ei)
	}
}
