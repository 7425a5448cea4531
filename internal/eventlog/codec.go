package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// The wire, WAL and dump format of a Record is defined as the bytes
// encoding/json produces for it (DESIGN.md §9). This file implements that
// format by hand: AppendRecord writes exactly json.Marshal's bytes, and
// recordDecoder reads them back in one pass. Whatever the decoder does not
// recognise as AppendRecord's own output is handed to encoding/json, so
// what is accepted, what is rejected and with which error stay the
// standard library's decisions. A list of records, wherever it travels,
// is JSON Lines: one record and a newline each.

const hexDigits = "0123456789abcdef"

// bufPool recycles the buffers records are encoded into and bodies are
// read into whole: a flush's NDJSON body, a WAL batch, a query reply.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// readAll is io.ReadAll into dst's spare capacity.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// AppendRecord appends the JSON encoding of r to dst — byte for byte what
// json.Marshal(r) returns — and fails where json.Marshal fails: a
// timestamp RFC 3339 cannot express, or a NaN or infinite latency. On
// error dst is returned unextended.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '{')
	if r.Seq != 0 {
		dst = append(dst, `"seq":`...)
		dst = strconv.AppendUint(dst, r.Seq, 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"ts":`...)
	dst, err := appendTime(dst, r.Timestamp)
	if err != nil {
		return dst[:start], err
	}
	dst = appendOptString(dst, `,"requestId":`, r.RequestID)
	dst = appendOptString(dst, `,"spanId":`, r.SpanID)
	dst = appendOptString(dst, `,"parentSpanId":`, r.ParentSpanID)
	dst = appendOptString(dst, `,"ei":`, r.EI)
	dst = appendString(append(dst, `,"src":`...), r.Src)
	dst = appendString(append(dst, `,"dst":`...), r.Dst)
	dst = appendString(append(dst, `,"kind":`...), string(r.Kind))
	dst = appendOptString(dst, `,"method":`, r.Method)
	dst = appendOptString(dst, `,"uri":`, r.URI)
	if r.Status != 0 {
		dst = strconv.AppendInt(append(dst, `,"status":`...), int64(r.Status), 10)
	}
	if dst, err = appendOptFloat(dst, `,"latencyMillis":`, r.LatencyMillis); err != nil {
		return dst[:start], err
	}
	dst = appendOptString(dst, `,"faultAction":`, r.FaultAction)
	dst = appendOptString(dst, `,"faultRuleId":`, r.FaultRuleID)
	if dst, err = appendOptFloat(dst, `,"injectedDelayMillis":`, r.InjectedDelayMillis); err != nil {
		return dst[:start], err
	}
	if r.GremlinGenerated {
		dst = append(dst, `,"gremlinGenerated":true`...)
	}
	dst = appendOptString(dst, `,"agent":`, r.Agent)
	if r.BytesUp != 0 {
		dst = strconv.AppendInt(append(dst, `,"bytesUp":`...), r.BytesUp, 10)
	}
	if r.BytesDown != 0 {
		dst = strconv.AppendInt(append(dst, `,"bytesDown":`...), r.BytesDown, 10)
	}
	return append(dst, '}'), nil
}

// appendLines appends recs as JSON Lines, one record and a newline each:
// an ingest body, a query reply (which is a dump).
func appendLines(dst []byte, recs []Record) ([]byte, error) {
	var err error
	for i := range recs {
		if dst, err = AppendRecord(dst, &recs[i]); err != nil {
			return dst, err
		}
		dst = append(dst, '\n')
	}
	return dst, nil
}

// writeLines writes recs to bw as JSON Lines, encoding into bw's own
// buffer, and returns how many records it wrote.
func writeLines(bw *bufio.Writer, recs []Record) (int, error) {
	for i := range recs {
		line, err := AppendRecord(bw.AvailableBuffer(), &recs[i])
		if err != nil {
			return i, err
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return i, err
		}
	}
	return len(recs), nil
}

// appendTime appends t as Time.MarshalJSON renders it: quoted RFC 3339
// with nanoseconds. The two timestamps RFC 3339 cannot carry (a year
// outside [0,9999], a zone offset of 24 h or more) are left to
// MarshalJSON itself, which reports them.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	b := dst[start+1:]
	strict := b[4] == '-'
	if strict && b[len(b)-1] != 'Z' {
		sign, hh := b[len(b)-6], b[len(b)-5:]
		strict = (sign == '+' || sign == '-') && 10*(hh[0]-'0')+(hh[1]-'0') < 24
	}
	if !strict {
		j, err := t.MarshalJSON()
		if err != nil {
			return dst[:start], &json.MarshalerError{Type: reflect.TypeOf(t), Err: err}
		}
		return append(dst[:start], j...), nil
	}
	return append(dst, '"'), nil
}

func appendOptString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

// encPlain and scanPlain mark the bytes appendString copies through
// unescaped and scanString passes over: printable ASCII but for the quote,
// the backslash and, when encoding, the HTML-sensitive <, > and & — the
// bytes encoding/json's own htmlSafeSet marks. Indexed by any byte, they
// cost one load and no bounds check.
var encPlain, scanPlain = asciiSet(`"\<>&`), asciiSet(`"\`)

func asciiSet(except string) (set [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		set[c] = !strings.ContainsRune(except, c)
	}
	return set
}

// appendString appends s as a JSON string with encoding/json's default
// escaping: quote, backslash and control characters, the HTML-sensitive
// <, > and &, U+2028/U+2029, and U+FFFD for bytes that are not UTF-8.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if encPlain[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendOptFloat appends key and f in encoding/json's float format (%f
// style, exponents only below 1e-6 and from 1e21), or nothing for zero.
func appendOptFloat(dst []byte, key string, f float64) ([]byte, error) {
	if f == 0 {
		return dst, nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	dst = append(dst, key...)
	abs := math.Abs(f)
	if abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64), nil
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	// e-09 → e-9, as encoding/json cleans it up.
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// recordDecoder reads records in the form AppendRecord writes. One decoder
// serves one body or segment, and within it hands out one string for
// values that repeat: the request, span and execution-index values a
// request–reply pair shares come from the record before, and service
// names, agents, URIs and rule IDs from a small direct-mapped table. Both
// die with the decoder, so nothing outlives the call that made it.
type recordDecoder struct {
	requestID, spanID, parentSpanID, ei string

	names [64]string
}

// shared returns the string for b: last when b repeats it, a new string
// otherwise.
func shared(b []byte, last *string) string {
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// name returns the table's string for b, replacing the slot's occupant on
// a miss.
func (d *recordDecoder) name(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return shared(b, &d.names[h%uint32(len(d.names))])
}

// kindOf and methodOf map the values agents log to their constants.
func (d *recordDecoder) kindOf(b []byte) Kind {
	switch string(b) {
	case string(KindRequest):
		return KindRequest
	case string(KindReply):
		return KindReply
	case string(KindConnOpen):
		return KindConnOpen
	case string(KindConnClose):
		return KindConnClose
	}
	return Kind(d.name(b))
}

func (d *recordDecoder) methodOf(b []byte) string {
	switch string(b) {
	case http.MethodGet:
		return http.MethodGet
	case http.MethodPost:
		return http.MethodPost
	case http.MethodPut:
		return http.MethodPut
	case http.MethodDelete:
		return http.MethodDelete
	case http.MethodPatch:
		return http.MethodPatch
	case http.MethodHead:
		return http.MethodHead
	}
	return d.name(b)
}

// Field numbers, in the order AppendRecord writes them.
const (
	fSeq = iota
	fTS
	fRequestID
	fSpanID
	fParentSpanID
	fEI
	fSrc
	fDst
	fKind
	fMethod
	fURI
	fStatus
	fLatencyMillis
	fFaultAction
	fFaultRuleID
	fInjectedDelayMillis
	fGremlinGenerated
	fAgent
	fBytesUp
	fBytesDown
)

func fieldOf(key []byte) int {
	switch string(key) {
	case "seq":
		return fSeq
	case "ts":
		return fTS
	case "requestId":
		return fRequestID
	case "spanId":
		return fSpanID
	case "parentSpanId":
		return fParentSpanID
	case "ei":
		return fEI
	case "src":
		return fSrc
	case "dst":
		return fDst
	case "kind":
		return fKind
	case "method":
		return fMethod
	case "uri":
		return fURI
	case "status":
		return fStatus
	case "latencyMillis":
		return fLatencyMillis
	case "faultAction":
		return fFaultAction
	case "faultRuleId":
		return fFaultRuleID
	case "injectedDelayMillis":
		return fInjectedDelayMillis
	case "gremlinGenerated":
		return fGremlinGenerated
	case "agent":
		return fAgent
	case "bytesUp":
		return fBytesUp
	case "bytesDown":
		return fBytesDown
	}
	return -1
}

// object decodes the record at the start of data into rec, which must be
// zero, and returns how many bytes it spans. It succeeds only on the
// canonical form — the exact key names in AppendRecord's order, each at
// most once, no whitespace, strings without escapes, integers without
// fraction or exponent — where json.Unmarshal yields the same record. On
// ok=false rec may be half filled.
func (d *recordDecoder) object(data []byte, rec *Record) (n int, ok bool) {
	if len(data) < 2 || data[0] != '{' {
		return 0, false
	}
	if data[1] == '}' {
		return 2, true
	}
	p, next := 1, 0
	for {
		key, q, ok := scanString(data, p)
		if !ok || q >= len(data) || data[q] != ':' {
			return 0, false
		}
		f := fieldOf(key)
		if f < next {
			return 0, false // unknown, repeated or out of order
		}
		next = f + 1
		p = q + 1

		switch f {
		case fTS, fRequestID, fSpanID, fParentSpanID, fEI, fSrc, fDst, fKind,
			fMethod, fURI, fFaultAction, fFaultRuleID, fAgent:
			val, q, ok := scanString(data, p)
			if !ok {
				return 0, false
			}
			switch f {
			case fTS:
				if rec.Timestamp.UnmarshalJSON(data[p:q]) != nil {
					return 0, false
				}
			case fRequestID:
				rec.RequestID = shared(val, &d.requestID)
			case fSpanID:
				rec.SpanID = shared(val, &d.spanID)
			case fParentSpanID:
				rec.ParentSpanID = shared(val, &d.parentSpanID)
			case fEI:
				rec.EI = shared(val, &d.ei)
			case fSrc:
				rec.Src = d.name(val)
			case fDst:
				rec.Dst = d.name(val)
			case fKind:
				rec.Kind = d.kindOf(val)
			case fMethod:
				rec.Method = d.methodOf(val)
			case fURI:
				rec.URI = d.name(val)
			case fFaultAction:
				rec.FaultAction = d.name(val)
			case fFaultRuleID:
				rec.FaultRuleID = d.name(val)
			case fAgent:
				rec.Agent = d.name(val)
			}
			p = q
		case fSeq:
			v, q, ok := scanInt(data, p)
			if !ok || v < 0 {
				return 0, false
			}
			rec.Seq, p = uint64(v), q
		case fStatus, fBytesUp, fBytesDown:
			v, q, ok := scanInt(data, p)
			if !ok {
				return 0, false
			}
			switch f {
			case fStatus:
				rec.Status = int(v)
			case fBytesUp:
				rec.BytesUp = v
			case fBytesDown:
				rec.BytesDown = v
			}
			p = q
		case fLatencyMillis, fInjectedDelayMillis:
			q := scanNumber(data, p)
			if q < 0 {
				return 0, false
			}
			v, err := strconv.ParseFloat(string(data[p:q]), 64)
			if err != nil {
				return 0, false
			}
			if f == fLatencyMillis {
				rec.LatencyMillis = v
			} else {
				rec.InjectedDelayMillis = v
			}
			p = q
		case fGremlinGenerated:
			switch {
			case bytes.HasPrefix(data[p:], []byte("true")):
				rec.GremlinGenerated, p = true, p+4
			case bytes.HasPrefix(data[p:], []byte("false")):
				p += 5
			default:
				return 0, false
			}
		}

		if p >= len(data) {
			return 0, false
		}
		switch data[p] {
		case ',':
			p++
		case '}':
			return p + 1, true
		default:
			return 0, false
		}
	}
}

// scanString scans the JSON string opening at data[p] and returns its
// contents and the offset just past the closing quote. It gives up on
// anything json.Unmarshal would not copy through unchanged: an escape, a
// control character, bytes that are not UTF-8.
func scanString(data []byte, p int) (val []byte, end int, ok bool) {
	if p >= len(data) || data[p] != '"' {
		return nil, 0, false
	}
	ascii := true
	for q := p + 1; q < len(data); q++ {
		c := data[q]
		if scanPlain[c] {
			continue
		}
		switch {
		case c == '"':
			val = data[p+1 : q]
			return val, q + 1, ascii || utf8.Valid(val)
		case c == '\\' || c < ' ':
			return nil, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, 0, false
}

// scanInt reads a decimal integer of at most 18 digits with no leading
// zero, fraction or exponent; longer or fancier ones are encoding/json's.
func scanInt(data []byte, p int) (v int64, end int, ok bool) {
	neg := p < len(data) && data[p] == '-'
	if neg {
		p++
	}
	q := p
	for q < len(data) && data[q] >= '0' && data[q] <= '9' {
		v = v*10 + int64(data[q]-'0')
		q++
	}
	if q == p || q-p > 18 || (data[p] == '0' && (q-p > 1 || neg)) {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, q, true
}

// scanNumber returns the offset just past the JSON number literal at
// data[p], or -1 if there is none.
func scanNumber(data []byte, p int) int {
	digits := func() bool {
		q := p
		for p < len(data) && data[p] >= '0' && data[p] <= '9' {
			p++
		}
		return p > q
	}
	if p < len(data) && data[p] == '-' {
		p++
	}
	if p < len(data) && data[p] == '0' {
		p++
	} else if !digits() {
		return -1
	}
	if p < len(data) && data[p] == '.' {
		p++
		if !digits() {
			return -1
		}
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		if !digits() {
			return -1
		}
	}
	return p
}

// line decodes a buffer holding one record and at most a trailing newline
// — a WAL line, an SSE event's data — into the zero rec,
// reporting whether it was canonical.
func (d *recordDecoder) line(data []byte, rec *Record) bool {
	n, ok := d.object(data, rec)
	return ok && (n == len(data) || n == len(data)-1 && data[n] == '\n')
}

// unmarshal is json.Unmarshal(data, rec) for a buffer holding one record,
// reached sooner when the record is canonical.
func (d *recordDecoder) unmarshal(data []byte, rec *Record) error {
	*rec = Record{}
	if d.line(data, rec) {
		return nil
	}
	*rec = Record{}
	return json.Unmarshal(data, rec)
}

// errNotLines is why a body framed as a JSON array is refused: a list of
// records is JSON Lines wherever it travels.
var errNotLines = errors.New("records must be JSON Lines, one object per line, not a JSON array")

// decodeLines appends the records of an in-memory JSON Lines body — an
// ingest body, a query reply, a dump — to dst. A line that is not
// canonical (a string with an escape, say) goes alone through
// encoding/json, and the lines after it take the canonical path again.
// The first line that does not hold exactly one value hands the rest of
// the body to a json.Decoder, which also accepts values split or joined
// across lines; both refuse a field that Record does not have, as the
// canonical path does. With lines non-nil, every record decoded line by
// line also appends a line to *lines: its line without the newline when
// it was canonical, nil when encoding/json decoded it. Those records come
// first, so the i-th line appended is that of the i-th record appended.
// On error it returns dst's own records alone, having cleared what it
// decoded past them.
func decodeLines(dst []Record, data []byte, lines *[][]byte) ([]Record, error) {
	// Room for a record a line, bounded by what a body this size can hold
	// so that one of nothing but newlines reserves no more than a real one
	// would fill.
	recs := slices.Grow(dst, min(bytes.Count(data, []byte{'\n'}), len(data)/64)+1)
	fail := func(err error) ([]Record, error) {
		n := len(recs) - len(dst)
		clear(recs[len(dst):])
		return recs[:len(dst)], fmt.Errorf("decode record %d: %w", n, err)
	}
	var d recordDecoder
	for len(data) > 0 {
		var rec Record
		n, ok := d.object(data, &rec)
		end := n
		if ok && n < len(data) {
			ok = data[n] == '\n'
			n++
		}
		line := data[:end]
		if !ok {
			end = bytes.IndexByte(data, '\n')
			if end < 0 {
				end = len(data)
			}
			n, line = min(end+1, len(data)), nil
			switch v := bytes.TrimLeft(data[:end], " \t\r"); {
			case len(v) == 0:
				data = data[n:] // a blank line, as json.Decoder skips it
				continue
			case v[0] == '[':
				return fail(errNotLines)
			}
			if rec, ok = decodeLine(data[:end]); !ok {
				break
			}
		}
		recs = append(recs, rec)
		if lines != nil {
			*lines = append(*lines, line)
		}
		data = data[n:]
	}
	if len(data) == 0 {
		return recs, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	for {
		var rec Record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return fail(err)
		}
		recs = append(recs, rec)
	}
}

// decodeLine decodes a line that holds one JSON value and nothing else
// but whitespace with encoding/json, refusing a field Record does not
// have. It reports false when the line holds no such value: one that goes
// on past the line, two values, malformed JSON. The record is its own, so
// that the canonical path's stays off the heap.
func decodeLine(line []byte) (Record, bool) {
	rec := new(Record)
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if dec.Decode(rec) != nil {
		return Record{}, false
	}
	return *rec, len(bytes.TrimLeft(line[dec.InputOffset():], " \t\r")) == 0
}

// ReadJSONL reads a JSON Lines dump — a /v1/query reply body saved to a
// file — whole and decodes it as the store decodes an ingest body.
func ReadJSONL(r io.Reader) ([]Record, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("eventlog: read records: %w", err)
	}
	recs, err := decodeLines(nil, body, nil)
	if err != nil {
		return nil, err
	}
	return recs, nil
}
