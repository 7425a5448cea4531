// Package metrics renders Gremlin's operational counters in the
// Prometheus text exposition format (version 0.0.4) without depending on
// the Prometheus client library. The agent and the log store each expose a
// GET /metrics endpoint built from a Writer, so any Prometheus-compatible
// scraper can watch a live test run.
//
// The package also owns Gremlin's one latency histogram and its one
// quantile rule. Histogram counts samples on a fixed log-bucket grid
// (2^(k/8) s, 7.6 µs to 36.4 h, 9.05 % wide) with an atomic add per
// Observe, cheap enough for the proxy data path; Remove lets the checker's
// live bound slide a window over it. Quantile is Prometheus'
// histogram_quantile over any cumulative bucket set, so the agent's
// histogram, the live bound, the telemetry scraper's series and the
// Differ read a p99 the same way.
//
// ParseExposition is a strict parser for the same dialect our writers
// emit. The telemetry plane scrapes with it; Lint wraps it as the format
// checker tests use to keep the hand-rolled exposition parseable.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Writer accumulates one scrape's worth of metric families and renders
// them as Prometheus text exposition. It is not safe for concurrent use;
// build a fresh Writer per scrape.
type Writer struct {
	b    strings.Builder
	seen map[string]bool
}

// NewWriter creates an empty Writer.
func NewWriter() *Writer {
	return &Writer{seen: make(map[string]bool)}
}

// header emits the # HELP / # TYPE preamble once per metric family.
func (w *Writer) header(name, help, typ string) {
	if w.seen[name] {
		return
	}
	w.seen[name] = true
	fmt.Fprintf(&w.b, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(&w.b, "# TYPE %s %s\n", name, typ)
}

// Counter emits one counter sample. labels alternate name, value
// ("rule", "r1"); repeated calls with the same metric name append samples
// to the same family.
func (w *Writer) Counter(name, help string, value float64, labels ...string) {
	w.header(name, help, "counter")
	w.sample(name, labels, value)
}

// Gauge emits one gauge sample.
func (w *Writer) Gauge(name, help string, value float64, labels ...string) {
	w.header(name, help, "gauge")
	w.sample(name, labels, value)
}

// Histogram emits a histogram family (cumulative _bucket series on the
// latency grid plus _sum and _count) from a snapshot. The le values are
// formatted once per process, and the label set once per call.
func (w *Writer) Histogram(name, help string, snap HistogramSnapshot, labels ...string) {
	w.header(name, help, "histogram")
	open := append([]byte(name), "_bucket{"...)
	if len(labels) > 0 {
		open = append(appendLabels(open, labels), ',')
	}
	open = append(open, `le="`...)
	w.b.Grow(len(snap.Cumulative) * (len(open) + 32)) // le, count and punctuation fit in 32
	var num [20]byte
	for i, c := range snap.Cumulative {
		w.b.Write(open)
		w.b.WriteString(gridLE[i])
		w.b.WriteString(`"} `)
		w.b.Write(strconv.AppendInt(num[:0], c, 10))
		w.b.WriteByte('\n')
	}
	w.sample(name+"_sum", labels, snap.Sum)
	w.sample(name+"_count", labels, float64(snap.Count))
}

func (w *Writer) sample(name string, labels []string, value float64) {
	w.b.WriteString(name)
	if len(labels) > 0 {
		w.b.WriteByte('{')
		w.b.Write(appendLabels(nil, labels))
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(formatFloat(value))
	w.b.WriteByte('\n')
}

// appendLabels appends the pairs in labels (name, value, ...) as
// name="value" joined by commas, quoting values as the exposition format
// requires (backslashes, quotes and newlines escaped).
func appendLabels(b []byte, labels []string) []byte {
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, labels[i+1])
	}
	return b
}

// String returns the accumulated exposition text.
func (w *Writer) String() string { return w.b.String() }

// WriteTo writes the accumulated exposition text to wr.
func (w *Writer) WriteTo(wr io.Writer) (int64, error) {
	n, err := io.WriteString(wr, w.b.String())
	return int64(n), err
}

// Serve answers a scrape with the accumulated exposition text.
func (w *Writer) Serve(rw http.ResponseWriter) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.WriteHeader(http.StatusOK)
	_, _ = w.WriteTo(rw)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(help string) string {
	help = strings.ReplaceAll(help, `\`, `\\`)
	return strings.ReplaceAll(help, "\n", `\n`)
}

// Sample is one parsed exposition sample. Name keeps any histogram
// suffix (_bucket, _sum, _count); the owning Family carries the base name.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one metric family: its # TYPE / # HELP declaration and every
// sample that belongs to it, in exposition order. A histogram family
// collects its _bucket, _sum, and _count samples.
type Family struct {
	Name    string
	Type    string // counter, gauge, histogram, summary, or untyped
	Help    string
	Samples []Sample
}

// ParseExposition parses Prometheus text exposition (version 0.0.4) into
// metric families, in declaration order. It is strict where our own
// writers are strict: every sample must follow a # TYPE for its family, no
// family may be declared twice, and histogram families must carry an
// le="+Inf" bucket — so it doubles as the format checker behind Lint.
func ParseExposition(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	byName := make(map[string]*Family)
	var order []string
	infSeen := make(map[string]bool)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("metrics: line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if fields[1] == "HELP" {
				f := byName[name]
				if f == nil {
					f = &Family{Name: name}
					byName[name] = f
					order = append(order, name)
				}
				if i := strings.Index(line, name); i >= 0 {
					f.Help = strings.TrimSpace(line[i+len(name):])
				}
				continue
			}
			f := byName[name]
			if f != nil && f.Type != "" {
				return nil, fmt.Errorf("metrics: line %d: family %s declared twice", lineNo, name)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("metrics: line %d: malformed TYPE %q", lineNo, line)
			}
			if f == nil {
				f = &Family{Name: name}
				byName[name] = f
				order = append(order, name)
			}
			f.Type = fields[3]
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok {
				if f := byName[base]; f != nil && f.Type == "histogram" {
					family = base
				}
			}
		}
		f := byName[family]
		if f == nil || f.Type == "" {
			return nil, fmt.Errorf("metrics: line %d: sample %s has no TYPE declaration", lineNo, name)
		}
		if f.Type == "histogram" && strings.HasSuffix(name, "_bucket") {
			if le, ok := labels["le"]; ok && le == "+Inf" {
				infSeen[family] = true
			}
		}
		f.Samples = append(f.Samples, Sample{Name: name, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Family, 0, len(order))
	for _, name := range order {
		f := byName[name]
		if f.Type == "" {
			// HELP without TYPE: our writers never emit this, and a sample
			// under it would already have errored above.
			f.Type = "untyped"
		}
		if f.Type == "histogram" && !infSeen[name] {
			return nil, fmt.Errorf("metrics: histogram %s lacks an le=\"+Inf\" bucket", name)
		}
		out = append(out, *f)
	}
	return out, nil
}

// Lint checks that text is well-formed Prometheus text exposition. It is
// a thin wrapper over ParseExposition, kept for test call sites that only
// care about validity.
func Lint(r io.Reader) error {
	_, err := ParseExposition(r)
	return err
}

// parseSample parses `name[{labels}] value` into parts.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = make(map[string]string)
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		var pairs [8]string // a sample's few labels; more spill to the heap
		for _, pair := range splitLabels(pairs[:0], rest[i+1:end]) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			val, uerr := strconv.Unquote(strings.TrimSpace(pair[eq+1:]))
			if uerr != nil {
				return "", nil, 0, fmt.Errorf("unquote label %q: %v", pair, uerr)
			}
			labels[strings.TrimSpace(pair[:eq])] = val
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("expected `name value`, got %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	v := strings.TrimSpace(rest)
	switch v {
	case "+Inf":
		value = math.Inf(1)
	case "-Inf":
		value = math.Inf(-1)
	default:
		value, err = strconv.ParseFloat(v, 64)
		if err != nil {
			return "", nil, 0, fmt.Errorf("bad value %q", v)
		}
	}
	return name, labels, value, nil
}

// splitLabels appends to out the pairs of a label body, split on commas
// outside quoted values.
func splitLabels(out []string, s string) []string {
	var (
		start    int
		inQuote  bool
		escaping bool
	)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case escaping:
			escaping = false
		case c == '\\':
			escaping = true
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			if p := strings.TrimSpace(s[start:i]); p != "" {
				out = append(out, p)
			}
			start = i + 1
		}
	}
	if p := strings.TrimSpace(s[start:]); p != "" {
		out = append(out, p)
	}
	return out
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// SortedKeys returns m's keys in sorted order — a small helper so metric
// families render deterministically.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
