package httpx

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
)

// Events is an open Server-Sent Events reply: the store's live record
// feed and the telemetry plane's snapshot feed both write through one.
type Events struct {
	w   io.Writer
	fl  http.Flusher
	buf []byte
}

// StartEvents answers with a Server-Sent Events stream: status 200 and
// the event-stream headers, flushed so the client sees the stream open at
// once. When w cannot flush it writes a 500 and returns false.
func StartEvents(w http.ResponseWriter) (*Events, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return &Events{w: w, fl: fl}, true
}

// Send writes and flushes one event: an "event:" line when name is not
// empty (it must hold no line break), then a "data:" line per line of
// data.
func (e *Events) Send(name string, data []byte) error {
	b := e.buf[:0]
	if name != "" {
		b = append(append(append(b, "event: "...), name...), '\n')
	}
	for {
		line, rest, more := bytes.Cut(data, []byte("\n"))
		b = append(append(append(b, "data: "...), line...), '\n')
		if !more {
			break
		}
		data = rest
	}
	e.buf = append(b, '\n')
	return e.flush()
}

// Comment writes and flushes a comment, which readers skip: a keepalive
// that also finds a client that went away.
func (e *Events) Comment(text string) error {
	e.buf = append(append(append(e.buf[:0], ": "...), text...), "\n\n"...)
	return e.flush()
}

func (e *Events) flush() error {
	if _, err := e.w.Write(e.buf); err != nil {
		return err
	}
	e.fl.Flush()
	return nil
}

// ReadEvents parses a Server-Sent Events stream, calling fn with each
// event's name ("" when it has none) and its data lines joined by "\n";
// data is valid only until fn returns. Comments and fields other than
// event and data are skipped. It returns nil at the end of r, fn's error
// when fn fails, or the read error.
func ReadEvents(r io.Reader, fn func(name string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxBodyBytes)
	var (
		name    string
		data    []byte
		hasData bool
	)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			if hasData {
				if err := fn(name, data); err != nil {
					return err
				}
			}
			name, data, hasData = "", data[:0], false
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(field) {
		case "event":
			name = string(value)
		case "data":
			if hasData {
				data = append(data, '\n')
			}
			data, hasData = append(data, value...), true
		}
	}
	return sc.Err()
}
