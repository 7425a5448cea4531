package httpx

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestEventsWireFrames pins the frames the store and telemetry feeds
// put on the wire: an unnamed event, a named one, a comment.
func TestEventsWireFrames(t *testing.T) {
	rec := httptest.NewRecorder()
	ev, ok := StartEvents(rec)
	if !ok {
		t.Fatal("a recorder can flush")
	}
	for _, err := range []error{
		ev.Send("", []byte(`{"requestId":"r1"}`)),
		ev.Send("drop", []byte("3")),
		ev.Comment("keepalive"),
		ev.Send("", []byte("two\nlines")),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := "data: {\"requestId\":\"r1\"}\n\n" +
		"event: drop\ndata: 3\n\n" +
		": keepalive\n\n" +
		"data: two\ndata: lines\n\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("frames = %q, want %q", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" || !rec.Flushed {
		t.Fatalf("content type %q, flushed %v", ct, rec.Flushed)
	}
}

// TestReadEvents: names, multi-line data, comments, CRLF line ends and
// unknown fields, and an unterminated last event that is not delivered.
func TestReadEvents(t *testing.T) {
	in := ": hello\r\n\r\n" +
		"data: a\n\n" +
		"event: drop\ndata:7\nid: 9\n\n" +
		"data: x\ndata\ndata:  y \n\n" +
		"data: lost"
	var got []string
	err := ReadEvents(strings.NewReader(in), func(name string, data []byte) error {
		got = append(got, name+"|"+string(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"|a", "drop|7", "|x\n\n y "}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("events = %q, want %q", got, want)
	}
	stop := errors.New("stop")
	if err := ReadEvents(strings.NewReader(in), func(string, []byte) error { return stop }); err != stop {
		t.Fatalf("callback error = %v, want it returned", err)
	}
}

// FuzzReadEvents: the reader never panics on arbitrary input, and any
// events written with Send read back unchanged, so long as the name holds
// no line break and the data no carriage return.
func FuzzReadEvents(f *testing.F) {
	f.Add("", []byte(`{"requestId":"r1"}`), []byte("data: x\n\n"))
	f.Add("drop", []byte("12"), []byte("event: drop\ndata: 12\n\n: keepalive\n\n"))
	f.Add(" sp", []byte(" a\n\nb "), []byte("data\ndata:\n\nevent\n\n"))
	f.Fuzz(func(t *testing.T, name string, data, stream []byte) {
		_ = ReadEvents(bytes.NewReader(stream), func(string, []byte) error { return nil })
		if strings.ContainsAny(name, "\r\n") || bytes.ContainsRune(data, '\r') {
			return
		}
		rec := httptest.NewRecorder()
		ev, _ := StartEvents(rec)
		_ = ev.Send(name, data)
		_ = ev.Comment("keepalive")
		_ = ev.Send(name, data)
		n := 0
		err := ReadEvents(rec.Body, func(gotName string, gotData []byte) error {
			n++
			if gotName != name || !bytes.Equal(gotData, data) {
				t.Fatalf("event %d = (%q, %q), want (%q, %q)", n, gotName, gotData, name, data)
			}
			return nil
		})
		if err != nil || n != 2 {
			t.Fatalf("read %d events, err %v; want 2", n, err)
		}
	})
}
