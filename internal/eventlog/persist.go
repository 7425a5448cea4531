package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// writeJSONL streams every record src holds to w as JSON Lines — one
// record per line, in (timestamp, seq) order. The format is the same one
// logstash-style shippers use, so dumps interoperate with standard log
// tooling (and with the sharded store's WAL segments).
func writeJSONL(w io.Writer, src Source) (int, error) {
	recs, err := src.Select(Query{})
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	if n, err := writeLines(bw, recs); err != nil {
		return n, fmt.Errorf("eventlog: encode record %d: %w", n, err)
	}
	if err := bw.Flush(); err != nil {
		return len(recs), fmt.Errorf("eventlog: flush: %w", err)
	}
	return len(recs), nil
}

// readJSONL appends records decoded from r (one JSON record per line) to
// sink. Sequence numbers are reassigned on append, preserving the input
// order. Blank lines are skipped. Returns the number of records loaded.
func readJSONL(r io.Reader, sink Sink) (int, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var (
		d    recordDecoder
		long []byte
	)
	for n := 0; ; {
		line, rerr := readLine(br, &long)
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return n, fmt.Errorf("eventlog: decode record %d: %w", n, rerr)
		}
		if len(line) > 0 {
			var rec Record
			if !d.line(line, &rec) {
				// Blank, escaped, spread over several lines: a json.Decoder
				// reads on from the start of this line.
				rest := io.MultiReader(bytes.NewReader(bytes.Clone(line)), br)
				return readJSONLValues(json.NewDecoder(rest), sink, n)
			}
			if err := logLoaded(sink, rec); err != nil {
				return n, err
			}
			n++
		}
		if rerr != nil {
			return n, nil
		}
	}
}

// readJSONLValues appends every record dec still holds to sink, counting
// on from n.
func readJSONLValues(dec *json.Decoder, sink Sink, n int) (int, error) {
	for {
		var rec Record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("eventlog: decode record %d: %w", n, err)
		}
		if err := logLoaded(sink, rec); err != nil {
			return n, err
		}
		n++
	}
}

func logLoaded(sink Sink, rec Record) error {
	rec.Seq = 0 // reassigned by Log
	return sink.Log(rec)
}

// saveFile writes src's records to path as JSON Lines, replacing any
// existing file atomically (write to a temp file, then rename).
func saveFile(path string, src Source) (int, error) {
	tmp, err := os.CreateTemp(dirOf(path), ".eventlog-*")
	if err != nil {
		return 0, fmt.Errorf("eventlog: save: %w", err)
	}
	tmpName := tmp.Name()
	n, werr := writeJSONL(tmp, src)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmpName)
		if werr != nil {
			return n, werr
		}
		return n, fmt.Errorf("eventlog: save: %w", cerr)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return n, fmt.Errorf("eventlog: save: %w", err)
	}
	return n, nil
}

// loadFile appends records from a JSON Lines file to sink. A missing file
// is not an error and loads zero records, so servers can start against a
// persistence path that does not exist yet.
func loadFile(path string, sink Sink) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("eventlog: load: %w", err)
	}
	defer f.Close()
	return readJSONL(bufio.NewReader(f), sink)
}

// WriteJSONL streams every stored record to w as JSON Lines, one record
// per line, in (timestamp, seq) order.
func (s *Store) WriteJSONL(w io.Writer) (int, error) { return writeJSONL(w, s) }

// ReadJSONL appends records decoded from r (one JSON record per line) to
// the store, reassigning sequence numbers.
func (s *Store) ReadJSONL(r io.Reader) (int, error) { return readJSONL(r, s) }

// SaveFile writes the store's records to path as JSON Lines, replacing any
// existing file atomically (write to a temp file, then rename).
func (s *Store) SaveFile(path string) (int, error) { return saveFile(path, s) }

// LoadFile appends records from a JSON Lines file to the store. A missing
// file is not an error and loads zero records.
func (s *Store) LoadFile(path string) (int, error) { return loadFile(path, s) }

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
