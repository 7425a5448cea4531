package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteJSONL streams every stored record to w as JSON Lines — one record
// per line, in (timestamp, seq) order. The format is the same one
// logstash-style shippers use, so dumps interoperate with standard log
// tooling (and with the write-ahead log's segments).
func (s *Store) WriteJSONL(w io.Writer) (int, error) {
	recs, err := s.Select(Query{})
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

// ReadJSONL appends records decoded from r (one JSON record per line) to
// the store. Sequence numbers are reassigned on append, preserving the
// input order. Blank lines are skipped. Returns the number of records
// loaded.
func (s *Store) ReadJSONL(r io.Reader) (int, error) {
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
				return s.readJSONLValues(json.NewDecoder(rest), n)
			}
			if err := s.Log(rec); err != nil {
				return n, err
			}
			n++
		}
		if rerr != nil {
			return n, nil
		}
	}
}

// readJSONLValues appends every record dec still holds, counting on from
// n.
func (s *Store) readJSONLValues(dec *json.Decoder, n int) (int, error) {
	for {
		var rec Record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("eventlog: decode record %d: %w", n, err)
		}
		if err := s.Log(rec); err != nil {
			return n, err
		}
		n++
	}
}

// SaveFile writes the store's records to path as JSON Lines, replacing any
// existing file atomically (write to a temp file, then rename).
func (s *Store) SaveFile(path string) (int, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".eventlog-*")
	if err != nil {
		return 0, fmt.Errorf("eventlog: save: %w", err)
	}
	tmpName := tmp.Name()
	n, werr := s.WriteJSONL(tmp)
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

// LoadFile appends records from a JSON Lines file to the store. A missing
// file is not an error and loads zero records, so servers can start
// against a persistence path that does not exist yet.
func (s *Store) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("eventlog: load: %w", err)
	}
	defer f.Close()
	return s.ReadJSONL(bufio.NewReader(f))
}
