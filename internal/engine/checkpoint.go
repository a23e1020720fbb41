package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// checkpointVersion guards the on-disk record layout.
const checkpointVersion = 1

// Checkpoint is an append-only JSONL record of completed job results.
//
// File format: the first line is a header
//
//	{"chirp_checkpoint":1,"meta":"<run fingerprint>"}
//
// and every subsequent line is one completed job
//
//	{"key":{"scope":"fig7","workload":"db-003","policy":"chirp"},"result":{...}}
//
// Records are appended and fsynced as jobs complete, so a killed run
// leaves at most one truncated trailing line, which Open discards.
// The meta string fingerprints the run's parameters (suite size,
// instruction budget, tool); resuming against a file whose meta
// differs is refused rather than silently mixing incompatible rows.
// Results round-trip through encoding/json, whose float64 encoding is
// exact, so a resumed run reproduces an uninterrupted run's output
// byte for byte.
type Checkpoint struct {
	mu   sync.Mutex
	path string
	f    *os.File
	done map[Key]json.RawMessage
}

type checkpointHeader struct {
	Version int    `json:"chirp_checkpoint"`
	Meta    string `json:"meta"`
}

type checkpointRow struct {
	Key    Key             `json:"key"`
	Result json.RawMessage `json:"result"`
}

// Open creates path (writing the header) or resumes from it (loading
// every completed row) after validating that its meta matches.
func Open(path, meta string) (*Checkpoint, error) {
	c := &Checkpoint{path: path, done: make(map[Key]json.RawMessage)}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err) || (err == nil && len(data) == 0):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		hdr, _ := json.Marshal(checkpointHeader{Version: checkpointVersion, Meta: meta})
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint %s: writing header: %w", path, err)
		}
		c.f = f
		return c, nil
	case err != nil:
		return nil, err
	}

	lines := bytes.Split(data, []byte("\n"))
	var hdr checkpointHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, fmt.Errorf("checkpoint %s: unreadable header: %w", path, err)
	}
	if hdr.Version != checkpointVersion {
		return nil, fmt.Errorf("checkpoint %s: version %d, want %d", path, hdr.Version, checkpointVersion)
	}
	if hdr.Meta != meta {
		return nil, fmt.Errorf("checkpoint %s was written by a different run (its meta %q, this run %q); use a fresh file or matching parameters", path, hdr.Meta, meta)
	}
	for n, line := range lines[1:] {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var row checkpointRow
		if err := json.Unmarshal(line, &row); err != nil {
			if n == len(lines)-2 {
				break // truncated final line from a killed writer
			}
			return nil, fmt.Errorf("checkpoint %s: corrupt row %d: %w", path, n+2, err)
		}
		c.done[row.Key] = row.Result
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c.f = f
	return c, nil
}

// Len reports how many completed rows the checkpoint holds.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Get unmarshals the key's result into out, reporting whether the key
// was present.
func (c *Checkpoint) Get(k Key, out any) (bool, error) {
	c.mu.Lock()
	raw, ok := c.done[k]
	c.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return true, fmt.Errorf("checkpoint %s: decoding %s: %w", c.path, k, err)
	}
	return true, nil
}

// Put appends one completed result and syncs it to disk.
func (c *Checkpoint) Put(k Key, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("checkpoint %s: encoding %s: %w", c.path, k, err)
	}
	line, err := json.Marshal(checkpointRow{Key: k, Result: raw})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := bufio.NewWriter(c.f)
	w.Write(line)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		return fmt.Errorf("checkpoint %s: appending %s: %w", c.path, k, err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint %s: syncing: %w", c.path, err)
	}
	c.done[k] = raw
	return nil
}

// Close releases the underlying file. The Checkpoint can still serve
// Has/Get afterwards; Put will fail.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
