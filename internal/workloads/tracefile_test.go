package workloads

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/chirplab/chirp/internal/trace"
)

// writeTrace records n instructions of the named suite workload to a
// trace file in a fresh temporary directory, returning its path and the
// records the generator produced.
func writeTrace(t *testing.T, name string, n uint64) (string, []trace.Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".chtr")
	if _, _, err := trace.WriteFile(path, trace.NewLimit(ByName(name).Source(), n)); err != nil {
		t.Fatal(err)
	}
	return path, trace.Collect(trace.NewLimit(ByName(name).Source(), n))
}

// closeSource releases a source's file handle.
func closeSource(t *testing.T, src trace.Source) {
	t.Helper()
	c, ok := src.(io.Closer)
	if !ok {
		t.Fatalf("trace-file source %T does not close", src)
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}

// TestTraceFileReplaysRecordedStream: every Source call opens the file
// again, so each source replays the recorded stream from its first
// record, independently of the others, and Reset restarts it.
func TestTraceFileReplaysRecordedStream(t *testing.T) {
	path, want := writeTrace(t, "db-003", 20_000)
	w, err := TraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Source(), w.Source()
	defer closeSource(t, a)
	defer closeSource(t, b)

	var rec trace.Record
	if !a.Next(&rec) || rec != want[0] {
		t.Fatalf("first record = %+v, want %+v", rec, want[0])
	}
	if got := trace.Collect(b); !slices.Equal(got, want) {
		t.Fatalf("second source replayed %d records, want the %d recorded", len(got), len(want))
	}
	a.Reset()
	if got := trace.Collect(a); !slices.Equal(got, want) {
		t.Errorf("reset source replayed %d records, want the %d recorded", len(got), len(want))
	}
}

// TestTraceFileLabels: a trace file is named by its path and carries no
// spec hash, so its capture-stream key is the path; it has no program
// model to take a profile from.
func TestTraceFileLabels(t *testing.T) {
	path, _ := writeTrace(t, "sci-000", 5_000)
	w, err := TraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != path || w.SpecHash != "" || w.Category != "trace" || w.Seed != 0 {
		t.Errorf("labels = (%q, %q, %q, %d), want (%q, \"\", \"trace\", 0)", w.Name, w.SpecHash, w.Category, w.Seed, path)
	}
	if w.Program() != nil || w.Profile() != "" {
		t.Error("a trace-file workload must have no program model or profile")
	}
}

// TestTraceFileRejectsUnreadableFiles: a file that cannot be opened or
// does not start with a valid trace header fails in TraceFile, before
// any run is set up.
func TestTraceFileRejectsUnreadableFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct{ name, path string }{
		{"missing", filepath.Join(dir, "missing.chtr")},
		{"empty", write("empty.chtr", "")},
		{"garbage", write("garbage.chtr", "not a trace file at all, but long enough")},
		{"directory", dir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if w, err := TraceFile(tc.path); err == nil {
				t.Errorf("TraceFile(%s) = %q, want an error", tc.name, w.Name)
			}
		})
	}
}

// TestTraceFileReopenFailurePanics: a file that validated but has since
// gone panics in Source, naming the path, as trace.FileSource.Reset does.
func TestTraceFileReopenFailurePanics(t *testing.T) {
	path, _ := writeTrace(t, "web-000", 5_000)
	w, err := TraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, path) {
			t.Errorf("Source of a removed trace file: recovered %v, want a panic naming %s", r, path)
		}
	}()
	w.Source()
}
