package cli

import (
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/chirplab/chirp/internal/workloads"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestOpenStreamCacheRule pins the one cache rule: -l2cache < 0 gives a
// nil cache (the direct reference path), anything else a cache, and
// the flag combinations the direct path would silently ignore are
// usage errors raised before any resource exists.
func TestOpenStreamCacheRule(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name      string
		args      []string
		wantCache bool
		usage     bool
	}{
		{"default", nil, true, false},
		{"direct", []string{"-l2cache", "-1"}, false, false},
		{"persistent", []string{"-capturedir", "store", "-capturedir-max-bytes", "4096"}, true, false},
		{"capturedir-direct", []string{"-l2cache", "-1", "-capturedir", "store"}, false, true},
		{"capturedir-max-direct", []string{"-l2cache", "-1", "-capturedir-max-bytes", "4096"}, false, true},
		{"capturedir-max-alone", []string{"-capturedir-max-bytes", "4096"}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub := filepath.Join(dir, tc.name)
			if err := os.Mkdir(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(sub, "run.ckpt")
			args := append([]string{"-checkpoint", ckpt}, tc.args...)
			for i, a := range args {
				if a == "store" {
					args[i] = filepath.Join(sub, a)
				}
			}
			rt, err := parse(t, args...).Open("test", "meta")
			if tc.usage {
				if err == nil {
					rt.Close()
					t.Fatal("accepted a flag combination the run would ignore")
				}
				if code := Exit("test", err); code != 2 {
					t.Errorf("exit status %d, want 2 (usage)", code)
				}
				entries, _ := os.ReadDir(sub)
				if len(entries) != 0 {
					t.Errorf("rejected run left %d files behind; validation must precede every resource", len(entries))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			if got := rt.Streams != nil; got != tc.wantCache {
				t.Errorf("stream cache present = %v, want %v", got, tc.wantCache)
			}
			if rt.Checkpoint == nil || rt.Ctx == nil {
				t.Error("checkpoint or signal context not opened")
			}
		})
	}
}

func TestSpecSeedNeedsSpec(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		wantSpec bool
		usage    bool
	}{
		{nil, false, false},
		{[]string{"-seed", "7"}, false, true},
		// Set-detection, not the value: an explicit zero still counts.
		{[]string{"-seed", "0"}, false, true},
		{[]string{"-workload-spec", "default", "-seed", "0"}, true, false},
		{[]string{"-workload-spec", "no-such-spec"}, false, true},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		s := RegisterSpec(fs, "spec")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		c, err := s.Compile()
		if got := errors.As(err, new(usageError)); got != tc.usage {
			t.Errorf("%v: usage error = %v (%v), want %v", tc.args, got, err, tc.usage)
		}
		if got := c != nil; got != tc.wantSpec {
			t.Errorf("%v: compiled spec present = %v, want %v", tc.args, got, tc.wantSpec)
		}
	}
}

func TestStartProfilesWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU and heap so the profiles have content.
	sink := make([]byte, 0, 1<<16)
	for i := 0; i < 1000; i++ {
		sink = append(sink, byte(i))
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartProfilesNoOp(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("no-op stop returned %v", err)
	}
}

// TestSuiteNonPositiveKeepsAll: Suite keeps the whole built-in suite
// for n <= 0, as it does a compiled spec's population, and a prefix
// otherwise.
func TestSuiteNonPositiveKeepsAll(t *testing.T) {
	if got := len(Suite(nil, 0)); got != workloads.SuiteSize {
		t.Errorf("Suite(nil, 0) has %d workloads, want %d", got, workloads.SuiteSize)
	}
	if got := len(Suite(nil, 3)); got != 3 {
		t.Errorf("Suite(nil, 3) has %d workloads, want 3", got)
	}
}

// TestL2CacheOverflowIsUsageError: -l2cache is in MiB and becomes a
// byte budget, so a value whose byte count overflows int64 is a usage
// error instead of a wrapped budget; the largest value that fits opens
// a cache.
func TestL2CacheOverflowIsUsageError(t *testing.T) {
	const max = math.MaxInt64 >> 20
	for _, v := range []int64{max + 1, 17592186044417, math.MaxInt64} {
		_, err := parse(t, "-l2cache", strconv.FormatInt(v, 10)).Open("test", "meta")
		if err == nil {
			t.Fatalf("-l2cache %d opened a cache", v)
		}
		if code := Exit("test", err); code != 2 {
			t.Errorf("-l2cache %d: exit status %d, want 2 (usage)", v, code)
		}
	}
	rt, err := parse(t, "-l2cache", strconv.FormatInt(max, 10)).Open("test", "meta")
	if err != nil {
		t.Fatalf("-l2cache %d: %v", int64(max), err)
	}
	defer rt.Close()
	if rt.Streams == nil {
		t.Error("no stream cache at the largest budget")
	}
}
