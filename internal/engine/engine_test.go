package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func job(i int, run func(ctx context.Context) (int, error)) Job[int] {
	return Job[int]{
		Key: Key{Workload: fmt.Sprintf("w%03d", i), Policy: "p"},
		Run: run,
	}
}

func okJobs(n int, ran *atomic.Int64) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = job(i, func(context.Context) (int, error) {
			if ran != nil {
				ran.Add(1)
			}
			return i * i, nil
		})
	}
	return jobs
}

func TestRunAllSucceed(t *testing.T) {
	var ran atomic.Int64
	var c Counters
	res, err := Run(context.Background(), okJobs(50, &ran), Config{Workers: 4, Sink: &c})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Errorf("ran %d/50 jobs", ran.Load())
	}
	for i, v := range res {
		if v != i*i {
			t.Errorf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
	if c.Done.Load() != 50 || c.Failed.Load() != 0 || c.Total.Load() != 50 {
		t.Errorf("counters = done %d failed %d total %d", c.Done.Load(), c.Failed.Load(), c.Total.Load())
	}
}

// TestCancelOnFirstFailure is the regression test for the old fanOut,
// which kept feeding every remaining job after a failure: with one
// worker, a failure at job 2 must prevent jobs 3..9 from ever running.
func TestCancelOnFirstFailure(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	jobs := make([]Job[int], 10)
	for i := range jobs {
		i := i
		jobs[i] = job(i, func(context.Context) (int, error) {
			ran.Add(1)
			if i == 2 {
				return 0, boom
			}
			return i, nil
		})
	}
	res, err := Run(context.Background(), jobs, Config{Workers: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped %v", err, boom)
	}
	if got := ran.Load(); got != 3 {
		t.Errorf("ran %d jobs after failure at job 2, want 3 (dispatch must stop)", got)
	}
	// Results completed before the failure survive.
	if res[0] != 0 || res[1] != 1 {
		t.Errorf("pre-failure results lost: %v", res[:2])
	}
}

// TestMultiErrorAggregation is the regression test for the old
// fanOut's silent discarding of every error but the first: two jobs
// that fail while both are in flight must both be reported, each
// naming its own job.
func TestMultiErrorAggregation(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(2)
	fail := func(i int) Job[int] {
		return job(i, func(context.Context) (int, error) {
			gate.Done()
			gate.Wait() // both failures are in flight before either returns
			return 0, fmt.Errorf("fail-%d", i)
		})
	}
	_, err := Run(context.Background(), []Job[int]{fail(0), fail(1)}, Config{Workers: 2})
	if err == nil {
		t.Fatal("no error")
	}
	for _, want := range []string{"job w000/p: fail-0", "job w001/p: fail-1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error missing %q:\n%v", want, err)
		}
	}
}

func TestPanicBecomesErrorWithIdentity(t *testing.T) {
	jobs := okJobs(4, nil)
	jobs[2] = Job[int]{
		Key: Key{Scope: "suite", Workload: "db-003", Policy: "chirp"},
		Run: func(context.Context) (int, error) { panic("policy exploded") },
	}
	_, err := Run(context.Background(), jobs, Config{Workers: 1})
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("error %v does not carry a *JobError", err)
	}
	if je.Key.Workload != "db-003" || je.Key.Policy != "chirp" {
		t.Errorf("JobError key = %v, want db-003/chirp", je.Key)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not carry a *PanicError", err)
	}
	if pe.Value != "policy exploded" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = value %v, stack %d bytes", pe.Value, len(pe.Stack))
	}
	if !strings.Contains(err.Error(), "db-003/chirp") {
		t.Errorf("error text does not name the job: %v", err)
	}
}

func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	jobs := make([]Job[int], 20)
	for i := range jobs {
		i := i
		jobs[i] = job(i, func(context.Context) (int, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			return i, nil
		})
	}
	_, err := Run(ctx, jobs, Config{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= 20 {
		t.Errorf("cancellation did not stop dispatch (ran %d)", got)
	}
}

func TestCheckpointResume(t *testing.T) {
	path := t.TempDir() + "/run.ckpt"

	// First attempt: job 3 fails, everything before it completes and
	// is checkpointed.
	ck, err := Open(path, "meta-v1")
	if err != nil {
		t.Fatal(err)
	}
	jobs := okJobs(6, nil)
	jobs[3] = job(3, func(context.Context) (int, error) { return 0, errors.New("transient") })
	if _, err := Run(context.Background(), jobs, Config{Workers: 1, Checkpoint: ck}); err == nil {
		t.Fatal("first attempt should fail")
	}
	if ck.Len() != 3 {
		t.Fatalf("checkpoint holds %d rows after interrupt, want 3", ck.Len())
	}
	ck.Close()

	// Resume: the same run with the failure healed must restore rows
	// 0..2 without re-running them and produce the full result set.
	ck2, err := Open(path, "meta-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	var ran atomic.Int64
	var c Counters
	res, err := Run(context.Background(), okJobs(6, &ran), Config{Workers: 2, Sink: &c, Checkpoint: ck2})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 3 {
		t.Errorf("resume re-ran %d jobs, want 3", ran.Load())
	}
	if c.Resumed.Load() != 3 {
		t.Errorf("sink saw %d resumed, want 3", c.Resumed.Load())
	}
	for i, v := range res {
		if v != i*i {
			t.Errorf("resumed result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestCheckpointMetaMismatch(t *testing.T) {
	path := t.TempDir() + "/run.ckpt"
	ck, err := Open(path, "n=870 instr=2000000")
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if _, err := Open(path, "n=96 instr=1000000"); err == nil {
		t.Fatal("resuming with different parameters must be refused")
	}
}

// TestCheckpointTruncatedTail simulates a run killed mid-append: the
// partial trailing line is discarded, the complete rows survive.
func TestCheckpointTruncatedTail(t *testing.T) {
	path := t.TempDir() + "/run.ckpt"
	ck, err := Open(path, "m")
	if err != nil {
		t.Fatal(err)
	}
	ck.Put(Key{Workload: "a", Policy: "p"}, 1)
	ck.Put(Key{Workload: "b", Policy: "p"}, 2)
	ck.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":{"worklo`) // killed mid-write, no newline
	f.Close()

	ck2, err := Open(path, "m")
	if err != nil {
		t.Fatalf("truncated tail not tolerated: %v", err)
	}
	defer ck2.Close()
	if ck2.Len() != 2 {
		t.Errorf("recovered %d rows, want 2", ck2.Len())
	}
	var v int
	if ok, err := ck2.Get(Key{Workload: "b", Policy: "p"}, &v); !ok || err != nil || v != 2 {
		t.Errorf("Get(b/p) = %v %v %v", ok, err, v)
	}
}

func TestReporterLines(t *testing.T) {
	var buf strings.Builder
	r := NewReporter(&buf, time.Hour) // no periodic ticks; just start/end lines
	r.RunStart(4, 1)
	r.JobDone(Key{Workload: "w", Policy: "p"}, 10*time.Millisecond, nil)
	r.JobDone(Key{Workload: "w", Policy: "q"}, 10*time.Millisecond, errors.New("x"))
	r.RunEnd()
	out := buf.String()
	for _, want := range []string{"resumed 1/4", "3/4 jobs", "1 failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("reporter output missing %q:\n%s", want, out)
		}
	}
}

// TestParallelRace exercises the full engine (sink, checkpoint,
// cancellation plumbing) under parallelism; `go test -race` makes it
// a data-race check.
func TestParallelRace(t *testing.T) {
	ck, err := Open(t.TempDir()+"/race.ckpt", "race")
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	var c Counters
	rep := NewReporter(&strings.Builder{}, time.Millisecond)
	res, err := Run(context.Background(), okJobs(64, nil),
		Config{Workers: 8, Sink: MultiSink(&c, rep), Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 64 || c.Done.Load() != 64 {
		t.Errorf("parallel run incomplete: %d results, %d done", len(res), c.Done.Load())
	}
}
