package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startCPUProfile begins writing a CPU profile to path and returns
// the function that stops profiling and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeapProfile writes an up-to-date allocation profile to path,
// running a GC first so the numbers reflect live memory rather than
// whatever the last collection happened to leave.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}

// StartProfiles is the one profile-setup helper behind the
// -cpuprofile/-memprofile flag pair the cmd tools share: it starts a
// CPU profile when cpuPath is non-empty and returns a stop function
// that ends it and then writes the heap profile when memPath is
// non-empty. Either path may be empty; with both empty the returned
// stop is a no-op, so callers can defer it unconditionally.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var stopCPU func() error
	if cpuPath != "" {
		stopCPU, err = startCPUProfile(cpuPath)
		if err != nil {
			return nil, err
		}
	}
	return func() error {
		var first error
		if stopCPU != nil {
			first = stopCPU()
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
