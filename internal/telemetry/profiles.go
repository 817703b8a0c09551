package telemetry

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiles is the opt-in pprof/trace capture of cmd/experiments and
// cmd/netdisj. Register its flags with AddFlags, call Start after flag parsing, and defer the
// returned stop function; with no flags set both calls are no-ops.
type Profiles struct {
	CPUProfile string
	MemProfile string
	TraceFile  string
}

// AddFlags registers -cpuprofile, -memprofile and -tracefile on fs.
func (p *Profiles) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&p.TraceFile, "tracefile", "", "write a runtime execution trace to this file")
}

// Start begins the requested captures. The returned stop function flushes
// and closes them (writing the heap profile last, after a GC so the
// snapshot reflects live memory) and must be called exactly once; it
// returns the first error encountered.
func (p *Profiles) Start() (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	cleanup := func() {
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
	}
	if p.CPUProfile != "" {
		cpuFile, err = os.Create(p.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("telemetry: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("telemetry: cpuprofile: %w", err)
		}
	}
	if p.TraceFile != "" {
		traceFile, err = os.Create(p.TraceFile)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("telemetry: tracefile: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			cleanup()
			return nil, fmt.Errorf("telemetry: tracefile: %w", err)
		}
	}
	return func() error {
		var firstErr error
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if p.MemProfile != "" {
			f, err := os.Create(p.MemProfile)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("telemetry: memprofile: %w", err)
				}
			} else {
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("telemetry: memprofile: %w", err)
				}
				if err := f.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		return firstErr
	}, nil
}
