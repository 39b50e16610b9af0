package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/cpu"
)

// Trace-driven programs: instead of the synthetic SPLASH-2 stand-ins, a
// user can measure the per-thread compute times of their own application's
// barrier phases (e.g. with per-thread timestamps around each barrier) and
// replay them through the simulator to estimate what the thrifty barrier
// would save on their workload.
//
// The trace format is CSV, one line per dynamic barrier instance:
//
//	pc,dur0,dur1,...,durN-1
//
// where pc identifies the static barrier (any integer; instances of the
// same loop barrier share it) and durT is thread T's compute time for the
// phase in microseconds (fractional values allowed). Lines starting with
// '#' and blank lines are ignored.

// TracePhase is one parsed dynamic barrier instance.
type TracePhase struct {
	PC          uint64
	DurationsUS []float64
}

// ParseTrace reads the CSV trace format. Every line must carry the same
// number of per-thread durations.
func ParseTrace(r io.Reader) ([]TracePhase, error) {
	var phases []TracePhase
	sc := bufio.NewScanner(r)
	threads := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 2 {
			return nil, fmt.Errorf("workload: trace line %d: need pc plus at least one duration", lineNo)
		}
		pc, err := strconv.ParseUint(strings.TrimSpace(fields[0]), 0, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad pc %q: %v", lineNo, fields[0], err)
		}
		durs := make([]float64, len(fields)-1)
		for i, f := range fields[1:] {
			d, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad duration %q: %v", lineNo, f, err)
			}
			if d <= 0 {
				return nil, fmt.Errorf("workload: trace line %d: non-positive duration %v", lineNo, d)
			}
			durs[i] = d
		}
		if threads == -1 {
			threads = len(durs)
		} else if len(durs) != threads {
			return nil, fmt.Errorf("workload: trace line %d: %d durations, want %d", lineNo, len(durs), threads)
		}
		phases = append(phases, TracePhase{PC: pc, DurationsUS: durs})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %v", err)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return phases, nil
}

// TraceThreads reports the thread count of a parsed trace.
func TraceThreads(phases []TracePhase) int {
	if len(phases) == 0 {
		return 0
	}
	return len(phases[0].DurationsUS)
}

// BuildTrace converts a parsed trace into a runnable program for a machine
// of exactly the trace's thread count. Durations are converted to
// instruction counts at the given sustained IPC (use the machine's
// cpu.Config IPC so the simulated compute time matches the measured one).
func BuildTrace(phases []TracePhase, ipc float64) (core.SliceProgram, error) {
	if ipc <= 0 {
		return nil, fmt.Errorf("workload: non-positive IPC %v", ipc)
	}
	threads := TraceThreads(phases)
	prog := make(core.SliceProgram, len(phases))
	for i, ph := range phases {
		ph := ph
		if len(ph.DurationsUS) != threads {
			return nil, fmt.Errorf("workload: phase %d thread count mismatch", i)
		}
		prog[i] = core.PhaseSpec{
			PC: ph.PC,
			Segment: func(t int, refs []cpu.Ref) cpu.Segment {
				// µs -> cycles at 1 GHz -> instructions at the given IPC.
				insns := int64(ph.DurationsUS[t] * 1000 * ipc)
				if insns < 1 {
					insns = 1
				}
				return cpu.Segment{Instructions: insns, Refs: refs}
			},
			PreemptThread: -1,
		}
	}
	return prog, nil
}
