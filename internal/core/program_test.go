package core

import (
	"testing"

	"thriftybarrier/internal/cpu"
)

// Each machine hands every segment producer its one reference buffer,
// emptied, and keeps what the producer grew it to: only the first segment
// of a run may get a buffer without room. The plain, DVFS and sharded
// paths all hold it.
func TestMachinesReuseSegmentBuffer(t *testing.T) {
	const refs = 4
	check := func(name string, run func(Program)) {
		var calls, nonEmpty, noRoom int
		prog := make(SliceProgram, 6)
		for i := range prog {
			prog[i] = PhaseSpec{
				PC:            0x100,
				PreemptThread: -1,
				Segment: func(th int, buf []cpu.Ref) cpu.Segment {
					calls++
					if len(buf) != 0 {
						nonEmpty++
					}
					if cap(buf) < refs {
						noRoom++
					}
					for j := 0; j < refs; j++ {
						buf = append(buf, cpu.Ref{Addr: uint64(th)<<20 | uint64(j)<<6})
					}
					return cpu.Segment{Instructions: 100_000, Refs: buf}
				},
			}
		}
		run(prog)
		if calls == 0 || nonEmpty != 0 || noRoom != 1 {
			t.Errorf("%s: %d segments, %d handed a non-empty buffer, %d handed one without room; want 0 and 1",
				name, calls, nonEmpty, noRoom)
		}
	}
	check("Machine", func(p Program) { NewMachine(testArch(), Thrifty()).Run(p) })
	check("Machine/DVFS", func(p Program) { NewMachine(testArch(), DVFSReclaim()).Run(p) })
	check("ParallelMachine", func(p Program) { parallelRun(t, parallelArch(16, 8), Thrifty(), p, 2) })
}
