package core

import (
	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/sim"
)

// Program is the SPMD application the machine runs: a common sequence of
// dynamic barrier instances, each preceded by per-thread compute work. All
// threads pass every barrier in order (barrier semantics).
type Program interface {
	// Phases is the number of dynamic barrier instances.
	Phases() int
	// Phase describes instance i.
	Phase(i int) PhaseSpec
}

// PhaseSpec is one dynamic barrier instance and the compute leading to it.
type PhaseSpec struct {
	// PC identifies the static barrier in the code (the prediction index,
	// §3.2). Distinct dynamic instances of the same loop share a PC.
	PC uint64
	// Segment generates the compute work thread t performs before arriving.
	// It appends the thread's sampled references to refs and returns the
	// segment with Refs set to the result, so the machines can pass one
	// reused buffer (refs[:0]) and consume the segment before the next
	// call. Callers that keep the segment pass nil.
	Segment func(thread int, refs []cpu.Ref) cpu.Segment
	// PreemptThread, if >= 0, injects an OS preemption of PreemptDelay into
	// that thread's compute for this instance (§3.4.2 scenarios).
	PreemptThread int
	// PreemptDelay is the injected preemption length.
	PreemptDelay sim.Cycles
}

// SliceProgram is a Program backed by a phase list.
type SliceProgram []PhaseSpec

// Phases implements Program.
func (p SliceProgram) Phases() int { return len(p) }

// Phase implements Program.
func (p SliceProgram) Phase(i int) PhaseSpec { return p[i] }

// UniformProgram builds a simple test program: instances dynamic barrier
// instances of a single static barrier (pc), each preceded by compute whose
// duration per thread is produced by work. work's references are appended
// to the caller's buffer.
func UniformProgram(pc uint64, instances int, work func(instance, thread int) cpu.Segment) SliceProgram {
	prog := make(SliceProgram, instances)
	for i := range prog {
		i := i
		prog[i] = PhaseSpec{
			PC: pc,
			Segment: func(t int, refs []cpu.Ref) cpu.Segment {
				seg := work(i, t)
				seg.Refs = append(refs, seg.Refs...)
				return seg
			},
			PreemptThread: -1,
		}
	}
	return prog
}
