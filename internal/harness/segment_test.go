package harness

import (
	"testing"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/workload"
)

// TestSegmentIntoBuffer pins the core.PhaseSpec.Segment contract for every
// program the paper matrix and the core-scaling study run: a segment
// produced into a reused buffer equals one produced into nil, and once the
// buffer has grown, producing a segment allocates nothing.
func TestSegmentIntoBuffer(t *testing.T) {
	const nodes = 64
	type named struct {
		name string
		prog core.Program
	}
	progs := []named{{"core-scaling", CoreScalingProgram(1, nodes, 6)}}
	for _, s := range workload.All() {
		progs = append(progs, named{s.Name, s.Build(nodes, 1)})
	}
	var buf []cpu.Ref
	for _, p := range progs {
		for k := 0; k < p.prog.Phases(); k++ {
			spec := p.prog.Phase(k)
			for th := 0; th < nodes; th++ {
				want := spec.Segment(th, nil)
				got := spec.Segment(th, buf[:0])
				buf = got.Refs
				if got.Instructions != want.Instructions || got.RefScale != want.RefScale || len(got.Refs) != len(want.Refs) {
					t.Fatalf("%s phase %d thread %d: buffered segment %d insns, scale %v, %d refs; want %d, %v, %d",
						p.name, k, th, got.Instructions, got.RefScale, len(got.Refs), want.Instructions, want.RefScale, len(want.Refs))
				}
				for i := range want.Refs {
					if got.Refs[i] != want.Refs[i] {
						t.Fatalf("%s phase %d thread %d ref %d: %+v, want %+v", p.name, k, th, i, got.Refs[i], want.Refs[i])
					}
				}
				if allocs := testing.AllocsPerRun(1, func() { buf = spec.Segment(th, buf[:0]).Refs }); allocs != 0 {
					t.Fatalf("%s phase %d thread %d: %v allocations into a grown buffer, want 0", p.name, k, th, allocs)
				}
			}
		}
	}
}
