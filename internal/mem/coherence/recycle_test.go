package coherence

import (
	"testing"

	"thriftybarrier/internal/mem/cache"
)

// TestRecycledEntryStartsUncached shares one line among three nodes, has
// every sharer evict it, and reads it again. The line's entry goes to the
// free list reset, and the next read reuses it: the line must come back
// Exclusive to the reader with no stale sharers, so a later write
// invalidates only the node that read it since.
func TestRecycledEntryStartsUncached(t *testing.T) {
	p := smallProto()
	const x = 0x40 // L2 set 1 of every node
	sets := uint64(p.cfg.L2.Sets())
	for n := 0; n < 3; n++ {
		p.Read(n, x, 0)
	}
	e := p.dir[x]
	if e == nil || e.state != dirShared || e.sharers.count() != 3 {
		t.Fatalf("line %#x after three reads: entry %+v, want Shared by 3 nodes", x, e)
	}
	// Each sharer fills set 1 of its L2 with private lines, which evicts x
	// as the least recently used way.
	for n := 0; n < 3; n++ {
		for w := 1; w <= p.cfg.L2.Ways; w++ {
			p.Read(n, uint64(n+1)<<32|(x+uint64(w)*sets*64), 0)
		}
		if _, ok := p.L2(n).Peek(x); ok {
			t.Fatalf("node %d still holds %#x after filling its set", n, x)
		}
	}
	if _, ok := p.dir[x]; ok {
		t.Fatalf("line %#x keeps a directory entry after every sharer evicted it", x)
	}
	if len(p.free) != 1 || p.free[0] != e {
		t.Fatalf("free list = %v, want only the entry of %#x", p.free, x)
	}
	if e.state != dirUncached || e.owner != 0 || !e.sharers.empty() {
		t.Fatalf("recycled entry = %+v, want reset to uncached", *e)
	}

	p.Read(3, x, 0)
	if p.dir[x] != e {
		t.Fatal("the read did not reuse the recycled entry")
	}
	if st, _ := p.L2(3).Peek(x); st != cache.Exclusive {
		t.Fatalf("reader's L2 state = %v, want Exclusive", st)
	}
	if e.state != dirExclusive || e.owner != 3 || !e.sharers.empty() {
		t.Fatalf("entry after the read = %+v, want Exclusive to node 3 with no sharers", *e)
	}
	p.Read(4, x, 0)
	res := p.Write(4, x, 0)
	if len(res.Invalidations) != 1 || res.Invalidations[0].Node != 3 {
		t.Fatalf("write invalidated %+v, want node 3 only", res.Invalidations)
	}
}

// TestRemoteFillStreamAllocFree streams reads through every node's caches
// until each L2 is full, so every further fill evicts a line and recycles
// its directory entry. A warm access must not allocate.
func TestRemoteFillStreamAllocFree(t *testing.T) {
	p := newProto(t)
	i := 0
	access := func() {
		p.Read(i&63, uint64(i)<<6, 0)
		i++
	}
	warm := 2 * p.cfg.Nodes * p.cfg.L2.SizeBytes / p.cfg.L2.LineBytes
	for k := 0; k < warm; k++ {
		access()
	}
	before := p.Stats().RemoteFills
	if allocs := testing.AllocsPerRun(20000, access); allocs != 0 {
		t.Fatalf("warm remote fill allocates %v times per access, want 0", allocs)
	}
	if fills := p.Stats().RemoteFills - before; fills < 20000 {
		t.Fatalf("%d remote fills in 20000 stream accesses, want every access to miss", fills)
	}
}
