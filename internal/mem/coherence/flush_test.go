package coherence

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"thriftybarrier/internal/mem/cache"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/sim"
)

// smallProto builds an 8-node protocol with caches small enough (L1 8
// lines, L2 32 lines) that a few hundred lines of traffic force L1 and L2
// evictions of every state.
func smallProto() *Protocol {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.L1 = cache.Config{SizeBytes: 512, LineBytes: 64, Ways: 2}
	cfg.L2 = cache.Config{SizeBytes: 2048, LineBytes: 64, Ways: 4}
	ncfg := noc.DefaultConfig()
	ncfg.Nodes = cfg.Nodes
	return New(cfg, noc.New(ncfg), dram.NewPlacement(cfg.Nodes, 4096))
}

// flushOp is one step of a random protocol trace.
type flushOp struct {
	kind int // 0 read, 1 write, 2 FlushForSleep
	node int
	addr uint64
}

// randomTrace draws n operations over nodes and a 96-line address range;
// about one step in eight is a flush.
func randomTrace(seed int64, nodes, n int) []flushOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]flushOp, n)
	for i := range ops {
		op := flushOp{node: rng.Intn(nodes), addr: uint64(rng.Intn(96))<<6 | uint64(rng.Intn(64))}
		switch r := rng.Intn(8); {
		case r == 0:
			op.kind = 2
		case r < 4:
			op.kind = 1
		}
		ops[i] = op
	}
	return ops
}

// apply runs op on p at time now. A flush gates the node, as the core
// machines do before a deep sleep; the node's next access wakes it. While
// it sleeps, a forward to it panics, so a missed downgrade cannot pass
// unnoticed. flush is the FlushForSleep implementation under test.
func apply(p *Protocol, op flushOp, now sim.Cycles, flush func(*Protocol, int, sim.Cycles) (int, sim.Cycles)) (lines int, lat sim.Cycles) {
	if op.kind == 2 {
		lines, lat = flush(p, op.node, now)
		p.SetGated(op.node, true)
		return lines, lat
	}
	p.SetGated(op.node, false)
	if op.kind == 1 {
		return 0, p.Write(op.node, op.addr, now).Latency
	}
	return 0, p.Read(op.node, op.addr, now).Latency
}

// TestExclusiveOwnerHoldsLineInL2 checks the invariant the L2-driven
// downgrade relies on: after every step of a random read/write/flush trace,
// every dirExclusive entry owned by node n has its line valid in n's L2.
func TestExclusiveOwnerHoldsLineInL2(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p := smallProto()
		for i, op := range randomTrace(seed, p.cfg.Nodes, 3000) {
			apply(p, op, sim.Cycles(i)*100, (*Protocol).FlushForSleep)
			for line, e := range p.dir {
				if e.state != dirExclusive {
					continue
				}
				if _, ok := p.l2s[e.owner].Peek(line); !ok {
					t.Fatalf("seed %d step %d (%+v): directory says node %d owns line %#x exclusively, but its L2 lacks the line",
						seed, i, op, e.owner, line)
				}
			}
		}
	}
}

// refFlushForSleep is FlushForSleep as it was before the downgrade walked
// the sleeper's L2: the same writebacks, then refDowngradeExclusives.
func refFlushForSleep(p *Protocol, node int, now sim.Cycles) (lines int, latency sim.Cycles) {
	for _, line := range p.l1s[node].FlushDirty(nil) {
		p.l2s[node].SetState(line, cache.Modified)
	}
	dirty := p.l2s[node].FlushDirty(nil)
	var maxNet sim.Cycles
	for _, line := range dirty {
		home := p.place.Home(line)
		p.mems[home].Access(line)
		if l := p.net.Latency(node, home, p.cfg.DataBytes); l > maxNet {
			maxNet = l
		}
		delete(p.dir, line)
		p.stats.Writebacks++
		p.stats.FlushedLines++
	}
	refDowngradeExclusives(p, node)
	lines = len(dirty)
	return lines, sim.Cycles(lines)*p.cfg.Bus + maxNet
}

// refDowngradeExclusives is the reference whole-directory downgrade walk.
func refDowngradeExclusives(p *Protocol, node int) {
	for line, e := range p.dir {
		if e.state == dirExclusive && e.owner == node {
			if st, ok := p.l2s[node].Peek(line); ok && st == cache.Exclusive {
				p.l1s[node].SetState(line, cache.Shared)
				p.l2s[node].SetState(line, cache.Shared)
				e.state = dirShared
				e.sharers.clear()
				e.sharers.add(node)
			} else if !ok {
				delete(p.dir, line)
			}
		}
	}
}

// TestDowngradeMatchesDirectoryWalk feeds twin protocols the same random
// trace, one flushing through FlushForSleep and one through the reference
// whole-directory walk, and requires identical results, directory entries,
// cache states and statistics after every flush.
func TestDowngradeMatchesDirectoryWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got, want := smallProto(), smallProto()
		flushes := 0
		for i, op := range randomTrace(seed, got.cfg.Nodes, 3000) {
			now := sim.Cycles(i) * 100
			gl, glat := apply(got, op, now, (*Protocol).FlushForSleep)
			wl, wlat := apply(want, op, now, refFlushForSleep)
			if gl != wl || glat != wlat {
				t.Fatalf("seed %d step %d (%+v): got (%d lines, %d cycles), reference (%d, %d)", seed, i, op, gl, glat, wl, wlat)
			}
			if op.kind != 2 {
				continue
			}
			flushes++
			if err := sameState(got, want); err != nil {
				t.Fatalf("seed %d step %d, flush of node %d: %v", seed, i, op.node, err)
			}
		}
		if flushes == 0 {
			t.Fatalf("seed %d: trace has no flush", seed)
		}
	}
}

// sameState compares two protocols' directories, cache states over the
// trace's address range, cache counters and protocol statistics, and
// describes the first difference.
func sameState(got, want *Protocol) error {
	if g, w := got.Stats(), want.Stats(); g != w {
		return fmt.Errorf("stats differ: got %+v, reference %+v", g, w)
	}
	if len(got.dir) != len(want.dir) {
		return fmt.Errorf("directory sizes differ: got %d, reference %d", len(got.dir), len(want.dir))
	}
	for line, w := range want.dir {
		if g := got.dir[line]; g == nil || !reflect.DeepEqual(*g, *w) {
			return fmt.Errorf("directory entry %#x differs: got %+v, reference %+v", line, g, *w)
		}
	}
	for n := 0; n < got.cfg.Nodes; n++ {
		for lvl, c := range [][2]*cache.Cache{{got.l1s[n], want.l1s[n]}, {got.l2s[n], want.l2s[n]}} {
			g, w := c[0], c[1]
			if g.DirtyCount() != w.DirtyCount() || g.ValidCount() != w.ValidCount() {
				return fmt.Errorf("node %d L%d: line counts differ", n, lvl+1)
			}
			gh, gm, ge, gw := g.Stats()
			wh, wm, we, ww := w.Stats()
			if gh != wh || gm != wm || ge != we || gw != ww {
				return fmt.Errorf("node %d L%d: cache stats differ", n, lvl+1)
			}
			for line := uint64(0); line < 96<<6; line += 64 {
				gs, _ := g.Peek(line)
				ws, _ := w.Peek(line)
				if gs != ws {
					return fmt.Errorf("node %d L%d line %#x: got %v, reference %v", n, lvl+1, line, gs, ws)
				}
			}
		}
	}
	return nil
}
