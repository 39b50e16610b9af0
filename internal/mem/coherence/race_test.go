package coherence

import (
	"sync"
	"testing"

	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
)

// Concurrent machines share nothing: the harness's -j workers each build
// their own machine, and a sharded machine runs its region protocols on
// one goroutine. This test drives two region protocols from two goroutines,
// each with its own network for the cross-region legs, so `go test -race`
// proves that protocol, cache, DRAM and network state is per-instance:
// nothing a goroutine touches belongs to another.
func TestRegionProtocolsConcurrent(t *testing.T) {
	const (
		regionNodes = 8
		accesses    = 2000
	)
	rcfg := DefaultConfig()
	rcfg.Nodes = regionNodes
	ncfg := noc.DefaultConfig()
	ncfg.Nodes = regionNodes

	newRegion := func() *Protocol {
		return New(rcfg, noc.New(ncfg), dram.NewPlacement(regionNodes, 4096))
	}
	regions := []*Protocol{newRegion(), newRegion()}
	fabrics := []*noc.Network{noc.New(noc.DefaultConfig()), noc.New(noc.DefaultConfig())}

	var wg sync.WaitGroup
	for r := range regions {
		wg.Add(1)
		go func(r int, p *Protocol, fabric *noc.Network) {
			defer wg.Done()
			base := uint64(r) << 32
			for i := 0; i < accesses; i++ {
				node := i % regionNodes
				addr := base + uint64(i%64)*64
				if i%3 == 0 {
					p.Write(node, addr, 0)
				} else {
					p.Read(node, addr, 0)
				}
				// A cross-region leg, priced on this goroutine's own
				// 64-node fabric.
				fabric.Latency(r*regionNodes+node, (1-r)*regionNodes+node, 8)
				if i%101 == 0 {
					p.SetGated(node, true)
					p.FlushForSleep(node, 0)
					p.SetGated(node, false)
				}
			}
		}(r, regions[r], fabrics[r])
	}
	wg.Wait()

	for r, p := range regions {
		if msgs, flits := fabrics[r].Stats(); msgs != accesses || flits != accesses {
			t.Errorf("region %d fabric: messages=%d flits=%d, want %d of each", r, msgs, flits, accesses)
		}
		s := p.Stats()
		if s.Reads == 0 || s.Writes == 0 {
			t.Errorf("region %d: counters empty: %+v", r, s)
		}
	}
}
