package thrifty

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewPanicsOnZeroParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0, Options{})
}

func TestSingleParty(t *testing.T) {
	b := New(1, Options{})
	for i := 0; i < 100; i++ {
		b.Wait() // must never block
	}
	if g := b.Generation(); g != 100 {
		t.Fatalf("generation = %d, want 100", g)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const parties = 8
	const rounds = 50
	b := New(parties, Options{})
	var phase atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, parties*rounds)
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// All goroutines must observe the same phase while between
				// barriers.
				if got := phase.Load(); got != int64(r) {
					errs <- "phase skew"
					return
				}
				b.Wait()
				// Exactly one bumps the phase.
				phase.CompareAndSwap(int64(r), int64(r+1))
				b.Wait()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if phase.Load() != rounds {
		t.Fatalf("completed %d phases, want %d", phase.Load(), rounds)
	}
}

func TestNoThreadPassesBeforeAllArrive(t *testing.T) {
	const parties = 6
	b := New(parties, Options{})
	var arrived atomic.Int32
	var maxSeen atomic.Int32
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(p) * 2 * time.Millisecond) // staggered arrivals
			arrived.Add(1)
			b.Wait()
			// After the barrier, every party must have arrived.
			if n := arrived.Load(); n > maxSeen.Load() {
				maxSeen.Store(n)
			}
			if arrived.Load() != parties {
				t.Errorf("passed barrier with only %d arrivals", arrived.Load())
			}
		}()
	}
	wg.Wait()
}

func TestReusableAcrossGenerations(t *testing.T) {
	const parties = 4
	b := New(parties, Options{})
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				b.Wait()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("barrier deadlocked across generations")
	}
	if g := b.Generation(); g != 200 {
		t.Fatalf("generation = %d, want 200", g)
	}
}

func TestPredictionWarmsUpAndSelectsPark(t *testing.T) {
	// Long, stable intervals: after warm-up the early arrivers should pick
	// TimedPark or Park rather than spinning.
	const parties = 3
	b := New(parties, Options{
		SpinThreshold:      50 * time.Microsecond,
		YieldThreshold:     200 * time.Microsecond,
		TimedParkThreshold: 100 * time.Millisecond,
	})
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 12; r++ {
				if p == parties-1 {
					time.Sleep(4 * time.Millisecond) // straggler
				}
				b.WaitSite(0x42)
			}
		}()
	}
	wg.Wait()
	st := b.Stats()
	if len(st.Sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(st.Sites))
	}
	s := st.Sites[0]
	parked := s.Tiers[TierTimedPark] + s.Tiers[TierPark]
	if parked == 0 {
		t.Fatalf("no waits chose a parking tier despite ~4ms stalls: %+v", s)
	}
	if s.LastBIT < 3*time.Millisecond {
		t.Fatalf("learned BIT %v implausibly small", s.LastBIT)
	}
}

func TestShortStallsSpin(t *testing.T) {
	const parties = 4
	b := New(parties, Options{})
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				b.WaitSite(0x99) // near-simultaneous arrivals: tiny stalls
			}
		}()
	}
	wg.Wait()
	s := b.Stats().Sites[0]
	if s.Tiers[TierPark] > s.Waits/2 {
		t.Fatalf("balanced barrier parked too much: %+v", s)
	}
}

func TestDistinctSitesLearnIndependently(t *testing.T) {
	const parties = 2
	b := New(parties, Options{})
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				if p == 1 {
					time.Sleep(2 * time.Millisecond)
				}
				b.WaitSite(0xA)
				if p == 1 {
					time.Sleep(8 * time.Millisecond)
				}
				b.WaitSite(0xB)
			}
		}()
	}
	wg.Wait()
	st := b.Stats()
	if len(st.Sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(st.Sites))
	}
	var bitA, bitB time.Duration
	for _, s := range st.Sites {
		switch s.Key {
		case 0xA:
			bitA = s.LastBIT
		case 0xB:
			bitB = s.LastBIT
		}
	}
	if bitB <= bitA {
		t.Fatalf("site B BIT (%v) not above site A (%v)", bitB, bitA)
	}
}

func TestCallerPCIndexing(t *testing.T) {
	const parties = 2
	b := New(parties, Options{})
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				b.Wait() // site 1
				b.Wait() // site 2
			}
		}()
	}
	wg.Wait()
	if n := len(b.Stats().Sites); n != 2 {
		t.Fatalf("caller-PC indexing found %d sites, want 2", n)
	}
}

func TestCutoffDisablesErraticSite(t *testing.T) {
	// Swinging intervals (the Ocean pathology): predictions keep missing,
	// the cut-off must eventually disable the site.
	const parties = 2
	b := New(parties, Options{MaxStrikes: 2})
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 16; r++ {
				if p == 1 {
					d := 200 * time.Microsecond
					if r%2 == 0 {
						d = 4 * time.Millisecond
					}
					time.Sleep(d)
				}
				b.WaitSite(0xC)
			}
		}()
	}
	wg.Wait()
	s := b.Stats().Sites[0]
	if s.CutoffHits == 0 {
		t.Fatalf("no cut-off hits on swinging intervals: %+v", s)
	}
	if !s.Disabled {
		t.Fatalf("erratic site not disabled after %d hits", s.CutoffHits)
	}
}

func TestHybridWakeupCounters(t *testing.T) {
	const parties = 2
	b := New(parties, Options{
		TimedParkThreshold: time.Second,
		ParkMargin:         200 * time.Microsecond,
	})
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				if p == 1 {
					time.Sleep(3 * time.Millisecond)
				}
				b.WaitSite(0xD)
			}
		}()
	}
	wg.Wait()
	s := b.Stats().Sites[0]
	if s.Tiers[TierTimedPark] == 0 {
		t.Skipf("scheduler timing did not produce timed parks: %+v", s)
	}
	if s.EarlyWakes+s.LateWakes == 0 {
		t.Fatalf("timed parks resolved neither early nor late: %+v", s)
	}
}

func TestManyPartiesStress(t *testing.T) {
	const parties = 32
	b := New(parties, Options{})
	var wg sync.WaitGroup
	var sum atomic.Int64
	for p := 0; p < parties; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 30; r++ {
				sum.Add(int64(p))
				b.Wait()
			}
		}()
	}
	wg.Wait()
	want := int64(30 * parties * (parties - 1) / 2)
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

// Property: for arbitrary (small) party counts and round counts, the
// barrier neither deadlocks nor loses a generation.
func TestBarrierLivenessProperty(t *testing.T) {
	f := func(pRaw, rRaw uint8) bool {
		parties := int(pRaw%6) + 1
		rounds := int(rRaw%20) + 1
		b := New(parties, Options{})
		var wg sync.WaitGroup
		for p := 0; p < parties; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					b.Wait()
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
			return b.Generation() == uint64(rounds)
		case <-time.After(20 * time.Second):
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTierString(t *testing.T) {
	want := map[Tier]string{TierSpin: "spin", TierYield: "yield", TierTimedPark: "timed-park", TierPark: "park"}
	for tier, w := range want {
		if tier.String() != w {
			t.Errorf("%d.String() = %q, want %q", tier, tier.String(), w)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.SpinThreshold == 0 || o.Cutoff == 0 || o.Now == nil || o.MaxStrikes == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
}

func TestParkedTimeAccounting(t *testing.T) {
	const parties = 2
	b := New(parties, Options{TimedParkThreshold: time.Second})
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				if p == 1 {
					time.Sleep(3 * time.Millisecond)
				}
				b.WaitSite(0xE)
			}
		}()
	}
	wg.Wait()
	s := b.Stats().Sites[0]
	parkedWaits := s.Tiers[TierTimedPark] + s.Tiers[TierPark]
	if parkedWaits == 0 {
		t.Skip("scheduler produced no parking waits")
	}
	// Each parked wait blocked ~3ms; allow generous slack.
	if s.Parked < time.Duration(parkedWaits)*time.Millisecond {
		t.Fatalf("parked time %v implausibly small for %d parked waits", s.Parked, parkedWaits)
	}
}

func TestSinglePDegradesSpinToYield(t *testing.T) {
	// With GOMAXPROCS=1 a spinner blocks the releaser until preemption
	// (~25us quantum), so the spin tier must degrade to yielding — the
	// same condition sync.Mutex's spin guard checks — and no spin path,
	// the Mutex's included, is ever admitted.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rec := observeSpins(t, 1)
	b := New(2, Options{})
	var m Mutex
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				b.WaitSite(0xF)
				m.Lock()
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	s := b.Stats().Sites[0]
	if s.Tiers[TierSpin] != 0 {
		t.Fatalf("single-P barrier used the spin tier %d times", s.Tiers[TierSpin])
	}
	if s.Tiers[TierYield] == 0 {
		t.Fatalf("single-P barrier never yielded: %+v", s)
	}
	if n := rec.admissions.Load(); n != 0 {
		t.Fatalf("%d spinners admitted with GOMAXPROCS=1", n)
	}
	if ms := m.Stats(); ms.Spins != 0 {
		t.Fatalf("single-P mutex spun %d times", ms.Spins)
	}
}
