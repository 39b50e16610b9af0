package thrifty

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spinRecord is what observeSpins saw: admissions, the gauge's high-water
// mark, and admissions that broke the rule (spinners + missing > procs).
type spinRecord struct {
	admitted   chan struct{} // one token per admission, dropped when full
	admissions atomic.Int64
	high       atomic.Int64
	violations atomic.Int64
}

// observeSpins records every spinner admission for the rest of the test,
// judged against procs Ps.
func observeSpins(t *testing.T, procs int) *spinRecord {
	t.Helper()
	rec := &spinRecord{admitted: make(chan struct{}, 1)}
	obs := func(n, missing int) {
		rec.admissions.Add(1)
		for h := rec.high.Load(); int64(n) > h && !rec.high.CompareAndSwap(h, int64(n)); h = rec.high.Load() {
		}
		if n+missing > procs {
			rec.violations.Add(1)
		}
		select {
		case rec.admitted <- struct{}{}:
		default:
		}
	}
	spinObserver.Store(&obs)
	t.Cleanup(func() { spinObserver.Store(nil) })
	return rec
}

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// awaitAdmission waits for the next spinner admission.
func awaitAdmission(t *testing.T, rec *spinRecord) {
	t.Helper()
	select {
	case <-rec.admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("no waiter was admitted to spin")
	}
}

// assertGaugeDrained checks that no goroutine is left counted as spinning.
func assertGaugeDrained(t *testing.T, when string) {
	t.Helper()
	if n := spinners.Load(); n != 0 {
		t.Fatalf("spinner gauge = %d after %s, want 0", n, when)
	}
}

// Four parties per P over thousands of rounds: every admission leaves a P
// for each missing party, so at most GOMAXPROCS-1 goroutines ever spin.
func TestSpinGaugeBoundsSpinners(t *testing.T) {
	const procs, parties, rounds = 2, 8, 3000
	setProcs(t, procs)
	rec := observeSpins(t, procs)
	b := New(parties, Options{})
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b.WaitSite(0x51)
			}
		}()
	}
	wg.Wait()
	if v := rec.violations.Load(); v > 0 {
		t.Fatalf("%d of %d admissions broke spinners+missing <= %d", v, rec.admissions.Load(), procs)
	}
	if h := rec.high.Load(); h > procs-1 {
		t.Fatalf("spinner high-water mark %d, want <= %d", h, procs-1)
	}
	if rec.admissions.Load() == 0 {
		t.Fatal("no waiter was ever admitted to spin: the gate was not exercised")
	}
	assertGaugeDrained(t, "the run")
}

// A waiter the gauge turns away parks, and Stats counts it as a park
// whose stall is parked time — the tier used, not the tier planned.
func TestTurnedAwaySpinCountsAsPark(t *testing.T) {
	setProcs(t, 2)
	// Hold the one slot 2 Ps allow, so every early arriver is turned away.
	if !trySpin(2, 1) {
		t.Fatal("gauge busy before the test")
	}
	defer endSpin()
	b := New(2, Options{SpinThreshold: time.Hour}) // every plan is a spin
	const rounds, hold = 5, 5 * time.Millisecond
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			b.WaitSite(0x52)
		}
	}()
	for r := 0; r < rounds; r++ {
		for b.Snapshot().Arrived == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(hold) // the stall the early arriver spends parked
		b.WaitSite(0x52)
	}
	<-done
	s := b.Stats().Sites[0]
	if s.Tiers != [numTiers]uint64{TierPark: rounds} {
		t.Fatalf("tiers %v, want all %d early waits counted as parks", s.Tiers, rounds)
	}
	if s.Parked < rounds*hold/2 {
		t.Fatalf("%d parks of ~%v each, but Parked = %v", rounds, hold, s.Parked)
	}
}

// A spin ended by cancellation, a peer's break or Reset gives its slot
// back to the gauge (a release is covered by TestSpinGaugeBoundsSpinners).
func TestSpinGaugeDrainsOnCancelBreakReset(t *testing.T) {
	setProcs(t, 2)
	rec := observeSpins(t, 2)
	long := Options{SpinBudget: time.Minute} // admitted spinners never park

	t.Run("cancel", func(t *testing.T) {
		b := New(2, long)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- b.WaitSiteContext(ctx, 0x53) }()
		awaitAdmission(t, rec)
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled spinner returned %v", err)
		}
		assertGaugeDrained(t, "a cancelled spin")
	})

	t.Run("break", func(t *testing.T) {
		b := New(3, long)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 2)
		go func() { errc <- b.WaitSiteContext(ctx, 0x54) }() // turned away: 2 missing
		for b.Snapshot().Arrived == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		go func() { errc <- b.WaitSiteContext(context.Background(), 0x54) }() // 1 missing: spins
		awaitAdmission(t, rec)
		cancel()
		got := []error{<-errc, <-errc}
		if !(errors.Is(got[0], context.Canceled) && errors.Is(got[1], ErrBroken) ||
			errors.Is(got[1], context.Canceled) && errors.Is(got[0], ErrBroken)) {
			t.Fatalf("break returned %v, want one Canceled and one ErrBroken", got)
		}
		assertGaugeDrained(t, "a break")
	})

	t.Run("reset", func(t *testing.T) {
		b := New(2, long)
		errc := make(chan error, 1)
		go func() { errc <- b.WaitSiteContext(context.Background(), 0x55) }()
		awaitAdmission(t, rec)
		b.Reset()
		if err := <-errc; !errors.Is(err, ErrBroken) {
			t.Fatalf("spinner woken by Reset returned %v", err)
		}
		assertGaugeDrained(t, "Reset")
	})

	if v := rec.violations.Load(); v > 0 {
		t.Fatalf("%d admissions broke the rule", v)
	}
}

// Contended Lock and LockContext calls, cancelled ones included, all give
// their spin slots back.
func TestMutexSpinGaugeDrains(t *testing.T) {
	setProcs(t, 2)
	rec := observeSpins(t, 2)
	var m Mutex
	m.Lock() // prime a short service time so contended waiters spin
	m.Unlock()

	// A waiter cancelled while it spins or after it parked.
	m.Lock()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- m.LockContext(ctx) }()
	if m.Stats().ServiceTime <= mutexSpinCutoff {
		awaitAdmission(t, rec)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled LockContext returned %v", err)
	}
	m.Unlock()
	assertGaugeDrained(t, "a cancelled LockContext")

	// A contended mix of Lock and short-deadline LockContext calls.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if (w+i)%3 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%50)*time.Microsecond)
					if m.LockContext(ctx) == nil {
						m.Unlock()
					}
					cancel()
					continue
				}
				m.Lock()
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	assertGaugeDrained(t, "contended Lock/LockContext")
	if v := rec.violations.Load(); v > 0 {
		t.Fatalf("%d mutex admissions broke the rule", v)
	}
	if h := rec.high.Load(); h > 1 {
		t.Fatalf("mutex spinner high-water mark %d on 2 Ps", h)
	}
}
