package thrifty

import (
	"runtime"
	"sync/atomic"
)

// The paper's spin-versus-sleep choice (§3.1) assumes one thread per CPU,
// so a spinning early arriver never delays the straggler it waits for.
// Goroutines break that premise: with more parties than Ps, a spinner
// holds the very processor a missing party needs to arrive, and every
// spin stretches the critical path it is waiting out. So every busy-wait
// in this package — the barrier's spin tier, the residual spin after an
// internal wake-up, the timed park's spin-instead-of-wheel shortcut, and
// the Mutex's spin branch — is admitted through one process-wide gauge.

// spinners counts the goroutines busy-waiting in any spin path of this
// package, across every Barrier and Mutex in the process.
var spinners atomic.Int32

// spinObserver, when set, sees every admission: the gauge including the
// admitted spinner, and the missing count it was judged against. Tests
// use it to record the gauge's high-water mark.
var spinObserver atomic.Pointer[func(spinners, missing int)]

// trySpin admits a waiter to busy-wait when the spinners, itself
// included, plus the missing goroutines that must still run before its
// wait can end fit in procs Ps. At least one goroutine is always missing
// — for a barrier whose last party has arrived, the releaser still
// finishing — so at most procs-1 goroutines ever spin and GOMAXPROCS=1
// never does. An admitted caller must call endSpin when it stops.
func trySpin(procs, missing int) bool {
	missing = max(missing, 1)
	for {
		n := int(spinners.Load())
		if n+1+missing > procs {
			return false
		}
		if spinners.CompareAndSwap(int32(n), int32(n+1)) {
			if obs := spinObserver.Load(); obs != nil {
				(*obs)(n+1, missing)
			}
			return true
		}
	}
}

// endSpin returns an admitted spinner's slot to the gauge.
func endSpin() { spinners.Add(-1) }

// trySpin admits a waiter of rd's generation to busy-wait. The parties
// still missing are read from the state word, or from the tree's leaves
// in tree topology. A gauge that leaves no room even for one missing
// party turns the waiter away before that count, which scans every leaf.
func (b *Barrier) trySpin(rd *round) bool {
	if int(spinners.Load())+2 > b.procs {
		return false
	}
	missing := 1
	if b.tree != nil {
		missing = b.parties - b.tree.arrived(rd.gen)
	} else if st := b.state.Load(); stateGen(st) == rd.gen {
		missing = b.parties - stateCount(st)
	}
	return trySpin(b.procs, missing)
}

// spinThenPark busy-waits within the spin budget, then parks — a wrong
// "short" prediction costs at most the budget. A waiter the gauge turns
// away parks at once and reports turnedAway; with one P the waiter
// yields instead, since a spinner would only block the releaser (the
// same condition sync.Mutex's spin guard checks). It reports whether the
// wait ended by cancellation.
func (b *Barrier) spinThenPark(rd *round, parkCh chan struct{}, done <-chan struct{}) (turnedAway, cancelled bool) {
	if b.procs < 2 {
		return false, b.yieldThenPark(rd, parkCh, done)
	}
	if !b.trySpin(rd) {
		return true, park(parkCh, done)
	}
	return false, b.spinAdmitted(rd, parkCh, done)
}

// spinAdmitted is the spin of a waiter trySpin admitted: the hot loop is
// a single atomic load, and the clock and the cancellation channel are
// consulted only every batch (done is nil for plain Wait callers and
// never fires). Past the budget the waiter leaves the gauge and parks.
func (b *Barrier) spinAdmitted(rd *round, parkCh chan struct{}, done <-chan struct{}) (cancelled bool) {
	deadline := b.opts.Now().Add(b.opts.SpinBudget)
	for {
		for i := 0; i < 1024; i++ {
			if rd.done.Load() {
				endSpin()
				return false
			}
		}
		if done != nil {
			select {
			case <-done:
				endSpin()
				return true
			default:
			}
		}
		if b.opts.Now().After(deadline) {
			endSpin()
			return park(parkCh, done)
		}
	}
}

// yieldThenPark shares the processor while polling, then parks.
func (b *Barrier) yieldThenPark(rd *round, parkCh chan struct{}, done <-chan struct{}) (cancelled bool) {
	deadline := b.opts.Now().Add(b.opts.SpinBudget)
	for {
		if rd.done.Load() {
			return false
		}
		if done != nil {
			select {
			case <-done:
				return true
			default:
			}
		}
		runtime.Gosched()
		if b.opts.Now().After(deadline) {
			return park(parkCh, done)
		}
	}
}

// park blocks until the external wake-up closes parkCh or done fires,
// and reports whether done did.
func park(parkCh chan struct{}, done <-chan struct{}) (cancelled bool) {
	select {
	case <-parkCh:
		return false
	case <-done:
		return true
	}
}
