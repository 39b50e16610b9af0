package thrifty

import (
	"sync"
	"sync/atomic"
	"time"

	"thriftybarrier/internal/wheel"
)

// The internal wake-up (§3.3.2's programmable timer) is delivered through
// the process-wide timing wheel (internal/wheel) instead of a per-waiter
// time.Timer. The change is invisible to the algorithm — late/early wake
// accounting, the residual spin and the cut-off verdict are fed exactly
// as before — but it moves the cost off the Go runtime's per-P timer
// heaps: arming is an O(1) bucket append, and the overwhelmingly common
// cancel (the external wake-up usually wins the race) is an O(1) unlink
// that never touches a heap. In the many-barrier regime this is the
// difference between every park/release pair paying two O(log n) heap
// operations and paying two short critical sections on a sharded lock.
//
// The predecessor of this file pooled time.Timer values and stopped them
// with a non-blocking drain before Put. That protocol had a real race
// (confirmed by TestTimedParkWakeRace before the rewrite): when the
// timer fired at the same instant the external wake-up won the select,
// Stop returned false while the runtime was still between "timer removed
// from heap" and "tick delivered to the channel" — the non-blocking drain
// found the channel empty, the timer was pooled, and the late tick
// poisoned the next waiter's Get, waking it immediately and feeding a
// bogus early-wake sample to the predictor. The wake-channel protocol
// below closes that window by construction: a failed Cancel means the
// fire owns the channel's single token, so the waiter BLOCKS for it —
// the wheel's post-unlock send makes that receive bounded — and only a
// proven-empty channel is ever pooled.

// wakeChPool recycles the capacity-1 channels the wheel delivers internal
// wake-ups through. A channel is pooled only when provably empty: after
// its token was consumed, or after a successful Cancel (no token was or
// will ever be sent).
var wakeChPool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// disarmWake resolves the §3.3.2 race on the waiter's side after the
// external wake-up (or a cancellation) won the select: the internal
// wake-up is cancelled in O(1), and if the cancel reports that the fire
// already claimed the entry, the in-flight token is consumed so the
// channel goes back to the pool empty.
func disarmWake(h wheel.Handle, ch chan struct{}) {
	if !wheel.Default().Cancel(h) {
		// The fire won: its token is in the channel or about to be sent
		// (the wheel sends right after releasing the shard lock), so this
		// receive is bounded. Blocking here — rather than a non-blocking
		// drain — is what makes pooled channels impossible to poison.
		<-ch
	}
	wakeChPool.Put(ch)
}

// coalescedWake is one shared internal wake-up: a broadcast-close wheel
// entry that every waiter of the round whose predicted release quantizes
// to the same tick parks on. refs counts the sharers; the last one out
// cancels the entry and unpublishes the pointer.
type coalescedWake struct {
	due  uint64 // absolute wheel tick the entry fires at
	ch   chan struct{}
	h    wheel.Handle
	refs atomic.Int32
}

// joinCoalesced returns the round's shared wake-up for a deadline d from
// now, joining the published entry when its tick matches, creating and
// publishing one when none exists, and returning nil — caller falls back
// to a private entry — when the published entry fires at a different
// tick. Tick quantization is what makes sharing sound: two deadlines on
// the same tick are indistinguishable to the wheel, so one broadcast
// close serves both without changing either waiter's wake time.
func joinCoalesced(w *wheel.Wheel, rd *round, d time.Duration) *coalescedWake {
	due := w.DueTick(d)
	for {
		cw := rd.coalesced.Load()
		if cw == nil {
			nw := &coalescedWake{ch: make(chan struct{})}
			nw.refs.Store(1)
			nw.h, nw.due = w.ArmClose(d, nw.ch)
			if nw.due != due {
				// Time advanced across a tick boundary between DueTick
				// and ArmClose; the armed tick is the truth.
				due = nw.due
			}
			if rd.coalesced.CompareAndSwap(nil, nw) {
				return nw
			}
			// Lost the publish race: retire the private entry (a failed
			// Cancel means it already closed — ours alone, no one saw it)
			// and retry against the winner.
			w.Cancel(nw.h)
			continue
		}
		if cw.due != due {
			return nil
		}
		r := cw.refs.Load()
		if r <= 0 {
			// Mid-teardown: the last leaver is about to unpublish. Help
			// clear so the retry can create a fresh entry.
			rd.coalesced.CompareAndSwap(cw, nil)
			continue
		}
		if cw.refs.CompareAndSwap(r, r+1) {
			return cw
		}
	}
}

// leaveCoalesced drops one reference on the shared wake-up; the last
// leaver cancels the wheel entry (a failed Cancel means it fired — a
// closed broadcast channel needs no drain) and unpublishes it.
func leaveCoalesced(w *wheel.Wheel, rd *round, cw *coalescedWake) {
	if cw.refs.Add(-1) == 0 {
		w.Cancel(cw.h)
		rd.coalesced.CompareAndSwap(cw, nil)
	}
}

// timedPark is the hybrid wake-up (§3.3.2): block on the round's
// broadcast channel (external wake-up, the flag-flip invalidation) and a
// timing-wheel entry armed at the predicted release minus the margin
// (internal wake-up); the first to trigger cancels the other. A
// timer-woken waiter residual-spins until the release (§2's Residual
// Spin). The outcome is reported back rather than recorded here so the
// caller can fold all post-wait bookkeeping in one place.
func (b *Barrier) timedPark(rd *round, parkCh chan struct{}, predictedRelease time.Time, done <-chan struct{}) (out waitOutcome, cancelled bool) {
	wake := predictedRelease.Add(-b.opts.ParkMargin)
	d := wake.Sub(b.opts.Now())
	if d <= 0 {
		return out, park(parkCh, done)
	}

	// Spin-then-wheel: when the anticipation gap fits in the spin budget
	// AND the spinner gauge has a P to spare, skip the wheel and go
	// straight to the residual spin — for a gap this short, two
	// shard-lock sections plus a channel wake cost more than the spin
	// they would save, but only while there are processors to spin on.
	// A waiter the gauge turns away arms the wheel, so the many-barrier
	// regime always takes the wheel path. This is the internal wake-up
	// firing at arm time, hence earlyWake: the cut-off still judges the
	// prediction.
	if d <= b.opts.SpinBudget && b.trySpin(rd) {
		out.earlyWake = true
		return out, b.spinAdmitted(rd, parkCh, done)
	}

	// Coalesced path: with more than two parties, sibling waiters of the
	// same round predict (nearly) the same release, so their wheel
	// deadlines usually quantize to the same tick — one broadcast-close
	// entry serves them all, collapsing k arm/cancel pairs into one. At
	// parties ≤ 2 there is at most one timed parker per round, so the
	// shared entry would only add CAS traffic over the pooled private
	// path below.
	if b.parties > 2 {
		if cw := joinCoalesced(wheel.Default(), rd, d); cw != nil {
			select {
			case <-parkCh:
				out.lateWake = true
			case <-cw.ch:
				out.earlyWake = true
				leaveCoalesced(wheel.Default(), rd, cw)
				_, cancelled = b.spinThenPark(rd, parkCh, done)
				return out, cancelled
			case <-done:
				cancelled = true
			}
			leaveCoalesced(wheel.Default(), rd, cw)
			return out, cancelled
		}
	}

	wch := wakeChPool.Get().(chan struct{})
	h := wheel.Default().Arm(d, wch)
	select {
	case <-parkCh:
		// External wake-up won: the release beat the timer.
		out.lateWake = true
		disarmWake(h, wch)
	case <-wch:
		// Internal wake-up: the token is consumed, so the channel is
		// clean for the pool; residual-spin for the release, bounded by
		// the spin budget, then park.
		out.earlyWake = true
		wakeChPool.Put(wch)
		_, cancelled = b.spinThenPark(rd, parkCh, done)
	case <-done:
		cancelled = true
		disarmWake(h, wch)
	}
	return out, cancelled
}
