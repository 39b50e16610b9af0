package thrifty

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Mutex is a queue-fair mutex whose waiters choose between spinning and
// parking from a prediction of their wait — the runtime counterpart of the
// simulated thrifty MCS lock in internal/locks, and the paper's second
// future-work direction (§7, "other synchronization constructs, such as
// locks") applied to goroutines.
//
// Each waiter predicts its wait as
//
//	queue position × learned lock service time
//
// (last-value predicted, the lock-analogue of the barrier interval time).
// Short predicted waits spin briefly for the lowest handoff latency; long
// ones park immediately, freeing the processor. Handoff is strict FIFO:
// the releaser grants ownership directly to the head waiter, so a parked
// waiter's wake latency is automatically folded into the measured service
// time and future predictions account for it.
//
// The zero value is an unlocked mutex ready for use. A Mutex must not be
// copied after first use (go vet's copylocks check enforces this).
type Mutex struct {
	noCopy noCopy //nolint:unused // vet copylocks marker

	mu       sync.Mutex
	locked   bool
	queue    []*mutexWaiter
	svc      time.Duration // last-value service time (hold + handoff)
	svcValid bool
	grantAt  time.Time

	// procs is GOMAXPROCS, read at the first Lock (0 until then) and
	// cached: runtime.GOMAXPROCS(0) takes the scheduler lock.
	procs int

	// Stats.
	locks   uint64
	spins   uint64
	parks   uint64
	cancels uint64
	parked  time.Duration
}

type mutexWaiter struct {
	ch  chan struct{} // buffered(1): the grant token
	enq time.Time
}

// mutexSpinCutoff is the largest predicted wait that spins; beyond it the
// waiter parks (the round trip of a park is on the order of a few
// microseconds, the same role the sleep-state transition plays in the
// paper's table scan).
const mutexSpinCutoff = 20 * time.Microsecond

// Lock acquires m, blocking until it is available.
func (m *Mutex) Lock() {
	m.lock(nil) //nolint:errcheck // nil ctx never cancels, so lock cannot fail
}

// LockContext acquires m like Lock, but gives up if ctx is cancelled or
// expires first, returning ctx.Err(). A cancelled waiter is unlinked from
// the FIFO queue without disturbing its neighbours' positions; if the
// cancellation races the grant — the releaser has already dequeued the
// waiter and the ownership token is in flight — the cancelled goroutine
// accepts the grant and immediately passes ownership to the next waiter,
// so the lock is never leaked and FIFO order is preserved. A nil ctx
// behaves exactly like Lock.
func (m *Mutex) LockContext(ctx context.Context) error {
	if ctx == nil {
		m.lock(nil) //nolint:errcheck
		return nil
	}
	return m.lock(ctx)
}

// lock is the shared acquisition path; ctx may be nil (never cancels).
func (m *Mutex) lock(ctx context.Context) error {
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		done = ctx.Done()
	}
	m.mu.Lock()
	if m.procs == 0 {
		m.procs = runtime.GOMAXPROCS(0)
	}
	m.locks++
	if !m.locked && len(m.queue) == 0 {
		m.locked = true
		m.grantAt = time.Now()
		m.mu.Unlock()
		return nil
	}
	w := &mutexWaiter{ch: make(chan struct{}, 1), enq: time.Now()}
	m.queue = append(m.queue, w)
	position := len(m.queue)
	predWait := time.Duration(0)
	if m.svcValid {
		predWait = time.Duration(position) * m.svc
	}
	// The spinner gauge admits the spin only while it leaves a P for the
	// holder, the one goroutine missing before the grant (see trySpin).
	spin := m.svcValid && predWait <= mutexSpinCutoff && trySpin(m.procs, 1)
	if spin {
		m.spins++
	} else {
		m.parks++
	}
	m.mu.Unlock()

	if spin {
		// Bounded spin for the grant, then park: a wrong "short"
		// prediction costs at most the budget. done is nil for plain Lock
		// callers and its case never fires.
		deadline := time.Now().Add(2 * mutexSpinCutoff)
		for {
			select {
			case <-w.ch:
				endSpin()
				return nil
			case <-done:
				endSpin()
				return m.cancelWait(ctx, w)
			default:
			}
			if time.Now().After(deadline) {
				break
			}
		}
		endSpin()
	}
	// Park. Whichever path led here — a predicted-long wait or a spin whose
	// prediction ran out — the time blocked on the grant channel is CPU time
	// freed for other work, and is accounted as such (an underpredicting
	// spin must not corrupt the parked measurement by going untallied).
	// This is the only post-wait lock acquisition on the path.
	start := time.Now()
	select {
	case <-w.ch:
	case <-done:
		return m.cancelWait(ctx, w)
	}
	blocked := time.Since(start)
	m.mu.Lock()
	m.parked += blocked
	m.mu.Unlock()
	return nil
}

// cancelWait withdraws a cancelled waiter. If w is still queued it is
// unlinked in place (later waiters keep their relative order). If it is
// gone, the releaser has already dequeued it and the grant token is in
// flight: the only safe move is to accept the grant — it is guaranteed to
// arrive, the send is buffered — and hand ownership straight onward,
// because dropping the token would leave the mutex locked forever.
func (m *Mutex) cancelWait(ctx context.Context, w *mutexWaiter) error {
	m.mu.Lock()
	m.cancels++
	for i, q := range m.queue {
		if q == w {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			m.mu.Unlock()
			return ctx.Err()
		}
	}
	m.mu.Unlock()
	<-w.ch
	// We briefly own the lock. Pass it on without learning a service time:
	// grant-to-regrant here measures the cancellation race, not a real
	// hold, and would corrupt the wait predictor.
	m.release(false)
	return ctx.Err()
}

// Unlock releases m, handing it directly to the longest-waiting goroutine
// if any. It panics if m is not locked.
func (m *Mutex) Unlock() {
	m.release(true)
}

// release is the shared hand-off path. learn controls whether the
// grant-to-release interval updates the service-time predictor (true for
// real Unlocks, false when a cancelled grantee forwards ownership).
func (m *Mutex) release(learn bool) {
	m.mu.Lock()
	if !m.locked {
		m.mu.Unlock()
		panic("thrifty: Unlock of unlocked Mutex")
	}
	now := time.Now()
	if learn {
		// Learn the service time (grant-to-release, which includes any wake
		// latency the grantee paid) — the lock's last-value predictor.
		m.svc = now.Sub(m.grantAt)
		m.svcValid = true
	}
	if len(m.queue) == 0 {
		m.locked = false
		m.mu.Unlock()
		return
	}
	next := m.queue[0]
	m.queue = m.queue[1:]
	m.grantAt = now // ownership transfers immediately
	m.mu.Unlock()
	next.ch <- struct{}{}
}

// MutexStats is a snapshot of a Mutex's behaviour.
type MutexStats struct {
	Locks uint64
	// Spins and Parks count contended acquisitions by wait strategy.
	Spins uint64
	Parks uint64
	// Cancels counts LockContext acquisitions abandoned by cancellation.
	Cancels uint64
	// Parked is the wall time waiters spent blocked instead of spinning.
	Parked time.Duration
	// ServiceTime is the last learned lock service time.
	ServiceTime time.Duration
}

// Stats returns a snapshot of the mutex's counters.
func (m *Mutex) Stats() MutexStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MutexStats{
		Locks:       m.locks,
		Spins:       m.spins,
		Parks:       m.parks,
		Cancels:     m.cancels,
		Parked:      m.parked,
		ServiceTime: m.svc,
	}
}
