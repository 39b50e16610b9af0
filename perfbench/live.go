package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thriftybarrier/internal/wheel"
	"thriftybarrier/thrifty"
)

// waitDeadline bounds every live and remote Wait. A Wait that passes it
// is cancelled and counts as failed.
const waitDeadline = time.Second

// waitGuard gives every party's Wait a deadline without allocating per
// call: each party holds one cancellable context, and a watchdog cancels
// the context of any Wait that has run longer than the deadline. The
// party replaces a context only after its deadline fired.
type waitGuard struct {
	deadline time.Duration
	base     time.Time
	slots    []guardSlot
	stop     chan struct{}
	done     chan struct{}
}

type guardSlot struct {
	mu sync.Mutex
	// start is the running Wait's start in ns since base, 0 when the
	// party is not waiting, and -1 once the watchdog has claimed it.
	start  atomic.Int64
	ctx    context.Context
	cancel context.CancelFunc
}

func newWaitGuard(parties int, deadline time.Duration) *waitGuard {
	g := &waitGuard{deadline: deadline, base: time.Now(), slots: make([]guardSlot, parties),
		stop: make(chan struct{}), done: make(chan struct{})}
	for i := range g.slots {
		g.slots[i].ctx, g.slots[i].cancel = context.WithCancel(context.Background())
	}
	go g.watch()
	return g
}

func (g *waitGuard) now() int64 { return max(time.Since(g.base).Nanoseconds(), 1) }

// begin marks party p as waiting and returns the context its Wait uses.
func (g *waitGuard) begin(p int) context.Context {
	s := &g.slots[p]
	s.start.Store(g.now())
	return s.ctx
}

// end marks party p's Wait finished and reports whether its deadline
// fired.
func (g *waitGuard) end(p int) (expired bool) {
	s := &g.slots[p]
	if s.start.Swap(0) != -1 {
		return false
	}
	s.mu.Lock()
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.mu.Unlock()
	return true
}

func (g *waitGuard) watch() {
	defer close(g.done)
	t := time.NewTicker(g.deadline / 8)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
		}
		now := g.now()
		for i := range g.slots {
			s := &g.slots[i]
			st := s.start.Load()
			if st <= 0 || now-st < g.deadline.Nanoseconds() {
				continue
			}
			s.mu.Lock()
			if s.start.CompareAndSwap(st, -1) {
				s.cancel()
			}
			s.mu.Unlock()
		}
	}
}

// close stops the watchdog and waits for it.
func (g *waitGuard) close() {
	close(g.stop)
	<-g.done
	for i := range g.slots {
		g.slots[i].cancel()
	}
}

// resync regathers the parties after a failed round. A failure leaves
// parties on different rounds (a cancelled barrier generation fails
// everyone; a cancellation that races a release fails only its own
// Wait), so every party that failed, and every party its peers then
// strand, meets here; the last to arrive runs onLast (re-arming the
// barrier) and all resume at the same round. Parties that stop leave, so
// the rest are never stranded.
type resync struct {
	mu     sync.Mutex
	cond   *sync.Cond
	active int
	count  int
	gen    uint64
	next   int64
	onLast func()
}

func newResync(parties int, onLast func()) *resync {
	r := &resync{active: parties, onLast: onLast}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// gather blocks until every active party has gathered and returns the
// round to resume at.
func (r *resync) gather(round int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gen
	r.count++
	r.next = max(r.next, round+1)
	if r.count == r.active {
		r.releaseLocked()
	}
	for g == r.gen {
		r.cond.Wait()
	}
	return r.next
}

// leave removes a party that has stopped.
func (r *resync) leave() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active--
	if r.count > 0 && r.count == r.active {
		r.releaseLocked()
	}
}

func (r *resync) releaseLocked() {
	if r.onLast != nil {
		r.onLast()
	}
	r.count = 0
	r.gen++
	r.cond.Broadcast()
}

// keepRounds is how many of its latest rounds each party of a timed loop
// keeps timestamps for. The record buffers are allocated and touched in
// full up front, so the benchmark's own memory does not grow with the
// number of rounds a run completes.
const keepRounds = 1 << 16

// roundLoop drives groups of parties, each group on its own barrier, in
// a closed loop: a party calls wait for round r only after its round r-1
// Wait returned. Once the time is up, the first party of a group to
// notice fixes the group's last round, so every party of the group runs
// the same number of rounds.
type roundLoop struct {
	parties int
	groups  [][]int
	base    time.Time
	guard   *waitGuard
	timeUp  atomic.Bool
	keep    int64       // records kept per party
	ring    [][]arrival // per party, round r at r % keep
	count   []int64     // rounds each party ran
	failed  []map[int64]bool
	waits   atomic.Int64
	fails   atomic.Int64
}

// rec returns party p's record of round r, which must lie in window(p).
func (l *roundLoop) rec(p int, r int64) arrival { return l.ring[p][r%l.keep] }

// window is the range of rounds whose records party p still holds.
func (l *roundLoop) window(p int) (lo, hi int64) {
	return max(0, l.count[p]-l.keep), l.count[p]
}

// runRounds runs the loop for d, or for exactly maxRounds rounds when
// maxRounds > 0 and they end sooner (d <= 0: no time limit). before, when non-nil, runs ahead of
// each Wait (think or
// compute time); wait performs one Wait with the guarded context;
// onResync(g) re-arms group g's barrier after a failed round.
func runRounds(groups [][]int, d time.Duration, maxRounds int64, onResync func(g int),
	before func(p int, r int64), wait func(ctx context.Context, p int, r int64) error) *roundLoop {
	parties := 0
	for _, g := range groups {
		parties += len(g)
	}
	l := &roundLoop{parties: parties, groups: groups, base: time.Now(),
		guard: newWaitGuard(parties, waitDeadline), ring: make([][]arrival, parties),
		count: make([]int64, parties), failed: make([]map[int64]bool, len(groups))}
	defer l.guard.close()
	l.keep = keepRounds
	if maxRounds > 0 {
		l.keep = maxRounds
	}
	for p := range l.ring {
		l.ring[p] = make([]arrival, l.keep)
		for i := range l.ring[p] {
			l.ring[p][i].Call = -1 // touch every page now
		}
	}
	if maxRounds <= 0 {
		maxRounds = math.MaxInt64
	}
	if d > 0 {
		timer := time.AfterFunc(d, func() { l.timeUp.Store(true) })
		defer timer.Stop()
	}
	var wg sync.WaitGroup
	for gi, g := range groups {
		stopAt := new(atomic.Int64)
		stopAt.Store(maxRounds)
		var onLast func()
		if onResync != nil {
			onLast = func() { onResync(gi) }
		}
		rs := newResync(len(g), onLast)
		var failMu sync.Mutex
		l.failed[gi] = map[int64]bool{}
		markFailed := func(r int64) {
			failMu.Lock()
			l.failed[gi][r] = true
			failMu.Unlock()
		}
		for _, p := range g {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer rs.leave()
				ring := l.ring[p]
				r := int64(0)
				defer func() { l.count[p] = r }()
				for ; ; r++ {
					for l.timeUp.Load() {
						cur := stopAt.Load()
						if cur <= r+1 || stopAt.CompareAndSwap(cur, r+1) {
							break
						}
					}
					if r >= stopAt.Load() {
						return
					}
					if before != nil {
						before(p, r)
					}
					ctx := l.guard.begin(p)
					call := time.Since(l.base).Nanoseconds()
					err := wait(ctx, p, r)
					ret := time.Since(l.base).Nanoseconds()
					expired := l.guard.end(p)
					ok := err == nil && !expired
					l.waits.Add(1)
					ring[r%l.keep] = arrival{Call: call, Ret: ret, OK: ok}
					if ok {
						continue
					}
					l.fails.Add(1)
					markFailed(r)
					next := rs.gather(r)
					for ; r+1 < next; r++ {
						ring[(r+1)%l.keep] = arrival{} // a round this party skipped
						markFailed(r + 1)
					}
				}
			}()
		}
	}
	wg.Wait()
	return l
}

// roundStats is what a loop's records show.
type roundStats struct {
	completed int       // rounds in which every party's Wait succeeded
	late, rtt []float64 // lateness of early parties, last party's Wait (µs)
	// early counts rounds on record in which a party left before the
	// last party called Wait: a broken rendezvous.
	early int
}

// rounds counts the rounds every party of a group completed and, from
// the rounds still on record, collects the lateness and round-trip
// samples.
func (l *roundLoop) rounds() roundStats {
	var st roundStats
	var buf []arrival
	for gi, g := range l.groups {
		st.completed += int(l.count[g[0]]) - len(l.failed[gi])
		lo, hi := l.window(g[0])
		for r := lo; r < hi; r++ {
			buf = buf[:0]
			for _, p := range g {
				buf = append(buf, l.rec(p, r))
			}
			lt, rt, err := roundTimes(buf)
			switch err {
			case nil:
				st.late = append(st.late, lt...)
				st.rtt = append(st.rtt, rt)
			case errEarlyRelease:
				st.early++
			}
		}
	}
	return st
}

// check fails the outcome for rounds that broke the rendezvous.
func (st roundStats) check(out *outcome) {
	if st.early > 0 {
		out.fail("%d rounds let a party leave before the last party called Wait", st.early)
	}
}

// liveBench is a thrifty.Barrier driven by 4 parties per P.
type liveBench struct {
	name    string
	b       *thrifty.Barrier
	parties int
	seed    uint64
	// compute, when non-nil, is party p's compute time before round r.
	compute func(p int, r int64) time.Duration
	keys    []uintptr
	warm    [2]int64 // warm-up Waits attempted and failed
}

const partiesPerP = 4

func setupLiveTight(cfg *config) (instance, error) {
	lb := &liveBench{name: "live-tight", parties: partiesPerP * cfg.procs, seed: cfg.seed, keys: []uintptr{1}}
	lb.start(2000)
	return lb, nil
}

// Phase shape of live-phases: three call sites with distinct compute
// phases (the paper's PC-indexed barriers), ±5% per-party jitter and
// one straggler per round, chosen from the seed, that computes 80%
// longer. The early parties' stall (≈0.5–1 ms) lies between the spin
// and timed-park thresholds.
var phaseBase = []time.Duration{600 * time.Microsecond, 1200 * time.Microsecond, 800 * time.Microsecond}

func setupLivePhases(cfg *config) (instance, error) {
	lb := &liveBench{name: "live-phases", parties: partiesPerP * cfg.procs, seed: cfg.seed,
		keys: []uintptr{1, 2, 3}}
	lb.compute = func(p int, r int64) time.Duration {
		base := phaseBase[r%int64(len(phaseBase))]
		jitter := 1 + 0.05*(2*unit(mix(lb.seed, uint64(r), uint64(p)))-1)
		d := time.Duration(float64(base) * jitter)
		if int(mix(lb.seed, uint64(r), math.MaxUint64)%uint64(lb.parties)) == p {
			d += base * 4 / 5
		}
		return d
	}
	lb.start(60)
	return lb, nil
}

// start creates the barrier and warms it up for warm rounds, so the
// predictor has intervals and the runtime its goroutines.
func (lb *liveBench) start(warm int64) {
	lb.b = thrifty.New(lb.parties, thrifty.Options{})
	l := lb.run(warmupLimit, warm)
	lb.warm = [2]int64{l.waits.Load(), l.fails.Load()}
}

// warmupLimit bounds a warm-up's time when its Waits fail at their
// deadline.
const warmupLimit = 2 * time.Second

func (lb *liveBench) warmed() (attempted, failed int64) { return lb.warm[0], lb.warm[1] }

// run drives the barrier for d, or for at most rounds rounds.
func (lb *liveBench) run(d time.Duration, rounds int64) *roundLoop {
	var before func(int, int64)
	if lb.compute != nil {
		before = func(p int, r int64) { time.Sleep(lb.compute(p, r)) }
	}
	return runRounds([][]int{seq(lb.parties)}, d, rounds, func(int) { lb.b.Reset() }, before, func(ctx context.Context, p int, r int64) error {
		return lb.b.WaitSiteContext(ctx, lb.keys[r%int64(len(lb.keys))])
	})
}

func (lb *liveBench) close() {}

func (lb *liveBench) measure(cfg *config, d time.Duration) *outcome {
	out := newOutcome()
	st0, w0, gen0 := lb.b.Stats(), wheel.Default().Stats(), lb.b.Generation()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0, t0 := cpuTime(), time.Now()
	l := lb.run(d, 0)
	wall, cpu := time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&ms1)
	cfg.heap.sample()
	st1, w1, gen1 := lb.b.Stats(), wheel.Default().Stats(), lb.b.Generation()

	rs := l.rounds()
	completed, late, lastWait := rs.completed, rs.late, rs.rtt
	out.attempted, out.failed = l.waits.Load(), l.fails.Load()
	rs.check(out)
	if got := gen1 - gen0; got != uint64(completed) {
		out.fail("Barrier.Generation advanced by %d over %d completed rounds", got, completed)
	}
	if completed == 0 {
		out.fail("no round completed")
		return out
	}
	out.roundsPS = float64(completed) / wall.Seconds()
	out.cpuPerRnd = float64(cpu.Microseconds()) / float64(completed)
	ls := summarize(late)
	out.report.put("late_p50_us", ls.P50, "us")
	out.report.put("late_p99_us", ls.Tail, "us")
	fmt.Printf("# %s lateness (us): %s\n", lb.name, ls)
	// A traced run records one span per Wait, from the timestamps the
	// loop takes anyway.
	_ = addSpans(cfg.tr, "thrifty.wait", l)

	// Per-layer counters, as deltas over the measured window.
	var tiers [4]uint64
	var waits, early, lateW, cutoff, disabled uint64
	var parked time.Duration
	before := map[uintptr]thrifty.SiteStats{}
	for _, s := range st0.Sites {
		before[s.Key] = s
	}
	for _, s := range st1.Sites {
		b := before[s.Key]
		for i := range tiers {
			tiers[i] += s.Tiers[i] - b.Tiers[i]
		}
		waits += s.Waits - b.Waits
		early += s.EarlyWakes - b.EarlyWakes
		lateW += s.LateWakes - b.LateWakes
		cutoff += s.CutoffHits - b.CutoffHits
		parked += s.Parked - b.Parked
		if s.Disabled {
			disabled++
		}
	}
	var tierTotal uint64
	for _, n := range tiers {
		tierTotal += n
	}
	var waited float64
	for p := range l.ring {
		lo, hi := l.window(p)
		for r := lo; r < hi; r++ {
			if a := l.rec(p, r); a.OK {
				waited += float64(a.Ret - a.Call)
			}
		}
	}
	m := out.layer
	m.put("thrifty.last_wait_us", median(lastWait), "us")
	for i, name := range []string{"spin", "yield", "timed_park", "park"} {
		m.put("thrifty.tier."+name, ratio(float64(tiers[i]), float64(tierTotal)), "ratio")
	}
	m.put("thrifty.allocs_per_round", float64(ms1.Mallocs-ms0.Mallocs)/float64(completed), "count")
	m.put("thrifty.early_wakes", float64(early), "count")
	m.put("thrifty.late_wakes", float64(lateW), "count")
	m.put("thrifty.cutoff_hits", float64(cutoff), "count")
	m.put("thrifty.sites_disabled", float64(disabled), "count")
	m.put("thrifty.parked_frac", ratio(float64(parked), waited), "ratio")
	fired, cancelled := w1.Fired-w0.Fired, w1.Cancelled-w0.Cancelled
	m.put("wheel.fired", float64(fired), "count")
	m.put("wheel.cancelled", float64(cancelled), "count")
	m.put("wheel.steals", float64(w1.Steals-w0.Steals), "count")
	m.put("wheel.fired_frac", ratio(float64(fired), float64(fired+cancelled)), "ratio")
	fmt.Printf("# %s tiers spin/yield/timed-park/park %v of %d waits; early %d late %d cutoff %d disabled sites %d\n",
		lb.name, tiers, waits, early, lateW, cutoff, disabled)
	if cfg.tr != nil && lb.compute == nil {
		m.put("ref.plain_rounds_per_s", plainBarrierRate(lb.parties, d/4), "1/s")
	}
	return out
}

// maxSpans caps how many per-Wait spans a traced run keeps.
const maxSpans = 60000

// spanIndex finds the spans addSpans made: a party's Wait in a round, and
// a group's round.
type spanIndex struct {
	wait  map[[2]int64]int32 // (party, round) → span
	round map[[2]int64]int32 // (group, round) → span
}

// addSpans turns a loop's per-Wait timestamps into spans: one per group
// and round, with one child per party's Wait. Each group gets an equal
// share of maxSpans.
func addSpans(tr *tracer, name string, l *roundLoop) spanIndex {
	ix := spanIndex{wait: map[[2]int64]int32{}, round: map[[2]int64]int32{}}
	if tr == nil {
		return ix
	}
	off := tr.since(l.base)
	quota := maxSpans / len(l.groups)
	for gi, g := range l.groups {
		first, last := l.window(g[0])
		for r := first; r < last && (r-first+1)*int64(len(g)+1) <= int64(quota); r++ {
			lo, hi := int64(math.MaxInt64), int64(0)
			for _, p := range g {
				if a := l.rec(p, r); a.OK {
					lo, hi = min(lo, a.Call), max(hi, a.Ret)
				}
			}
			if hi == 0 {
				continue
			}
			root := tr.add("round", -1, r, off+lo, off+hi)
			ix.round[[2]int64{int64(gi), r}] = root
			for _, p := range g {
				if a := l.rec(p, r); a.OK {
					ix.wait[[2]int64{int64(p), r}] = tr.add(name, root, r, off+a.Call, off+a.Ret)
				}
			}
		}
	}
	return ix
}

// plainBarrier is the yardstick: a mutex-and-channel barrier with no
// prediction and no tiers.
type plainBarrier struct {
	mu      sync.Mutex
	n, have int
	ch      chan struct{}
}

func (b *plainBarrier) wait() {
	b.mu.Lock()
	b.have++
	if b.have == b.n {
		close(b.ch)
		b.ch, b.have = make(chan struct{}), 0
		b.mu.Unlock()
		return
	}
	ch := b.ch
	b.mu.Unlock()
	<-ch
}

// plainBarrierRate runs the plain barrier with the same parties in a
// closed loop for d and returns its rounds per second.
func plainBarrierRate(parties int, d time.Duration) float64 {
	b := &plainBarrier{n: parties, ch: make(chan struct{})}
	l := runRounds([][]int{seq(parties)}, d, 0, nil, nil, func(context.Context, int, int64) error {
		b.wait()
		return nil
	})
	return float64(l.rounds().completed) / d.Seconds()
}

func seq(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// mix hashes a seed and two indices into 64 well-mixed bits
// (splitmix64), so per-round, per-party inputs follow from the seed alone.
func mix(seed, a, b uint64) uint64 {
	z := seed ^ a*0x9e3779b97f4a7c15 ^ b*0xc2b2ae3d27d4eb4f
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps 64 random bits to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
