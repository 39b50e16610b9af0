package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// ringTrace runs the synthetic workload the determinism tests share: tokens
// circulating around a ring of logical ranks, each hop one lookahead ahead
// of the previous one, ranks block-mapped onto shards the way mp block-maps
// nodes. Every fire appends (when, token) to the owning rank's log; the
// per-rank logs are the observable the golden-reference policy promises is
// shard-count-invariant.
//
// Order keys follow the production rule: a per-source-rank counter packed
// under the rank, unique per destination and derived from simulation state
// only.
func ringTrace(ranks, tokens, hops, shards int, lookahead Cycles) ([][]uint64, *ParallelEngine) {
	pe := NewParallelEngine(shards, lookahead)
	owner := make([]int, ranks)
	for r := range owner {
		owner[r] = r * shards / ranks
	}
	logs := make([][]uint64, ranks)
	counter := make([]uint32, ranks) // counter[r] touched only by rank r's events
	order := func(r int) uint64 {
		counter[r]++
		if counter[r] == 0 {
			panic("test: order counter wrapped")
		}
		return uint64(r)<<32 | uint64(counter[r])
	}
	var hop func(token, r, left int) func()
	hop = func(token, r, left int) func() {
		return func() {
			s := pe.Shard(owner[r])
			now := s.Now()
			logs[r] = append(logs[r], uint64(now)<<16|uint64(token))
			if left == 0 {
				return
			}
			next := (r + 1) % ranks
			when := now + lookahead
			o := order(r)
			fn := hop(token, next, left-1)
			if owner[next] == owner[r] {
				s.At(when, o, fn)
			} else {
				s.Post(owner[next], when, o, fn)
			}
		}
	}
	for k := 0; k < tokens; k++ {
		r := k % ranks
		pe.Shard(owner[r]).At(Cycles(k+1), order(r), hop(k, r, hops))
	}
	pe.Run()
	return logs, pe
}

// ringTraceSequential is the same workload run on a plain Engine — the
// pre-parallel golden reference.
func ringTraceSequential(ranks, tokens, hops int, lookahead Cycles) [][]uint64 {
	e := NewEngine()
	logs := make([][]uint64, ranks)
	counter := make([]uint32, ranks)
	order := func(r int) uint64 {
		counter[r]++
		return uint64(r)<<32 | uint64(counter[r])
	}
	var hop func(token, r, left int) func()
	hop = func(token, r, left int) func() {
		return func() {
			now := e.Now()
			logs[r] = append(logs[r], uint64(now)<<16|uint64(token))
			if left == 0 {
				return
			}
			next := (r + 1) % ranks
			e.AtOrdered(now+lookahead, order(r), hop(token, next, left-1))
		}
	}
	for k := 0; k < tokens; k++ {
		r := k % ranks
		e.AtOrdered(Cycles(k+1), order(r), hop(k, r, hops))
	}
	e.Run()
	return logs
}

func diffLogs(t *testing.T, want, got [][]uint64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d ranks, want %d", label, len(got), len(want))
	}
	for r := range want {
		if len(want[r]) != len(got[r]) {
			t.Fatalf("%s: rank %d fired %d events, want %d", label, r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if want[r][i] != got[r][i] {
				t.Fatalf("%s: rank %d event %d = %#x, want %#x",
					label, r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestParallelMatchesSequentialSingleShard pins the golden-reference
// policy: a one-shard ParallelEngine produces exactly the trace a plain
// sequential Engine produces for the same model.
func TestParallelMatchesSequentialSingleShard(t *testing.T) {
	const ranks, tokens, hops = 8, 8, 40
	const lookahead = Cycles(48)
	want := ringTraceSequential(ranks, tokens, hops, lookahead)
	got, pe := ringTrace(ranks, tokens, hops, 1, lookahead)
	diffLogs(t, want, got, "1 shard vs sequential")
	if wantFired := uint64(tokens * (hops + 1)); pe.Fired() != wantFired {
		t.Fatalf("fired %d events, want %d", pe.Fired(), wantFired)
	}
	if pe.Pending() != 0 {
		t.Fatalf("%d events left pending", pe.Pending())
	}
}

// TestParallelDeterminismAcrossShardCounts pins the tentpole contract: the
// per-rank trace is byte-identical at every shard count, so a single-shard
// run is a valid golden reference for any -j.
func TestParallelDeterminismAcrossShardCounts(t *testing.T) {
	const ranks, tokens, hops = 16, 16, 60
	const lookahead = Cycles(48)
	want, _ := ringTrace(ranks, tokens, hops, 1, lookahead)
	for _, shards := range []int{2, 3, 4, 8, 16} {
		got, pe := ringTrace(ranks, tokens, hops, shards, lookahead)
		diffLogs(t, want, got, fmt.Sprintf("%d shards vs 1", shards))
		if pe.Pending() != 0 {
			t.Fatalf("%d shards: %d events left pending", shards, pe.Pending())
		}
		if shards > 1 && pe.Posted() == 0 {
			t.Fatalf("%d shards: no cross-shard messages — workload not exercising Post", shards)
		}
	}
}

// TestPostLookaheadViolation pins the conservative invariant's failure
// mode: a cross-shard message timed inside the executing window must panic
// (the model lied about its lookahead), not silently fire out of order.
func TestPostLookaheadViolation(t *testing.T) {
	pe := NewParallelEngine(2, 10)
	s0 := pe.Shard(0)
	s0.At(5, 1, func() {
		s0.Post(1, 6, 2, func() {}) // window is [5,15); 6 < 15 violates
	})
	mustPanic(t, "lookahead violation", func() { pe.Run() })
}

// TestPostOutOfRange pins the destination-shard bounds check.
func TestPostOutOfRange(t *testing.T) {
	pe := NewParallelEngine(2, 10)
	s0 := pe.Shard(0)
	s0.At(5, 1, func() {
		s0.Post(2, 100, 2, func() {})
	})
	mustPanic(t, "out of range", func() { pe.Run() })
}

// TestParallelEngineStop checks Stop halts at a window boundary and leaves
// a consistent cut: no window in flight, later work still queued.
func TestParallelEngineStop(t *testing.T) {
	pe := NewParallelEngine(2, 10)
	var tick func(s *EngineShard, when Cycles, n int) func()
	tick = func(s *EngineShard, when Cycles, n int) func() {
		return func() {
			if n == 3 {
				pe.Stop()
			}
			s.At(when+10, 1, tick(s, when+10, n+1))
		}
	}
	pe.Shard(0).At(0, 1, tick(pe.Shard(0), 0, 1))
	pe.Shard(1).At(0, 1, tick(pe.Shard(1), 0, 1))
	pe.Run()
	if pe.Fired() == 0 || pe.Pending() == 0 {
		t.Fatalf("fired %d, pending %d; want a partial run with queued work", pe.Fired(), pe.Pending())
	}
	// Resuming picks up where the cut left off and drains nothing new wrong:
	// the next Run must start at the stopped window, not re-fire anything.
	before := pe.Fired()
	pe.Shard(0).At(pe.Now()+100, 2, func() { pe.Stop() })
	pe.Run()
	if pe.Fired() <= before {
		t.Fatalf("resume fired nothing")
	}
}

// TestNewParallelEngineValidation pins the constructor guards.
func TestNewParallelEngineValidation(t *testing.T) {
	mustPanic(t, ">= 1 shard", func() { NewParallelEngine(0, 10) })
	mustPanic(t, "positive lookahead", func() { NewParallelEngine(1, 0) })
}

// TestParallelMaxCyclesSentinel covers the overflow clamp: events parked at
// MaxCycles (the "never" sentinel some models use) must still fire rather
// than livelock the window loop, whose exclusive end cannot exceed the
// sentinel.
func TestParallelMaxCyclesSentinel(t *testing.T) {
	pe := NewParallelEngine(2, 10)
	fired := 0
	pe.Shard(0).At(MaxCycles, 1, func() { fired++ })
	pe.Shard(1).At(MaxCycles, 1, func() { fired++ })
	pe.Run()
	if fired != 2 {
		t.Fatalf("fired %d sentinel events, want 2", fired)
	}
}

// fanoutRanks is fanoutTrace's rank count.
const fanoutRanks = 16

// fire is one dispatched event of fanoutTrace: its time, the rank it ran
// on, and the message's order key (unique machine-wide).
type fire struct {
	when  Cycles
	rank  int
	order uint64
}

// fanoutTrace runs a workload whose ranks post their messages out of key
// order, so the destination queues receive them in an order the engine
// must not depend on. Every fired event with hops left sends fanout
// messages to other ranks: pairs of them share a timestamp, and each
// source reserves a block of consecutive order keys per burst. Even
// tokens emit the burst in descending (when, order) order, odd tokens
// interleave it (highest, lowest, second highest, ...). Only the first
// message of a burst carries the token on; the rest are leaves.
//
// shards 0 runs the workload on a plain Engine, the reference. Otherwise
// ranks are block-mapped onto a ParallelEngine's shards and messages to a
// rank on another shard go through Post. It returns every fire in order,
// per shard (one list for the plain Engine), and the number of
// cross-shard messages sent.
func fanoutTrace(shards int) (traces [][]fire, crossed uint64, pe *ParallelEngine) {
	const (
		ranks     = fanoutRanks
		tokens    = 16
		hops      = 24
		fanout    = 5
		lookahead = Cycles(40)
	)
	var e *Engine
	owner := make([]int, ranks)
	traces = make([][]fire, 1)
	if shards == 0 {
		e = NewEngine()
	} else {
		pe = NewParallelEngine(shards, lookahead)
		traces = make([][]fire, shards)
		for r := range owner {
			owner[r] = r * shards / ranks
		}
	}
	now := func(r int) Cycles {
		if e != nil {
			return e.Now()
		}
		return pe.Shard(owner[r]).Now()
	}
	send := func(src, dst int, when Cycles, order uint64, fn func()) {
		switch {
		case e != nil:
			e.AtOrdered(when, order, fn)
		case owner[src] == owner[dst]:
			pe.Shard(owner[src]).At(when, order, fn)
		default:
			crossed++
			pe.Shard(owner[src]).Post(owner[dst], when, order, fn)
		}
	}
	next := make([]uint64, ranks) // next[r] touched only by rank r's events
	var msg func(token, r, left int, order uint64) func()
	msg = func(token, r, left int, order uint64) func() {
		return func() {
			t := now(r)
			traces[owner[r]] = append(traces[owner[r]], fire{t, r, order})
			if left == 0 {
				return
			}
			base := next[r]
			next[r] += fanout
			emit := func(k int) {
				dst := (r + 1 + 3*k) % ranks
				when := t + lookahead + Cycles(k/2)*7
				carry := 0
				if k == 0 {
					carry = left - 1
				}
				o := uint64(r)<<32 | (base + uint64(k))
				send(r, dst, when, o, msg(token, dst, carry, o))
			}
			for i := 0; i < fanout; i++ {
				k := fanout - 1 - i // descending
				if token%2 == 1 {
					if i%2 == 0 {
						k = fanout - 1 - i/2
					} else {
						k = i / 2
					}
				}
				emit(k)
			}
		}
	}
	for k := 0; k < tokens; k++ {
		r := k % ranks
		o := uint64(r)<<32 | next[r]
		next[r]++
		send(r, r, Cycles(k+1), o, msg(k, r, hops, o))
	}
	if e != nil {
		e.Run()
	} else {
		pe.Run()
	}
	return traces, crossed, pe
}

// TestParallelOutOfOrderPostsMatchEngine pins the direct-post design:
// cross-shard messages enter the destination queue the moment they are
// posted, in whatever order the posting shards produce them, and each
// shard still fires exactly the subsequence of a plain Engine's trace
// that belongs to its ranks.
func TestParallelOutOfOrderPostsMatchEngine(t *testing.T) {
	ref, _, _ := fanoutTrace(0)
	all := ref[0]
	for _, shards := range []int{1, 2, 4, 8} {
		got, crossed, pe := fanoutTrace(shards)
		want := make([][]fire, shards)
		for _, f := range all {
			s := f.rank * shards / fanoutRanks
			want[s] = append(want[s], f)
		}
		for s := range want {
			if len(got[s]) != len(want[s]) {
				t.Fatalf("%d shards: shard %d fired %d events, want %d", shards, s, len(got[s]), len(want[s]))
			}
			for i := range want[s] {
				if got[s][i] != want[s][i] {
					t.Fatalf("%d shards: shard %d event %d = %+v, want %+v", shards, s, i, got[s][i], want[s][i])
				}
			}
		}
		if pe.Fired() != uint64(len(all)) || pe.Pending() != 0 {
			t.Fatalf("%d shards: fired %d, pending %d; want %d, 0", shards, pe.Fired(), pe.Pending(), len(all))
		}
		if pe.Posted() != crossed {
			t.Fatalf("%d shards: Posted() = %d, want %d cross-shard posts", shards, pe.Posted(), crossed)
		}
		if shards > 1 && crossed == 0 {
			t.Fatalf("%d shards: no cross-shard posts — workload not exercising Post", shards)
		}
	}

	// The window [5, 15) accepts a post at its end and refuses one a
	// cycle earlier.
	pe := NewParallelEngine(2, 10)
	s0 := pe.Shard(0)
	var at Cycles
	s0.At(5, 1, func() { s0.Post(1, 15, 2, func() { at = pe.Shard(1).Now() }) })
	pe.Run()
	if at != 15 {
		t.Fatalf("post at the window end fired at %d, want 15", at)
	}
	pe = NewParallelEngine(2, 10)
	s0 = pe.Shard(0)
	s0.At(5, 1, func() { s0.Post(1, 14, 2, func() {}) })
	mustPanic(t, "lookahead violation", func() { pe.Run() })
}

// TestParallelRunStartsNoGoroutines pins the design: every window runs on
// the goroutine that called Run, so no callback ever sees a goroutine the
// engine started. With no concurrent windows, the race detector has
// nothing to check here; this test and the shard-count differential tests
// above enforce the shard discipline instead.
func TestParallelRunStartsNoGoroutines(t *testing.T) {
	const shards, ranks, hops = 8, 32, 40
	const lookahead = Cycles(48)
	pe := NewParallelEngine(shards, lookahead)
	owner := func(r int) int { return r * shards / ranks }
	before := runtime.NumGoroutine()
	var checked uint64
	var hop func(r, left int) func()
	hop = func(r, left int) func() {
		return func() {
			if n := runtime.NumGoroutine(); n != before {
				t.Fatalf("callback saw %d goroutines, %d before Run", n, before)
			}
			checked++
			if left == 0 {
				return
			}
			s := pe.Shard(owner(r))
			next := (r + 1) % ranks
			when, order, fn := s.Now()+lookahead, uint64(r)<<32|uint64(left), hop(next, left-1)
			if owner(next) == owner(r) {
				s.At(when, order, fn)
			} else {
				s.Post(owner(next), when, order, fn)
			}
		}
	}
	// Every rank starts a token at once, so every window has all eight
	// shards active.
	for r := 0; r < ranks; r++ {
		pe.Shard(owner(r)).At(1, uint64(r)<<32, hop(r, hops))
	}
	pe.Run()
	if checked != pe.Fired() || pe.Posted() == 0 {
		t.Fatalf("checked %d of %d events, %d posts; want every event and some posts", checked, pe.Fired(), pe.Posted())
	}
}
