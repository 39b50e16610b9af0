package sim

import "fmt"

// ParallelEngine is a conservative discrete-event engine over a sharded
// event queue: one arena Engine per shard, typically one shard per NoC
// region of the modeled machine. Time advances in windows of width equal
// to the model's lookahead — the minimum latency of any cross-shard
// interaction, which for the modeled machines is the one-hop NoC message
// latency. The invariant is the classic conservative-simulation one: an
// event executing at time t can only schedule cross-shard work at
// t+lookahead or later, so no event inside the window [T, T+lookahead)
// can affect another shard within the same window.
//
// Every window runs on the goroutine that called Run:
//
//  1. T = min pending timestamp across all shards (PeekWhen).
//  2. Each shard, in index order, fires its events with when < T+lookahead.
//     Same-shard scheduling (EngineShard.At) is unrestricted; cross-shard
//     messages (EngineShard.Post) must satisfy when >= T+lookahead — a
//     violation panics, because it means the model lied about its
//     lookahead — and go straight into the destination shard's queue.
//     The destination cannot fire them inside this window, whether it
//     already ran the window or runs it later.
//  3. Repeat.
//
// The engine starts no goroutines. The modeled barrier workloads carry
// only a handful of events per window, far too few to pay for starting
// and joining goroutines on every window: run concurrently, every sharded
// configuration was slower than the sequential engine on every host
// measured. What the shards keep is the partition itself, which the
// models' message-accurate design and the determinism tests rest on.
//
// Determinism: every event carries a model-supplied order key, and each
// shard fires in (when, order) order regardless of which window a message
// was posted in or which shard ran first. As long as the model (a) keys
// events with (when, order) pairs that are unique per destination shard
// and (b) derives the keys from simulation state only (e.g. source-rank
// counters), the complete run — every callback, in order, per shard — is
// independent of the shard count. A single-shard ParallelEngine therefore
// serves as the sequential golden reference for any shard count, and the
// cross-shard determinism tests assert exactly that.
//
// A ParallelEngine must not be copied, for the same reason an Engine must
// not be.
type ParallelEngine struct {
	shards    []*EngineShard
	lookahead Cycles
	now       Cycles // start of the executing (or last executed) window
	windowEnd Cycles // exclusive upper bound of the executing window
	windows   uint64
	posted    uint64
	stopped   bool
}

// EngineShard is one shard of a ParallelEngine: a private event queue.
// Methods on an EngineShard may be called before Run or from a callback
// executing on that same shard; a callback must reach another shard only
// through Post. Windows never run concurrently, so the race detector
// cannot catch a callback that reads or writes a foreign shard's state
// mid-window. The shard-count differential tests do: such a callback sees
// state that depends on which shards already ran the window, and the
// per-shard traces stop matching the single-shard reference.
type EngineShard struct {
	id  int
	pe  *ParallelEngine
	eng *Engine
}

// NewParallelEngine builds an engine with the given shard count and
// lookahead (the minimum cross-shard scheduling distance, in cycles). It
// panics on a non-positive shard count or lookahead: a zero lookahead
// would make every window empty and the engine livelock.
func NewParallelEngine(shards int, lookahead Cycles) *ParallelEngine {
	if shards < 1 {
		panic(fmt.Sprintf("sim: parallel engine needs >= 1 shard, got %d", shards))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: parallel engine needs positive lookahead, got %d", lookahead))
	}
	p := &ParallelEngine{lookahead: lookahead}
	p.shards = make([]*EngineShard, shards)
	for i := range p.shards {
		p.shards[i] = &EngineShard{id: i, pe: p, eng: NewEngine()}
	}
	return p
}

// Shards reports the shard count.
func (p *ParallelEngine) Shards() int { return len(p.shards) }

// Shard returns shard i.
func (p *ParallelEngine) Shard(i int) *EngineShard { return p.shards[i] }

// Lookahead reports the configured lookahead.
func (p *ParallelEngine) Lookahead() Cycles { return p.lookahead }

// Now reports the start of the most recent window — the global lower bound
// on pending work. Individual shards advance independently inside a
// window; use EngineShard.Now for a shard-local clock.
func (p *ParallelEngine) Now() Cycles { return p.now }

// Windows reports how many time windows have executed.
func (p *ParallelEngine) Windows() uint64 { return p.windows }

// Posted reports how many cross-shard messages have been posted.
func (p *ParallelEngine) Posted() uint64 { return p.posted }

// Fired reports the total number of events dispatched across all shards.
func (p *ParallelEngine) Fired() uint64 {
	var sum uint64
	for _, s := range p.shards {
		sum += s.eng.Fired()
	}
	return sum
}

// Pending reports the total number of queued events across all shards.
func (p *ParallelEngine) Pending() int {
	var sum int
	for _, s := range p.shards {
		sum += s.eng.Pending()
	}
	return sum
}

// Stop makes Run return at the next window boundary. Unlike Engine.Stop it
// does not interrupt the window in flight: every shard finishes the
// current window, so that the stop point is a consistent cut of the
// simulation.
func (p *ParallelEngine) Stop() { p.stopped = true }

// Run executes windows until every shard's queue is drained or Stop is
// called, and returns the maximum shard-local time.
func (p *ParallelEngine) Run() Cycles {
	p.stopped = false
	for !p.stopped {
		t, ok := p.nextTime()
		if !ok {
			break
		}
		p.now = t
		end := t + p.lookahead
		if end < t { // overflow clamp near MaxCycles
			end = MaxCycles
		}
		p.windowEnd = end
		for _, s := range p.shards {
			if t == MaxCycles {
				// The clamped (exclusive) end cannot pass the sentinel,
				// so fire the events parked there inclusively instead of
				// spinning forever on an empty window.
				s.eng.RunUntil(end)
			} else {
				s.eng.runBefore(end)
			}
		}
		p.windows++
	}
	var max Cycles
	for _, s := range p.shards {
		if n := s.eng.Now(); n > max {
			max = n
		}
	}
	return max
}

// nextTime is the minimum pending timestamp across shards.
func (p *ParallelEngine) nextTime() (Cycles, bool) {
	var t Cycles
	ok := false
	for _, s := range p.shards {
		if w, k := s.eng.PeekWhen(); k && (!ok || w < t) {
			t, ok = w, true
		}
	}
	return t, ok
}

// ID reports the shard's index.
func (s *EngineShard) ID() int { return s.id }

// Now reports the shard-local clock: the timestamp of the last event fired
// on this shard.
func (s *EngineShard) Now() Cycles { return s.eng.Now() }

// Fired reports the number of events dispatched on this shard.
func (s *EngineShard) Fired() uint64 { return s.eng.Fired() }

// At schedules fn at when on this shard with the given order key. It is
// the shard-local analogue of Engine.AtOrdered (same past-scheduling and
// capacity panics) and may only be called before Run or from a callback
// executing on this shard.
func (s *EngineShard) At(when Cycles, order uint64, fn func()) Handle {
	return s.eng.AtOrdered(when, order, fn)
}

// Cancel removes a pending event scheduled on this shard. Like At, it may
// only be called before Run or from a callback executing on this shard.
func (s *EngineShard) Cancel(h Handle) bool { return s.eng.Cancel(h) }

// Post schedules fn at when on shard dst, directly in dst's queue. when
// must lie at or beyond the window end (the lookahead guarantee), and a
// violation panics — it means an event tried to affect another shard
// within the same window, which the conservative synchronization cannot
// order.
//
// Posting to the shard itself is allowed (it is At with the lookahead
// check); models normally use At for shard-local work instead, which also
// permits delays below the lookahead.
func (s *EngineShard) Post(dst int, when Cycles, order uint64, fn func()) {
	p := s.pe
	if dst < 0 || dst >= len(p.shards) {
		panic(fmt.Sprintf("sim: post to shard %d out of range [0,%d)", dst, len(p.shards)))
	}
	if when < p.windowEnd {
		panic(fmt.Sprintf(
			"sim: lookahead violation: cross-shard event at %d inside the executing window ending at %d (lookahead %d)",
			when, p.windowEnd, p.lookahead))
	}
	p.shards[dst].eng.AtOrdered(when, order, fn)
	p.posted++
}
