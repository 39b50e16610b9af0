package mp

import (
	"fmt"

	"thriftybarrier/internal/energy"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/predict"
	"thriftybarrier/internal/sim"
)

// ParallelResult extends Result with the per-node detail the scaling study
// reports: every node's energy and spin time (the cross-shard determinism
// contract covers these individually, not just the aggregates), plus
// per-barrier-round latency.
type ParallelResult struct {
	Result
	// Rounds is the number of completed barrier episodes.
	Rounds int
	// RoundLatencySum accumulates, over episodes, the time from the last
	// arrival to the last release delivery — the collective's span.
	RoundLatencySum sim.Cycles
	// PerNodeEnergy is each rank's total energy in joules.
	PerNodeEnergy []float64
	// PerNodeSpin is each rank's total spin time.
	PerNodeSpin []sim.Cycles
}

// MeanRoundLatency is the average barrier-round span.
func (r ParallelResult) MeanRoundLatency() sim.Cycles {
	if r.Rounds == 0 {
		return 0
	}
	return r.RoundLatencySum / sim.Cycles(r.Rounds)
}

// RunParallel executes prog on the conservative parallel engine with the
// given shard count (clamped to [1, Nodes]) and returns the measurement.
// Ranks are block-mapped onto shards (rank r on shard r*shards/Nodes, so a
// shard owns a contiguous NoC region) and the lookahead floor is the one-hop
// NoC latency of a barrier message: no inter-rank interaction — combining
// fold, release broadcast, dissemination round — can take effect sooner, so
// events inside one time window cannot affect another shard within it.
//
// Determinism contract: for a fixed machine and program, RunParallel
// produces the identical ParallelResult — per-node energy and spin included,
// bit for bit — at every shard count. Every event carries an order key
// derived from simulation state only (a per-source-rank counter, or a
// reserved release-delivery key), so each shard's firing order is
// independent of the order messages are posted in; per-rank state is
// touched only by that rank's own events, so each rank's timeline is
// appended in a fixed order and the floating-point sums never reassociate.
//
// RunParallel does not touch the Machine's sequential state: the legacy
// Run remains byte-identical to its pre-parallel behaviour, and one Machine
// can serve both. For Baseline and Oracle options the two paths are
// semantically identical. Under the thrifty policy RunParallel's hybrid
// wake-up is message-accurate — a timer wake-up only learns of the release
// when the broadcast reaches its NIC, so a timer that fires after the root
// released but before the local NIC heard about it counts as an early wake
// (spinning out the residue) rather than consulting global release state
// the node could not observe. The sequential path classifies that corner
// from the root's perspective instead; results/extension_mp.txt keeps the
// legacy accounting.
func (m *Machine) RunParallel(prog Program, shards int) ParallelResult {
	if len(prog) == 0 {
		return ParallelResult{}
	}
	n := m.cfg.Nodes
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	lookahead := m.net.MinLatency(m.cfg.MsgBytes)
	if lookahead < 1 {
		lookahead = 1
	}
	pe := sim.NewParallelEngine(shards, lookahead)
	p := &prun{
		m:        m,
		pe:       pe,
		prog:     prog,
		owner:    make([]int, n),
		orderC:   make([]uint32, n),
		table:    predict.NewTable(m.opts.Predictor),
		brts:     make([]sim.Cycles, n),
		tl:       make([]*sim.Timeline, n),
		finish:   make([]sim.Cycles, n),
		episodes: make(map[int]*pepisode),
		stats:    make([]Stats, shards),
		rounds:   make([]int, shards),
		rlat:     make([]sim.Cycles, shards),
	}
	for r := 0; r < n; r++ {
		p.owner[r] = r * shards / n
		p.tl[r] = &sim.Timeline{}
	}
	for s := range p.stats {
		p.stats[s].Sleeps = make(map[string]int)
	}
	for r := 0; r < n; r++ {
		r := r
		p.at(r, 0, func() { p.startPhase(r, 0, 0) })
	}
	pe.Run()

	var span sim.Cycles
	for _, f := range p.finish {
		if f > span {
			span = f
		}
	}
	res := ParallelResult{
		Result: Result{
			Breakdown: energy.Collect(p.tl, span),
			Span:      span,
		},
		PerNodeEnergy: make([]float64, n),
		PerNodeSpin:   make([]sim.Cycles, n),
	}
	res.Stats.Sleeps = make(map[string]int)
	for s := 0; s < shards; s++ {
		st := &p.stats[s]
		res.Stats.Episodes += st.Episodes
		res.Stats.Spins += st.Spins
		res.Stats.EarlyWakes += st.EarlyWakes
		res.Stats.ExternalWakes += st.ExternalWakes
		res.Stats.LateWakes += st.LateWakes
		res.Stats.Disables += st.Disables
		for name, c := range st.Sleeps {
			res.Stats.Sleeps[name] += c
		}
		res.Rounds += p.rounds[s]
		res.RoundLatencySum += p.rlat[s]
	}
	for r := 0; r < n; r++ {
		res.PerNodeEnergy[r] = p.tl[r].TotalEnergy()
		res.PerNodeSpin[r] = p.tl[r].Time(sim.StateSpin)
	}
	return res
}

// prun is the state of one RunParallel invocation. It shares nothing
// mutable with the Machine. The parallel engine fires every shard's events
// on the goroutine that called Run, so prun needs no locks or atomics: the
// episode map and the predictor table are plain, and event order alone
// keeps every access deterministic at any shard count.
type prun struct {
	m      *Machine
	pe     *sim.ParallelEngine
	prog   Program
	owner  []int    // owner[r] = shard executing rank r's events
	orderC []uint32 // per-rank order-key counters (only rank r's events touch r's)

	// table is the run-local predictor. Within one window the only
	// operations on it that can reorder across shard counts are
	// commutative (per-rank Disable bits and per-rank Enabled reads):
	// Update comes after every same-episode Predict (the resolver is
	// causally last — see resolveTree/arrive), and next-episode Predicts
	// are at least a release delivery later, more than a full window away.
	table *predict.Table

	brts   []sim.Cycles
	tl     []*sim.Timeline
	finish []sim.Cycles

	episodes map[int]*pepisode

	// Per-shard accumulators, merged after the run; sums are invariant to
	// which shard an increment landed on.
	stats  []Stats
	rounds []int
	rlat   []sim.Cycles
}

// pepisode is one dynamic barrier instance of a parallel run.
type pepisode struct {
	phase int
	pc    uint64
	// arrived counts arrivals; the last one triggers dissemination, after
	// every rank's arrivalAt write and waiter registration. departed counts
	// departures; the last one retires the episode.
	arrived  int
	departed int
	// Tree fold state: subtreeAt[r]/pending[r] are touched only by fold
	// events executing on r's owner shard.
	subtreeAt []sim.Cycles
	pending   []int32
	// arrivalAt[r] is written by rank r's arrive, read by the resolver
	// (which runs after every arrival in both collectives).
	arrivalAt []sim.Cycles
	ws        []pwaiter // indexed by rank; each entry owned by its rank's shard
}

// pwaiter is one rank's waiting state within an episode.
type pwaiter struct {
	readyAt   sim.Cycles
	oracle    bool
	slept     bool // entered a sleep state this episode
	sleeping  bool // still asleep (no timer fired, no wake delivered)
	woken     bool // timer fired; wokeReady is the CPU-ready time
	departed  bool
	state     power.SleepState
	sleepFrom sim.Cycles
	wokeReady sim.Cycles
	timer     sim.Handle
}

// deliveryOrderBit tags release-delivery order keys. Rank counters occupy
// keys with bit 63 clear, so a delivery can never collide with a
// rank-scheduled event at the same cycle; at equal timestamps deliveries
// fire after the rank's own events (e.g. a timer wake-up at exactly the
// broadcast arrival), at every shard count.
const deliveryOrderBit = uint64(1) << 63

// order mints the next order key for events caused by rank r. Only rank
// r's own events call this, so the counter needs no synchronization and
// its sequence is deterministic.
func (p *prun) order(r int) uint64 {
	p.orderC[r]++
	if p.orderC[r] == 0 {
		panic(fmt.Sprintf("mp: rank %d order counter exhausted (2^32-1 events)", r))
	}
	return uint64(r)<<32 | uint64(p.orderC[r])
}

// at schedules fn at when on rank r's shard, keyed by r's order stream.
func (p *prun) at(r int, when sim.Cycles, fn func()) sim.Handle {
	return p.pe.Shard(p.owner[r]).At(when, p.order(r), fn)
}

// send schedules fn, caused by rank src, at when on rank dst's shard —
// locally when both ranks share a shard, else as a cross-shard post (which
// the engine checks against the lookahead).
func (p *prun) send(src, dst int, when sim.Cycles, fn func()) {
	o := p.order(src)
	if p.owner[dst] == p.owner[src] {
		p.pe.Shard(p.owner[src]).At(when, o, fn)
		return
	}
	p.pe.Shard(p.owner[src]).Post(p.owner[dst], when, o, fn)
}

func (p *prun) startPhase(r, k int, atTime sim.Cycles) {
	if k >= len(p.prog) {
		p.finish[r] = atTime
		return
	}
	dur := p.prog[k].Work(r)
	if dur <= 0 {
		dur = 1
	}
	p.tl[r].AddInterval(sim.StateCompute, dur, p.m.model.ComputePower())
	arrive := atTime + dur
	p.at(r, arrive, func() { p.arrive(r, k, arrive) })
}

func (p *prun) episodeFor(k int) *pepisode {
	ep := p.episodes[k]
	if ep == nil {
		n := p.m.cfg.Nodes
		ep = &pepisode{
			phase:     k,
			pc:        p.prog[k].PC,
			subtreeAt: make([]sim.Cycles, n),
			pending:   make([]int32, n),
			arrivalAt: make([]sim.Cycles, n),
			ws:        make([]pwaiter, n),
		}
		for r := 0; r < n; r++ {
			ep.pending[r] = int32(len(p.m.children[r]) + 1)
		}
		p.episodes[k] = ep
	}
	return ep
}

// arrive handles rank r's local arrival, mirroring Machine.arrive: register
// the waiter and pick its strategy first, because folding the last arrival
// can resolve the episode synchronously.
func (p *prun) arrive(r, k int, now sim.Cycles) {
	ep := p.episodeFor(k)
	w := &ep.ws[r]
	w.readyAt = now
	sh := p.owner[r]
	switch {
	case len(p.m.opts.States) == 0:
		p.stats[sh].Spins++
	case p.m.opts.Oracle:
		w.oracle = true
	default:
		p.decideSleep(ep, r, w, now)
	}
	ep.arrivalAt[r] = now
	if p.m.cfg.Algorithm == DisseminationBarrier {
		// The final arrival comes after every other rank's waiter
		// registration and Predict, so the resolver's table update and
		// state reads are deterministically ordered.
		ep.arrived++
		if ep.arrived == p.m.cfg.Nodes {
			p.resolveDissemination(ep, r)
		}
		return
	}
	p.fold(ep, r, now)
}

// fold mirrors Machine.fold on the parallel engine: the up-tree hop is a
// send to the parent's owner shard, and the hop latency is at least the
// lookahead, so the conservative invariant holds by construction.
func (p *prun) fold(ep *pepisode, r int, atTime sim.Cycles) {
	if atTime > ep.subtreeAt[r] {
		ep.subtreeAt[r] = atTime
	}
	ep.pending[r]--
	if ep.pending[r] > 0 {
		return
	}
	done := ep.subtreeAt[r] + p.m.cfg.Combine
	if par := p.m.parent[r]; par >= 0 {
		lat := p.m.net.Latency(r, par, p.m.cfg.MsgBytes)
		p.send(r, par, done+lat, func() { p.fold(ep, par, done+lat) })
		return
	}
	p.resolveTree(ep, r, done)
}

// resolveTree completes the tree collective at the root: recvAt[r] is the
// broadcast arrival down the tree, exactly as in the sequential machine.
func (p *prun) resolveTree(ep *pepisode, src int, done sim.Cycles) {
	bit := done - p.brts[0]
	p.resolve(ep, src, done, bit, func(r int) sim.Cycles {
		return done + p.m.depthLat[r]
	})
}

// resolveDissemination replays the log2(N)-round dissemination schedule
// from the recorded arrivals, identically to Machine.releaseDissemination.
func (p *prun) resolveDissemination(ep *pepisode, trigger int) {
	n := p.m.cfg.Nodes
	cur := append([]sim.Cycles(nil), ep.arrivalAt...)
	next := make([]sim.Cycles, n)
	for dist := 1; dist < n; dist <<= 1 {
		for i := 0; i < n; i++ {
			from := (i - dist + n) % n
			recv := cur[from] + p.m.net.Latency(from, i, p.m.cfg.MsgBytes)
			t := cur[i]
			if recv > t {
				t = recv
			}
			next[i] = t + p.m.cfg.Combine
		}
		cur, next = next, cur
	}
	release := cur[0]
	bit := release - p.brts[0]
	p.resolve(ep, trigger, release, bit, func(r int) sim.Cycles { return cur[r] })
}

// resolve completes an episode: update the predictor, account the round,
// and send every rank its release delivery. Deliveries to foreign shards
// are at least one network hop past the resolver's event time (the
// broadcast path for the tree, the final dissemination round otherwise), so
// they clear the lookahead check; the resolving rank's own delivery is
// always shard-local.
func (p *prun) resolve(ep *pepisode, src int, release, bit sim.Cycles, recv func(int) sim.Cycles) {
	sh := p.owner[src]
	p.stats[sh].Episodes++
	if len(p.m.opts.States) > 0 && !p.m.opts.Oracle {
		p.table.Update(ep.pc, bit)
	}
	n := p.m.cfg.Nodes
	var lastArr, lastRecv sim.Cycles
	for r := 0; r < n; r++ {
		if ep.arrivalAt[r] > lastArr {
			lastArr = ep.arrivalAt[r]
		}
		if at := recv(r); at > lastRecv {
			lastRecv = at
		}
	}
	p.rounds[sh]++
	p.rlat[sh] += lastRecv - lastArr
	for r := 0; r < n; r++ {
		r := r
		recvAt := recv(r)
		o := deliveryOrderBit | uint64(r)<<32 | uint64(ep.phase+1)
		fn := func() { p.delivered(ep, r, recvAt, release, bit) }
		if p.owner[r] == sh {
			p.pe.Shard(sh).At(recvAt, o, fn)
		} else {
			p.pe.Shard(sh).Post(p.owner[r], recvAt, o, fn)
		}
	}
}

// decideSleep mirrors Machine.decideSleep against the run-local table.
func (p *prun) decideSleep(ep *pepisode, r int, w *pwaiter, now sim.Cycles) {
	sh := p.owner[r]
	enabled := p.table.Enabled(ep.pc, r)
	var bit sim.Cycles
	var ok bool
	if enabled {
		bit, ok = p.table.Predict(ep.pc)
	}
	if !enabled || !ok {
		p.stats[sh].Spins++
		return
	}
	predictedWake := p.brts[r] + bit
	stall := predictedWake - now
	fit := p.m.model.BestFit(stall, 0)
	if !fit.OK {
		p.stats[sh].Spins++
		return
	}
	st := fit.State
	w.slept = true
	w.sleeping = true
	w.state = st
	p.tl[r].AddInterval(sim.StateTransition, st.Transition, p.m.model.TransitionPower(st))
	w.sleepFrom = now + st.Transition
	p.stats[sh].Sleeps[st.Name]++
	wake := predictedWake - st.Transition
	if wake < w.sleepFrom {
		wake = w.sleepFrom
	}
	w.timer = p.at(r, wake, func() { p.timerWake(r, w, wake) })
}

// timerWake is the node's internal wake-up. Unlike the sequential path it
// consults no global release state — the node cannot know whether the root
// released until the broadcast reaches its NIC — so it only transitions the
// CPU back up and records when it is ready; the delivery classifies the
// wake as early or late against the message arrival.
func (p *prun) timerWake(r int, w *pwaiter, now sim.Cycles) {
	if w.departed || w.woken || !w.sleeping {
		return
	}
	w.woken = true
	w.sleeping = false
	w.timer = sim.Handle{}
	st := w.state
	p.chargeSleep(r, w, now)
	p.tl[r].AddInterval(sim.StateTransition, st.Transition, p.m.model.TransitionPower(st))
	w.wokeReady = now + st.Transition
}

func (p *prun) chargeSleep(r int, w *pwaiter, until sim.Cycles) {
	if until > w.sleepFrom {
		p.tl[r].AddInterval(sim.StateSleep, until-w.sleepFrom, p.m.model.SleepPower(w.state))
	}
}

// delivered handles the release message reaching rank r's NIC at recvAt,
// settling whichever waiting strategy the rank chose.
func (p *prun) delivered(ep *pepisode, r int, recvAt, release, bit sim.Cycles) {
	w := &ep.ws[r]
	if w.departed {
		return
	}
	sh := p.owner[r]
	switch {
	case w.oracle:
		// Perfect prediction: sleep exactly the stall, transitions at both
		// ends, wake just in time for the message.
		stall := recvAt - w.readyAt
		fit := p.m.model.BestFit(stall, 0)
		if fit.OK {
			st := fit.State
			p.tl[r].AddInterval(sim.StateTransition, st.Transition, p.m.model.TransitionPower(st))
			p.tl[r].AddInterval(sim.StateSleep, stall-2*st.Transition, p.m.model.SleepPower(st))
			p.tl[r].AddInterval(sim.StateTransition, st.Transition, p.m.model.TransitionPower(st))
			p.stats[sh].Sleeps[st.Name]++
		} else if stall > 0 {
			p.tl[r].AddInterval(sim.StateSpin, stall, p.m.model.SpinPower())
			p.stats[sh].Spins++
		}
		p.depart(ep, r, w, recvAt+p.m.cfg.NICWake, release, bit, recvAt)

	case w.sleeping:
		// Still asleep: the NIC wakes the CPU (external wake-up), exit
		// transition on the critical path.
		w.woken = true
		w.sleeping = false
		p.pe.Shard(sh).Cancel(w.timer)
		w.timer = sim.Handle{}
		atTime := recvAt
		if atTime < w.sleepFrom {
			atTime = w.sleepFrom
		}
		p.chargeSleep(r, w, atTime)
		st := w.state
		p.tl[r].AddInterval(sim.StateTransition, st.Transition, p.m.model.TransitionPower(st))
		w.wokeReady = atTime + st.Transition
		p.stats[sh].ExternalWakes++
		p.depart(ep, r, w, w.wokeReady+p.m.cfg.NICWake, release, bit, recvAt)

	case w.woken && w.wokeReady >= recvAt:
		// Late wake: the message was already waiting when the CPU came up.
		p.stats[sh].LateWakes++
		p.depart(ep, r, w, w.wokeReady+p.m.cfg.NICWake, release, bit, recvAt)

	case w.woken:
		// Early wake: CPU up before the message; residual spin-poll.
		p.stats[sh].EarlyWakes++
		p.tl[r].AddInterval(sim.StateSpin, recvAt+p.m.cfg.NICWake-w.wokeReady, p.m.model.SpinPower())
		p.depart(ep, r, w, recvAt+p.m.cfg.NICWake, release, bit, recvAt)

	default:
		// Spinner from arrival: detects the message at delivery.
		dep := recvAt + p.m.cfg.NICWake
		if dep > w.readyAt {
			p.tl[r].AddInterval(sim.StateSpin, dep-w.readyAt, p.m.model.SpinPower())
		}
		p.depart(ep, r, w, dep, release, bit, recvAt)
	}
}

// depart mirrors Machine.depart: BRTS update, overprediction cut-off, next
// phase. The cut-off applies to every rank that actually slept this episode
// (w.slept) rather than to the sequential path's sleeping-at-depart subset;
// the difference is confined to the same timer corner the wake-up
// classification note above describes.
func (p *prun) depart(ep *pepisode, r int, w *pwaiter, dep, release, bit, recvAt sim.Cycles) {
	w.departed = true
	if w.timer != (sim.Handle{}) {
		p.pe.Shard(p.owner[r]).Cancel(w.timer)
		w.timer = sim.Handle{}
	}
	p.brts[r] += bit
	if w.slept && !w.oracle && p.m.opts.Cutoff > 0 && bit > 0 {
		skew := recvAt - release
		penalty := w.wokeReady - (p.brts[r] + skew)
		if float64(penalty) > p.m.opts.Cutoff*float64(bit) {
			p.table.Disable(ep.pc, r)
			p.stats[p.owner[r]].Disables++
		}
	}
	ep.departed++
	if ep.departed == p.m.cfg.Nodes {
		delete(p.episodes, ep.phase)
	}
	p.startPhase(r, ep.phase+1, dep)
}
