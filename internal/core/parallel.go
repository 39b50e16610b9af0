package core

import (
	"fmt"
	"math/bits"

	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/energy"
	"thriftybarrier/internal/mem/coherence"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/predict"
	"thriftybarrier/internal/sim"
)

// ParallelMachine is the CC-NUMA machine partitioned into NoC regions so
// it runs on sim.ParallelEngine: each region owns its CPUs, private
// caches, a directory/memory slice, and the barrier lines homed on its
// nodes. Every interaction that crosses a region boundary — check-in
// requests, flag reads, release invalidations (the wake-up IPIs), and
// predictor queries — travels as an explicit message posted into the
// destination shard's queue, with lookahead equal to the NoC's minimum
// cross-node latency. The engine runs every window's shards one after
// another on the goroutine that called Run, so nothing here is shared
// between goroutines. That also means the race detector cannot catch a
// handler that reads another region's state mid-window; the shard-count
// bit-identity tests do, because such a read depends on which shards
// already ran the window.
//
// Two deliberate departures from the sequential Machine's analytic
// shortcuts make the partitioning possible; both are visible in results,
// which is why the sequential Machine stays the reference for ≤64-node
// paper figures while this machine owns the scaling study:
//
//   - Barrier count and flag lines are home-resident: every access is a
//     request/reply with the line's home node instead of a migratory
//     cache-to-cache transfer. The flat barrier's lock serialization is
//     preserved exactly — the home grants the count line at
//     lock-free = previous holder's release, with the release itself
//     modeled as reply + check-in cost + release notification — but a
//     sleeping (gated) waiter can never strand ownership of a hot line
//     in a powered-down cache.
//   - Waiter decisions are message-accurate: where the sequential
//     machine's waiters peek at the global episode ("was the flag
//     flipped yet?"), this machine's waiters learn it from the reply to
//     a real flag read, and the BIT predictor for a barrier lives on the
//     flag's home node, queried by message. Results are therefore
//     identical across shard counts by construction: every event's time
//     and payload derives from messages, never from cross-region state.
//
// The machine is single-use: construct, Run once, read the result.
type ParallelMachine struct {
	arch  Arch
	opts  Options
	topo  Topology
	model *power.Model

	regionNodes int
	regionCount int

	net       *noc.Network    // global fabric: barrier + IPI traffic
	place     *dram.Placement // global placement: barrier line homes
	lookahead sim.Cycles
	detectRT  sim.Cycles

	nodes   []*pnode
	regions []*pregion

	prog    Program
	pcs     map[uint64]*pcMeta
	nextPC  uint64
	record  bool
	shards  int
	eng     *sim.Engine
	pe      *sim.ParallelEngine
	shardOf []int
	used    bool
}

// pcMeta is the per-static-barrier layout: line addresses, the flag's
// home node, and the check-in fabric.
type pcMeta struct {
	countAddr uint64
	flagAddr  uint64
	flagHome  int
	shape     pShape
}

// pnode is one CPU's shard-owned state.
type pnode struct {
	id  int
	seq uint32 // per-node event counter; the order-key source
	cpu *cpu.CPU

	brts   sim.Cycles
	finish sim.Cycles

	pendStart sim.Cycles // arrival time at the current barrier
	w         *pwaiter

	forbidden map[uint64]bool // §3.3.3 cut-off: prediction disabled per PC

	// Record capture (SetRecording).
	arriveAt []sim.Cycles
	departAt []sim.Cycles
	waits    []ThreadWait
}

// pregion is one NoC region: the shard-owned simulation slice.
type pregion struct {
	id    int
	proto *coherence.Protocol
	table *predict.Table // BIT entries for PCs whose flag homes here

	counts     map[ckey]*pcount
	flags      map[uint64]*pflag
	lastThread map[int]int // phase -> releaser, for root groups homed here

	stats Stats
}

// ckey identifies one combining counter homed in a region.
type ckey struct {
	pc    uint64
	level int
	group int
}

// pcount is the home-side state of one combining counter: the analytic
// lock-release time and the per-phase check-in tally.
type pcount struct {
	lockFree sim.Cycles
	byPhase  map[int]int
}

// pflag is the home-side state of one barrier flag line.
type pflag struct {
	sharers nodeset
	byPhase map[int]*pflagEp
}

// pflagEp is one dynamic episode as the flag's home sees it.
type pflagEp struct {
	released  bool
	releaseAt sim.Cycles
	bit       sim.Cycles
	oracles   []pReg
	yields    []pReg
}

// pReg is a deferred-resolution registration (oracle or yield waiter).
type pReg struct {
	thread  int
	readyAt sim.Cycles
}

// pwaiter is a thread's in-flight wait, the message-accurate analogue of
// the sequential machine's waiter.
type pwaiter struct {
	phase   int
	pc      uint64
	kind    waitKind
	readyAt sim.Cycles

	state         power.SleepState
	gated         bool
	sleeping      bool
	sleepStart    sim.Cycles
	predictedWake sim.Cycles
	timer         sim.Handle
	timerArmed    bool
	externalLive  bool
	woken         bool
	wokeReady     sim.Cycles

	spinFrom     sim.Cycles // last completed flag read (spin detection point)
	armed        bool       // first spin read completed
	spinThenArm  bool       // arm reply should schedule the spin-then-sleep threshold
	pendingWake  bool       // release delivery raced an in-flight flag read
	resolving    bool       // release-triggered re-read issued
	departed     bool
	converting   bool // spin-then-sleep conversion in progress
}

// flag-read purposes: how the reply is interpreted.
type readPurpose uint8

const (
	readArm          readPurpose = iota // first spin read (registers the sharer)
	readPreSleep                        // controller read before transitioning in
	readVerifyTimer                     // post-internal-wake verification
	readVerifyIPI                       // post-external-wake verification
	readResolve                         // release detected; final re-read
)

// nodeset is a machine-wide node bitset (the flag sharer vector).
type nodeset []uint64

func (s nodeset) add(n int)      { s[n/64] |= 1 << uint(n%64) }
func (s nodeset) clear()         { for i := range s { s[i] = 0 } }
func (s nodeset) forEach(f func(int)) {
	for i, w := range s {
		for v := w; v != 0; v &= v - 1 {
			f(64*i + bits.TrailingZeros64(v))
		}
	}
}

// NewParallelMachine assembles the region-partitioned machine. Unlike
// NewMachine it returns configuration problems as errors, since the CLI
// exposes the extra knobs (shard count, topology, region size).
func NewParallelMachine(arch Arch, opts Options) (*ParallelMachine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.DVFS {
		return nil, fmt.Errorf("core: DVFS is not supported by the sharded machine (frequency planning reads the predictor mid-compute, which has no message-accurate form yet)")
	}
	if opts.BSTDirect {
		return nil, fmt.Errorf("core: the direct-BST ablation predictor is not supported by the sharded machine")
	}
	if arch.Nodes != arch.Coherence.Nodes || arch.Nodes != arch.NoC.Nodes {
		return nil, fmt.Errorf("core: inconsistent node counts %d/%d/%d", arch.Nodes, arch.Coherence.Nodes, arch.NoC.Nodes)
	}
	if arch.Nodes <= 0 || arch.Nodes&(arch.Nodes-1) != 0 {
		return nil, fmt.Errorf("core: node count %d not a power of two", arch.Nodes)
	}
	rn := arch.regionNodes()
	if rn&(rn-1) != 0 || arch.Nodes%rn != 0 {
		return nil, fmt.Errorf("core: region size %d must be a power of two dividing %d nodes", rn, arch.Nodes)
	}
	topo := opts.effectiveTopology()

	var model *power.Model
	if len(opts.States) > 0 {
		model = power.NewModel(power.DefaultUnitEnergies(), opts.States)
	} else {
		model = power.NewModel(power.DefaultUnitEnergies(), power.Table3())
	}
	net := noc.New(arch.NoC)
	place := dram.NewPlacement(arch.Nodes, arch.PageBytes)

	m := &ParallelMachine{
		arch:        arch,
		opts:        opts,
		topo:        topo,
		model:       model,
		regionNodes: rn,
		regionCount: arch.Nodes / rn,
		net:         net,
		place:       place,
		lookahead:   net.MinLatency(arch.Coherence.CtrlBytes),
		detectRT:    net.MaxLatency(arch.Coherence.DataBytes),
		nodes:       make([]*pnode, arch.Nodes),
		regions:     make([]*pregion, arch.Nodes/rn),
		pcs:         make(map[uint64]*pcMeta),
		nextPC:      barrierBase,
	}

	// Each region gets its own protocol instance over rn nodes. Regions
	// are contiguous aligned blocks, so local id = global & (rn-1): the
	// region's private-page placement (node bits in the address) and its
	// hypercube sub-topology both survive the renaming, because the low
	// log2(rn) address/node bits are exactly the in-region coordinates.
	rcfg := arch.Coherence
	rcfg.Nodes = rn
	rnoc := arch.NoC
	rnoc.Nodes = rn
	for r := range m.regions {
		rnet := noc.New(rnoc)
		rplace := dram.NewPlacement(rn, arch.PageBytes)
		m.regions[r] = &pregion{
			id:         r,
			proto:      coherence.New(rcfg, rnet, rplace),
			table:      predict.NewTable(opts.Predictor),
			counts:     make(map[ckey]*pcount),
			flags:      make(map[uint64]*pflag),
			lastThread: make(map[int]int),
		}
		m.regions[r].stats.Sleeps = make(map[string]int)
	}
	for t := range m.nodes {
		m.nodes[t] = &pnode{
			id:        t,
			cpu:       cpu.New(t&(rn-1), arch.CPU, m.regions[t/rn].proto, model, arch.Activity),
			forbidden: make(map[uint64]bool),
		}
	}
	return m, nil
}

// SetRecording enables per-episode records.
func (m *ParallelMachine) SetRecording(on bool) { m.record = on }

// Topology reports the effective check-in topology.
func (m *ParallelMachine) Topology() Topology { return m.topo }

// Lookahead reports the conservative window width (tests).
func (m *ParallelMachine) Lookahead() sim.Cycles { return m.lookahead }

func (m *ParallelMachine) region(node int) *pregion { return m.regions[node/m.regionNodes] }
func (m *ParallelMachine) local(node int) int       { return node & (m.regionNodes - 1) }

// meta returns (allocating on first use) the layout of a static barrier.
// Allocation order is the program phase scan in Run, so it is identical
// for every shard count.
func (m *ParallelMachine) meta(pc uint64) *pcMeta {
	if mt, ok := m.pcs[pc]; ok {
		return mt
	}
	count := m.nextPC
	flag := count + flagOffset
	m.nextPC += barrierStride
	mt := &pcMeta{
		countAddr: count,
		flagAddr:  flag,
		flagHome:  m.place.Home(flag),
		shape:     buildShape(m.topo, m.opts.TreeArity, m.arch.Nodes, m.regionNodes, count, flag, m.place),
	}
	m.pcs[pc] = mt
	return mt
}

// orderKey mints the next simulation-state-derived order key for a node:
// unique machine-wide and identical across shard counts, so every shard
// fires its events in the same (when, order) sequence however many
// shards there are and whichever shard posted first.
func (m *ParallelMachine) orderKey(node int) uint64 {
	nd := m.nodes[node]
	nd.seq++
	return uint64(node)<<32 | uint64(nd.seq)
}

// at schedules fn on node's own shard (a local continuation or timer).
func (m *ParallelMachine) at(node int, when sim.Cycles, fn func()) sim.Handle {
	o := m.orderKey(node)
	if m.eng != nil {
		return m.eng.AtOrdered(when, o, fn)
	}
	return m.pe.Shard(m.shardOf[node]).At(when, o, fn)
}

// send routes a message: fn executes at `when` on to's shard. The order
// key is minted from the sending node, whose shard is running the
// current event.
func (m *ParallelMachine) send(from, to int, when sim.Cycles, fn func()) {
	o := m.orderKey(from)
	if m.eng != nil {
		m.eng.AtOrdered(when, o, fn)
		return
	}
	sf, st := m.shardOf[from], m.shardOf[to]
	if sf == st {
		m.pe.Shard(sf).At(when, o, fn)
		return
	}
	m.pe.Shard(sf).Post(st, when, o, fn)
}

func (m *ParallelMachine) cancel(node int, h sim.Handle) {
	if m.eng != nil {
		m.eng.Cancel(h)
		return
	}
	m.pe.Shard(m.shardOf[node]).Cancel(h)
}

// Run executes prog and returns the result. shards <= 0 selects the
// plain sequential engine (the golden reference); otherwise the machine
// runs on sim.ParallelEngine with min(shards, regions) shards, regions
// mapped whole onto shards. Results are identical either way.
func (m *ParallelMachine) Run(prog Program, shards int) ParallelResult {
	if m.used {
		panic("core: ParallelMachine is single-use")
	}
	m.used = true
	if prog.Phases() == 0 {
		return ParallelResult{}
	}
	m.prog = prog
	// Fix the barrier address map (and with it every home node and DRAM
	// row) by scanning phases in program order, not first-arrival order.
	for k := 0; k < prog.Phases(); k++ {
		m.meta(prog.Phase(k).PC)
	}
	for _, nd := range m.nodes {
		if m.record {
			nd.arriveAt = make([]sim.Cycles, prog.Phases())
			nd.departAt = make([]sim.Cycles, prog.Phases())
			nd.waits = make([]ThreadWait, prog.Phases())
		}
	}

	if shards <= 0 {
		m.shards = 1
		m.eng = sim.NewEngine()
	} else {
		if shards > m.regionCount {
			shards = m.regionCount
		}
		m.shards = shards
		m.pe = sim.NewParallelEngine(shards, m.lookahead)
		m.shardOf = make([]int, m.arch.Nodes)
		for n := range m.shardOf {
			m.shardOf[n] = (n / m.regionNodes) * shards / m.regionCount
		}
	}

	for t := 0; t < m.arch.Nodes; t++ {
		t := t
		m.at(t, 0, func() { m.startPhase(t, 0, 0) })
	}
	if m.eng != nil {
		m.eng.Run()
	} else {
		m.pe.Run()
	}
	return m.collect()
}

// Windows reports how many lookahead windows the sharded run executed,
// the same at every shard count; 0 for a run on the sequential engine
// (shards <= 0) or before Run. Events / Windows is the work each window
// barrier covers. It is not a ParallelResult field because results must
// match the sequential reference exactly.
func (m *ParallelMachine) Windows() uint64 {
	if m.pe == nil {
		return 0
	}
	return m.pe.Windows()
}

// ParallelResult extends Result with the per-CPU vectors the scaling
// study digests and the event count the benches normalize by.
type ParallelResult struct {
	Result
	// PerCPUEnergy is each CPU's total energy in joules; PerCPUSpin its
	// spin-state residency. Both feed the FNV digests that pin
	// bit-identity across shard counts.
	PerCPUEnergy []float64
	PerCPUSpin   []sim.Cycles
	// Events is the number of simulation events executed.
	Events uint64
	// Shards is the shard count actually used (0 collapsed to 1).
	Shards int
}

func (m *ParallelMachine) collect() ParallelResult {
	var span sim.Cycles
	timelines := make([]*sim.Timeline, m.arch.Nodes)
	res := ParallelResult{
		PerCPUEnergy: make([]float64, m.arch.Nodes),
		PerCPUSpin:   make([]sim.Cycles, m.arch.Nodes),
		Shards:       m.shards,
	}
	for t, nd := range m.nodes {
		timelines[t] = nd.cpu.Timeline()
		if nd.finish > span {
			span = nd.finish
		}
		res.PerCPUEnergy[t] = timelines[t].TotalEnergy()
		res.PerCPUSpin[t] = timelines[t].Time(sim.StateSpin)
		res.Events += uint64(nd.seq)
	}

	stats := Stats{Sleeps: make(map[string]int)}
	for _, rg := range m.regions {
		stats.accumulate(&rg.stats)
		hits, misses, _, skipped, _ := rg.table.Stats()
		stats.PredictorHits += hits
		stats.PredictorMisses += misses
		stats.SkippedUpdates += skipped
	}

	res.Result = Result{
		Breakdown: energy.Collect(timelines, span),
		Span:      span,
		Stats:     stats,
	}
	if m.record {
		res.Result.Episodes = m.assembleRecords()
	}
	return res
}

// accumulate merges another region's counters into s.
func (s *Stats) accumulate(o *Stats) {
	s.Episodes += o.Episodes
	s.Spins += o.Spins
	s.Yields += o.Yields
	for k, v := range o.Sleeps {
		s.Sleeps[k] += v
	}
	s.EarlyWakes += o.EarlyWakes
	s.ExternalWakes += o.ExternalWakes
	s.LateWakes += o.LateWakes
	s.Disables += o.Disables
	s.FlushLines += o.FlushLines
	s.OracleSleeps += o.OracleSleeps
	s.FalseWakeups += o.FalseWakeups
	s.DroppedWakeups += o.DroppedWakeups
	s.TimerFailures += o.TimerFailures
	s.DriftedTimers += o.DriftedTimers
	s.Recoveries += o.Recoveries
	s.InjectedPreempts += o.InjectedPreempts
	s.InjectedStalls += o.InjectedStalls
}

// assembleRecords rebuilds the sequential machine's EpisodeRecord shape
// from the per-node capture plus the home-side release state.
func (m *ParallelMachine) assembleRecords() []EpisodeRecord {
	out := make([]EpisodeRecord, 0, m.prog.Phases())
	for k := 0; k < m.prog.Phases(); k++ {
		pc := m.prog.Phase(k).PC
		mt := m.pcs[pc]
		rec := EpisodeRecord{
			Phase:  k,
			PC:     pc,
			Arrive: make([]sim.Cycles, m.arch.Nodes),
			Depart: make([]sim.Cycles, m.arch.Nodes),
			Waits:  make([]ThreadWait, m.arch.Nodes),
		}
		if f := m.region(mt.flagHome).flags[pc]; f != nil {
			if ep := f.byPhase[k]; ep != nil {
				rec.ReleaseAt = ep.releaseAt
				rec.BIT = ep.bit
			}
		}
		root := mt.shape.levels[len(mt.shape.levels)-1].groups[0]
		if last, ok := m.region(root.home).lastThread[k]; ok {
			rec.Waits[last] = ThreadWait{Kind: "release"}
		}
		for t, nd := range m.nodes {
			rec.Arrive[t] = nd.arriveAt[k]
			rec.Depart[t] = nd.departAt[k]
			if nd.waits[k].Kind != "" {
				rec.Waits[t] = nd.waits[k]
			}
		}
		out = append(out, rec)
	}
	return out
}

// ---------------------------------------------------------------------
// Compute and arrival.

func (m *ParallelMachine) startPhase(t, k int, at sim.Cycles) {
	nd := m.nodes[t]
	if k >= m.prog.Phases() {
		nd.finish = at
		return
	}
	spec := m.prog.Phase(k)
	dur := nd.cpu.RunSegment(at, spec.Segment(t))
	if spec.PreemptThread == t && spec.PreemptDelay > 0 {
		nd.cpu.ChargeCompute(spec.PreemptDelay)
		dur += spec.PreemptDelay
	}
	if d, ok := m.opts.Faults.PreemptAt(k, t); ok {
		nd.cpu.ChargeCompute(d)
		dur += d
		m.region(t).stats.InjectedPreempts++
	}
	if d, ok := m.opts.Faults.StallAt(k, t); ok {
		nd.cpu.ChargeCompute(d)
		dur += d
		m.region(t).stats.InjectedStalls++
	}
	arrive := at + dur
	m.at(t, arrive, func() { m.arrive(t, k, arrive) })
}

func (m *ParallelMachine) arrive(t, k int, now sim.Cycles) {
	nd := m.nodes[t]
	nd.pendStart = now
	mt := m.meta(m.prog.Phase(k).PC)
	g := t / mt.shape.levels[0].radix
	m.checkinSend(t, k, 0, g, now, nd.brts)
}

// checkinSend issues the check-in request for (level, group): an L2 miss
// to the counter's home node.
func (m *ParallelMachine) checkinSend(t, k, level, group int, dep sim.Cycles, brts sim.Cycles) {
	mt := m.meta(m.prog.Phase(k).PC)
	g := mt.shape.levels[level].groups[group]
	arr := dep + m.arch.Coherence.L2Hit + m.net.Latency(t, g.home, m.arch.Coherence.CtrlBytes)
	m.send(t, g.home, arr, func() { m.homeCheckin(t, k, level, group, arr, brts) })
}

// homeCheckin serializes one check-in at the counter's home: the home
// grants the line when the previous holder's release notification lands
// (the flat barrier's O(N·RTT) lock convoy, preserved analytically),
// performs the RMW against its DRAM bank, and replies with the grant.
func (m *ParallelMachine) homeCheckin(t, k, level, group int, arr sim.Cycles, brts sim.Cycles) {
	pc := m.prog.Phase(k).PC
	mt := m.meta(pc)
	g := mt.shape.levels[level].groups[group]
	rg := m.region(g.home)
	ch := m.arch.Coherence

	key := ckey{pc: pc, level: level, group: group}
	c := rg.counts[key]
	if c == nil {
		c = &pcount{byPhase: make(map[int]int)}
		rg.counts[key] = c
	}
	start := arr
	if c.lockFree > start {
		start = c.lockFree
	}
	svc := start + ch.DirLookup + rg.proto.Memory(m.local(g.home)).Access(g.line) + ch.Bus
	grant := svc + m.net.Latency(g.home, t, ch.DataBytes)
	done := grant + m.opts.CheckinCost
	// The next check-in may be granted once this holder's release
	// notification returns to the home.
	c.lockFree = done + m.net.Latency(t, g.home, ch.CtrlBytes)

	c.byPhase[k]++
	lastOfGroup := c.byPhase[k] == g.size
	if lastOfGroup {
		delete(c.byPhase, k)
	}
	rootLast := lastOfGroup && level == len(mt.shape.levels)-1
	var bit sim.Cycles
	if rootLast {
		// The completing thread is the releaser; BIT_b = its local
		// check-in completion minus its BRTS_{b-1} (§3.2.1).
		bit = done - brts
		rg.lastThread[k] = t
		rg.stats.Episodes++
	}
	m.send(g.home, t, grant, func() { m.checkinReply(t, k, level, group, grant, lastOfGroup, rootLast, bit, brts) })
}

func (m *ParallelMachine) checkinReply(t, k, level, group int, grant sim.Cycles, lastOfGroup, rootLast bool, bit, brts sim.Cycles) {
	nd := m.nodes[t]
	done := grant + m.opts.CheckinCost
	mt := m.meta(m.prog.Phase(k).PC)
	if lastOfGroup && !rootLast {
		// Climb: the group's last arrival checks into the parent level.
		parent := group / mt.shape.levels[level+1].radix
		m.checkinSend(t, k, level+1, parent, done, brts)
		return
	}
	// Lock wait and the count RMW(s) are Compute ("other stalls such as
	// memory or locks fall into this category", §5.2).
	nd.cpu.ChargeCompute(done - nd.pendStart)
	if m.record {
		nd.arriveAt[k] = done
	}
	if rootLast {
		m.releaseSend(t, k, done, bit)
		return
	}
	m.wait(t, k, done)
}

// ---------------------------------------------------------------------
// Waiting: the sleep()-library decision, message-accurate.

func (m *ParallelMachine) wait(t, k int, ready sim.Cycles) {
	nd := m.nodes[t]
	pc := m.prog.Phase(k).PC
	w := &pwaiter{phase: k, pc: pc, kind: waitSpin, readyAt: ready}
	nd.w = w

	if m.opts.YieldReschedule > 0 {
		w.kind = waitYield
		m.region(t).stats.Yields++
		m.registerSend(t, k, ready, false)
		return
	}
	if len(m.opts.States) == 0 {
		m.spinArm(t, k, w, ready)
		return
	}
	if m.opts.Oracle {
		w.kind = waitOracle
		m.registerSend(t, k, ready, true)
		return
	}
	if m.opts.Unconditional {
		m.goToSleep(t, k, w, m.opts.States[0], ready, sim.MaxCycles)
		return
	}
	if m.opts.SpinThenSleep > 0 {
		w.spinThenArm = true
		m.spinArm(t, k, w, ready)
		return
	}

	// The sleep() library call: charge the decision, then predict. The
	// BIT table lives on the flag's home node, so prediction is a
	// request/reply — its round trip rides on the decision path, which
	// is the honest cost of distributing the predictor.
	nd.cpu.ChargeCompute(m.opts.DecisionCost)
	ready += m.opts.DecisionCost
	w.readyAt = ready
	if nd.forbidden[pc] {
		// Cut-off disabled prediction for this (barrier, thread): spin.
		m.spinArm(t, k, w, ready)
		return
	}
	m.querySend(t, k, w, ready)
}

// querySend asks the flag home for this barrier's BIT prediction.
func (m *ParallelMachine) querySend(t, k int, w *pwaiter, ready sim.Cycles) {
	mt := m.meta(w.pc)
	h := mt.flagHome
	ch := m.arch.Coherence
	arr := ready + ch.L2Hit + m.net.Latency(t, h, ch.CtrlBytes)
	m.send(t, h, arr, func() {
		rg := m.region(h)
		svc := arr + ch.DirLookup
		rr := svc + m.net.Latency(h, t, ch.CtrlBytes)
		ep := m.flagEp(rg, w.pc, k)
		if ep.released {
			released, relAt, bit := true, ep.releaseAt, ep.bit
			m.send(h, t, rr, func() { m.queryReply(t, k, w, ready, rr, 0, false, released, relAt, bit) })
			return
		}
		bit, ok := rg.table.Predict(w.pc)
		m.send(h, t, rr, func() { m.queryReply(t, k, w, ready, rr, bit, ok, false, 0, 0) })
	})
}

func (m *ParallelMachine) queryReply(t, k int, w *pwaiter, sent, rr sim.Cycles, bit sim.Cycles, ok, released bool, relAt, relBit sim.Cycles) {
	if w.departed {
		return
	}
	nd := m.nodes[t]
	// The query round trip is library execution: Compute, like the
	// decision cost it extends.
	nd.cpu.ChargeCompute(rr - sent)
	w.readyAt = rr
	if released {
		// Raced the release while deciding: the reply itself reports the
		// flip, so the thread departs without ever waiting.
		w.wokeReady = rr
		m.depart(t, k, w, rr, relBit)
		return
	}
	if !ok {
		m.spinArm(t, k, w, rr)
		return
	}
	predictedWake := nd.brts + bit
	stall := predictedWake - rr
	if stall <= 0 {
		m.spinArm(t, k, w, rr)
		return
	}
	flushEst := sim.Cycles(0)
	if !m.opts.NoFlush {
		lines := m.region(t).proto.DirtyLines(m.local(t))
		flushEst = sim.Cycles(lines)*m.arch.Coherence.Bus + m.detectRT
	}
	fit := m.model.BestFit(stall, flushEst)
	if !fit.OK {
		m.spinArm(t, k, w, rr)
		return
	}
	m.goToSleep(t, k, w, fit.State, rr, predictedWake)
}

// spinArm registers w as a conventional spinner: a real flag read that
// records the node as a sharer, so the release invalidation reaches it.
func (m *ParallelMachine) spinArm(t, k int, w *pwaiter, at sim.Cycles) {
	w.kind = waitSpin
	m.region(t).stats.Spins++
	m.flagReadSend(t, k, w, readArm, at)
}

// flagReadSend issues a flag-line read to its home. The reply carries
// the home's view at service time: flipped or not, and the release
// metadata when flipped.
func (m *ParallelMachine) flagReadSend(t, k int, w *pwaiter, purpose readPurpose, at sim.Cycles) {
	mt := m.meta(w.pc)
	h := mt.flagHome
	ch := m.arch.Coherence
	arr := at + ch.L2Hit + m.net.Latency(t, h, ch.CtrlBytes)
	m.send(t, h, arr, func() {
		rg := m.region(h)
		ep := m.flagEp(rg, w.pc, k)
		svc := arr + ch.DirLookup + rg.proto.Memory(m.local(h)).Access(mt.flagAddr) + ch.Bus
		rr := svc + m.net.Latency(h, t, ch.DataBytes)
		if !ep.released {
			m.flagFor(rg, w.pc).sharers.add(t)
		}
		released, relAt, bit := ep.released, ep.releaseAt, ep.bit
		m.send(h, t, rr, func() { m.flagReadReply(t, k, w, purpose, at, rr, released, relAt, bit) })
	})
}

func (m *ParallelMachine) flagReadReply(t, k int, w *pwaiter, purpose readPurpose, sent, rr sim.Cycles, flipped bool, relAt, bit sim.Cycles) {
	if w.departed {
		return
	}
	nd := m.nodes[t]
	rg := m.region(t)
	lat := rr - sent

	switch purpose {
	case readArm:
		nd.cpu.ChargeSpin(lat)
		if flipped {
			m.depart(t, k, w, rr, bit)
			return
		}
		w.spinFrom = rr
		w.armed = true
		if w.spinThenArm {
			w.spinThenArm = false
			threshold := rr + m.opts.SpinThenSleep
			m.at(t, threshold, func() { m.spinThenSleepConvert(t, k, w, threshold) })
		}
		if w.pendingWake && !w.resolving {
			// The release delivery beat this reply; re-read to depart.
			w.resolving = true
			m.flagReadSend(t, k, w, readResolve, rr)
		}

	case readPreSleep:
		// The controller's read before transitioning in (§3.3.1) is part
		// of the library call: Compute.
		nd.cpu.ChargeCompute(lat)
		if flipped {
			w.gated = false
			w.wokeReady = rr
			m.depart(t, k, w, rr, bit)
			return
		}
		m.enterSleep(t, k, w, rr)

	case readVerifyTimer:
		nd.cpu.ChargeSpin(lat)
		if flipped {
			rg.stats.LateWakes++
			m.depart(t, k, w, rr, bit)
			return
		}
		rg.stats.EarlyWakes++
		w.kind = waitResidualSpin
		w.spinFrom = rr
		w.armed = true
		if w.pendingWake && !w.resolving {
			w.resolving = true
			m.flagReadSend(t, k, w, readResolve, rr)
		}

	case readVerifyIPI:
		nd.cpu.ChargeSpin(lat)
		if flipped {
			m.depart(t, k, w, rr, bit)
			return
		}
		// False wake-up (§3.3.1): invalidated without a release. The
		// thread residual-spins; the eventual release resolves it.
		rg.stats.FalseWakeups++
		w.kind = waitResidualSpin
		w.spinFrom = rr
		w.armed = true
		if w.pendingWake && !w.resolving {
			w.resolving = true
			m.flagReadSend(t, k, w, readResolve, rr)
		}

	case readResolve:
		from := w.spinFrom
		dep := rr
		if dep < from {
			dep = from
		}
		nd.cpu.ChargeSpin(dep - from)
		if !flipped {
			// Can't happen: a resolve read is only issued after the
			// release's invalidation arrived. Keep spinning defensively.
			w.resolving = false
			w.spinFrom = dep
			return
		}
		m.depart(t, k, w, dep, bit)
	}
}

// spinThenSleepConvert turns a §5.1 spin-then-sleep spinner into an
// externally-woken sleeper once the spin window expires.
func (m *ParallelMachine) spinThenSleepConvert(t, k int, w *pwaiter, threshold sim.Cycles) {
	if w.departed || w.pendingWake || w.resolving {
		// Already released (or release in flight): stay a spinner.
		return
	}
	nd := m.nodes[t]
	nd.cpu.ChargeSpin(threshold - w.spinFrom)
	w.readyAt = threshold
	m.region(t).stats.Spins--
	m.goToSleep(t, k, w, m.opts.States[0], threshold, sim.MaxCycles)
}

// ---------------------------------------------------------------------
// Sleeping.

func (m *ParallelMachine) goToSleep(t, k int, w *pwaiter, st power.SleepState, ready, predictedWake sim.Cycles) {
	nd := m.nodes[t]
	w.kind = waitSleep
	w.state = st
	w.predictedWake = predictedWake

	if st.Gated() && !m.opts.NoFlush {
		lines, flushLat := m.region(t).proto.FlushForSleep(m.local(t), ready)
		nd.cpu.ChargeCompute(flushLat)
		ready += flushLat
		m.region(t).stats.FlushLines += lines
		w.gated = true
	}
	// The controller reads in the flag (§3.3.1); the reply either aborts
	// the sleep (already flipped) or completes the entry.
	m.flagReadSend(t, k, w, readPreSleep, ready)
}

// enterSleep completes the transition after the pre-sleep read came back
// unflipped.
func (m *ParallelMachine) enterSleep(t, k int, w *pwaiter, ready sim.Cycles) {
	nd := m.nodes[t]
	rg := m.region(t)
	st := w.state
	if w.gated {
		rg.proto.SetGated(m.local(t), true)
	}
	nd.cpu.ChargeTransition(st, st.Transition)
	w.sleepStart = ready + st.Transition
	w.sleeping = true
	rg.stats.Sleeps[st.Name]++

	internalLive := false
	if m.opts.Wakeup == WakeupHybrid || m.opts.Wakeup == WakeupExternal {
		if m.opts.Faults.DropWakeupAt(k, t) {
			rg.stats.DroppedWakeups++
		} else {
			w.externalLive = true
		}
	}
	if w.predictedWake != sim.MaxCycles &&
		(m.opts.Wakeup == WakeupHybrid || m.opts.Wakeup == WakeupInternal) {
		if m.opts.Faults.TimerFailsAt(k, t) {
			rg.stats.TimerFailures++
		} else {
			internalLive = true
			wake := w.predictedWake - st.Transition
			if d := m.opts.Faults.TimerDriftAt(k, t); d > 0 {
				wake += d
				rg.stats.DriftedTimers++
			}
			if wake < w.sleepStart {
				wake = w.sleepStart
			}
			w.timer = m.at(t, wake, func() { m.internalWake(t, k, w, wake, false) })
			w.timerArmed = true
		}
	}
	if !w.externalLive && !internalLive {
		// Every wake-up channel is gone (§3.3's "unbounded" case): the
		// OS watchdog revives the sleeper after the recovery timeout.
		at := w.sleepStart + m.opts.Faults.RecoveryTimeout()
		w.timer = m.at(t, at, func() { m.internalWake(t, k, w, at, true) })
		w.timerArmed = true
	}
	if w.pendingWake && w.externalLive {
		// The release invalidation arrived during the entry transition:
		// zero residency, exit immediately (the sequential machine's
		// at < sleepStart clamp).
		m.externalWake(t, k, w, w.sleepStart)
	}
}

func (m *ParallelMachine) internalWake(t, k int, w *pwaiter, now sim.Cycles, recovery bool) {
	if w.departed || w.woken {
		return
	}
	nd := m.nodes[t]
	rg := m.region(t)
	if recovery {
		rg.stats.Recoveries++
	}
	w.woken = true
	w.timerArmed = false
	w.timer = sim.Handle{}
	w.externalLive = false // ignore a late release delivery; the verify read decides
	m.chargeSleepUntil(nd, w, now)
	nd.cpu.ChargeTransition(w.state, w.state.Transition)
	up := now + w.state.Transition
	if w.gated {
		rg.proto.SetGated(m.local(t), false)
		w.gated = false
	}
	w.wokeReady = up
	// Early or late is decided by the verify read's reply: late wake-ups
	// see the flipped flag and depart; early ones residual-spin.
	m.flagReadSend(t, k, w, readVerifyTimer, up)
}

func (m *ParallelMachine) externalWake(t, k int, w *pwaiter, at sim.Cycles) {
	if w.departed || w.woken {
		return
	}
	nd := m.nodes[t]
	rg := m.region(t)
	w.woken = true
	if w.timerArmed {
		m.cancel(t, w.timer)
		w.timerArmed = false
		w.timer = sim.Handle{}
	}
	if at < w.sleepStart {
		at = w.sleepStart
	}
	m.chargeSleepUntil(nd, w, at)
	nd.cpu.ChargeTransition(w.state, w.state.Transition)
	up := at + w.state.Transition
	if w.gated {
		rg.proto.SetGated(m.local(t), false)
		w.gated = false
	}
	w.wokeReady = up
	rg.stats.ExternalWakes++
	m.flagReadSend(t, k, w, readVerifyIPI, up)
}

func (m *ParallelMachine) chargeSleepUntil(nd *pnode, w *pwaiter, until sim.Cycles) {
	if until > w.sleepStart {
		nd.cpu.ChargeSleep(w.state, until-w.sleepStart)
	}
}

// ---------------------------------------------------------------------
// Release and resolution.

// registerSend registers an oracle (oracle=true) or yield waiter with
// the flag home, which resolves it at release time.
func (m *ParallelMachine) registerSend(t, k int, readyAt sim.Cycles, oracle bool) {
	mt := m.meta(m.prog.Phase(k).PC)
	h := mt.flagHome
	ch := m.arch.Coherence
	pc := m.prog.Phase(k).PC
	arr := readyAt + m.net.Latency(t, h, ch.CtrlBytes)
	m.send(t, h, arr, func() {
		rg := m.region(h)
		ep := m.flagEp(rg, pc, k)
		if ep.released {
			// Raced the release: resolve immediately.
			if oracle {
				m.resolveOracleAt(rg, h, pc, k, ep, pReg{thread: t, readyAt: readyAt}, arr)
			} else {
				m.resolveYieldAt(h, k, ep, pReg{thread: t, readyAt: readyAt}, arr)
			}
			return
		}
		if oracle {
			ep.oracles = append(ep.oracles, pReg{thread: t, readyAt: readyAt})
		} else {
			ep.yields = append(ep.yields, pReg{thread: t, readyAt: readyAt})
		}
	})
}

// releaseSend is the last thread's flag write: reset count, flip the
// flag at its home, carrying the measured BIT.
func (m *ParallelMachine) releaseSend(t, k int, done sim.Cycles, bit sim.Cycles) {
	mt := m.meta(m.prog.Phase(k).PC)
	h := mt.flagHome
	ch := m.arch.Coherence
	arr := done + ch.L2Hit + m.net.Latency(t, h, ch.CtrlBytes)
	m.send(t, h, arr, func() { m.homeRelease(t, k, arr, done, bit) })
}

// homeRelease commits the release at the flag home: update the predictor
// (it lives here), write the line, invalidate every sharer — those
// invalidations are the wake-up IPIs — resolve registered oracle/yield
// waiters, and ack the releaser once all invalidation acks are in.
func (m *ParallelMachine) homeRelease(t, k int, arr, sent sim.Cycles, bit sim.Cycles) {
	pc := m.prog.Phase(k).PC
	mt := m.meta(pc)
	h := mt.flagHome
	rg := m.region(h)
	ch := m.arch.Coherence

	if len(m.opts.States) > 0 && !m.opts.Oracle {
		rg.table.Update(pc, bit)
	}
	f := m.flagFor(rg, pc)
	ep := m.flagEp(rg, pc, k)
	R := arr + ch.DirLookup + rg.proto.Memory(m.local(h)).Access(mt.flagAddr) + ch.Bus
	ep.released = true
	ep.releaseAt = R
	ep.bit = bit

	var ackMax sim.Cycles
	f.sharers.forEach(func(s int) {
		if s == t {
			return
		}
		inv := R + m.net.Latency(h, s, ch.CtrlBytes)
		ack := (inv - R) + m.net.Latency(s, t, ch.CtrlBytes)
		if ack > ackMax {
			ackMax = ack
		}
		m.send(h, s, inv, func() { m.delivery(s, k, inv, ep.bit) })
	})
	f.sharers.clear()

	for _, r := range ep.oracles {
		m.resolveOracleAt(rg, h, pc, k, ep, r, R)
	}
	ep.oracles = nil
	for _, r := range ep.yields {
		m.resolveYieldAt(h, k, ep, r, R)
	}
	ep.yields = nil

	// The releaser's write completes when its data reply and the last
	// invalidation ack are both in.
	lat := m.net.Latency(h, t, ch.DataBytes)
	if ackMax > lat {
		lat = ackMax
	}
	ra := R + lat
	m.send(h, t, ra, func() {
		nd := m.nodes[t]
		nd.cpu.ChargeCompute(ra - sent)
		m.depart(t, k, nil, ra, bit)
	})
}

// delivery is the release invalidation (wake-up IPI) landing at node s.
func (m *ParallelMachine) delivery(s, k int, inv sim.Cycles, bit sim.Cycles) {
	nd := m.nodes[s]
	w := nd.w
	if w == nil || w.phase != k || w.departed {
		return
	}
	switch w.kind {
	case waitSpin, waitResidualSpin:
		if !w.armed {
			// The arm read's reply is still in flight; it will trigger
			// the resolve when it lands.
			w.pendingWake = true
			return
		}
		if !w.resolving {
			w.resolving = true
			m.flagReadSend(s, k, w, readResolve, inv)
		}
	case waitSleep:
		if w.woken {
			// The post-wake verify read may already have been serviced
			// before this release committed; note the signal so its
			// reply re-reads instead of stranding a residual spinner.
			w.pendingWake = true
			return
		}
		if !w.sleeping {
			// Pre-sleep read in flight: note the signal; enterSleep
			// handles the zero-residency exit.
			w.pendingWake = true
			return
		}
		if w.externalLive {
			m.externalWake(s, k, w, inv)
		}
		// Internal-only sleeper: the timer (or watchdog) resolves it.
	case waitOracle, waitYield:
		// Resolved via home registration; never flag sharers.
	}
}

// resolveOracleAt settles an oracle waiter analytically at release time
// R, exactly like the sequential machine but with the post-release flag
// fetch priced from the home side.
func (m *ParallelMachine) resolveOracleAt(rg *pregion, h int, pc uint64, k int, ep *pflagEp, r pReg, R sim.Cycles) {
	mt := m.meta(pc)
	ch := m.arch.Coherence
	s := r.thread
	// The woken thread's flag fetch: request to home, serviced, data back.
	fetch := ch.L2Hit + m.net.Latency(s, h, ch.CtrlBytes) + ch.DirLookup +
		rg.proto.Memory(m.local(h)).Access(mt.flagAddr) + ch.Bus + m.net.Latency(h, s, ch.DataBytes)
	stall := R - r.readyAt
	if stall < 0 {
		stall = 0
	}
	bit := ep.bit
	dep := R + fetch
	m.send(h, s, dep, func() { m.oracleResolve(s, k, r.readyAt, R, dep, stall, bit) })
}

func (m *ParallelMachine) oracleResolve(t, k int, readyAt, R, dep, stall sim.Cycles, bit sim.Cycles) {
	nd := m.nodes[t]
	w := nd.w
	if w == nil || w.phase != k || w.departed {
		return
	}
	rg := m.region(t)
	fit := m.model.BestFit(stall, 0)
	if fit.OK {
		st := fit.State
		nd.cpu.ChargeTransition(st, st.Transition)
		nd.cpu.ChargeSleep(st, stall-2*st.Transition)
		nd.cpu.ChargeTransition(st, st.Transition)
		nd.cpu.ChargeSpin(dep - R)
		w.state = st
		w.wokeReady = R
		rg.stats.OracleSleeps++
		rg.stats.Sleeps[st.Name]++
	} else {
		nd.cpu.ChargeSpin(dep - readyAt)
		rg.stats.Spins++
	}
	m.depart(t, k, w, dep, bit)
}

// resolveYieldAt settles a §3.4.1 time-sharing waiter: the thread
// resumes a scheduling delay after the release. The notification is a
// message, so the resume can never undercut the IPI latency.
func (m *ParallelMachine) resolveYieldAt(h, k int, ep *pflagEp, r pReg, R sim.Cycles) {
	s := r.thread
	delay := m.opts.YieldReschedule
	if ipi := m.net.Latency(h, s, m.arch.Coherence.CtrlBytes); ipi > delay {
		delay = ipi
	}
	dep := R + delay
	bit := ep.bit
	m.send(h, s, dep, func() {
		nd := m.nodes[s]
		w := nd.w
		if w == nil || w.phase != k || w.departed {
			return
		}
		nd.cpu.ChargeCompute(dep - r.readyAt)
		m.depart(s, k, w, dep, bit)
	})
}

// ---------------------------------------------------------------------
// Departure.

func (m *ParallelMachine) depart(t, k int, w *pwaiter, dep sim.Cycles, bit sim.Cycles) {
	nd := m.nodes[t]
	if w != nil {
		if w.departed {
			return
		}
		w.departed = true
		if w.timerArmed {
			m.cancel(t, w.timer)
			w.timerArmed = false
			w.timer = sim.Handle{}
		}
	}
	// BRTS_b = BRTS_{b-1} + BIT_b (§3.2.1).
	nd.brts += bit

	if w != nil && w.kind == waitSleep && !m.opts.Oracle && m.opts.Cutoff > 0 && bit > 0 {
		penalty := w.wokeReady - nd.brts
		if float64(penalty) > m.opts.Cutoff*float64(bit) {
			nd.forbidden[w.pc] = true
			m.region(t).stats.Disables++
		}
	}

	if m.record {
		nd.departAt[k] = dep
		if w != nil {
			tw := ThreadWait{Kind: w.kind.label()}
			if w.kind == waitSleep || (w.kind == waitOracle && w.state.Transition > 0) ||
				(w.kind == waitResidualSpin && w.state.Transition > 0) {
				tw.State = w.state.Name
			}
			nd.waits[k] = tw
		}
	}
	nd.w = nil
	m.startPhase(t, k+1, dep)
}

// ---------------------------------------------------------------------
// Home-side lookup helpers.

func (m *ParallelMachine) flagFor(rg *pregion, pc uint64) *pflag {
	f := rg.flags[pc]
	if f == nil {
		f = &pflag{
			sharers: make(nodeset, (m.arch.Nodes+63)/64),
			byPhase: make(map[int]*pflagEp),
		}
		rg.flags[pc] = f
	}
	return f
}

func (m *ParallelMachine) flagEp(rg *pregion, pc uint64, k int) *pflagEp {
	f := m.flagFor(rg, pc)
	ep := f.byPhase[k]
	if ep == nil {
		ep = &pflagEp{}
		f.byPhase[k] = ep
	}
	return ep
}
