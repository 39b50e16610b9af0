// Package microbench defines the repo's performance-trajectory
// microbenchmarks once, so `go test -bench` (interactive runs) and
// `cmd/thriftybench -bench-json` (the recorded BENCH_*.json baselines)
// measure exactly the same code.
//
// The suite has three parts: the public goroutine barrier's arrival path
// (lock-free flat word and combining tree, against a mutex-serialized
// baseline equivalent to the pre-rewrite implementation), the wake-up
// fabric (the sharded timing wheel's many-barrier arm/cancel sweep up to
// a million resident barriers, with tail-lateness quantiles), and the
// simulator (event-engine schedule/fire steady state, which must stay
// allocation-free, the coherence protocol's flush-before-sleep, the
// sharded core machine, and one full cell of the paper's matrix).
package microbench

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/harness"
	"thriftybarrier/internal/mem/coherence"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/sim"
	"thriftybarrier/internal/workload"
	"thriftybarrier/thrifty"
)

// Spec names one benchmark for the JSON trajectory.
type Spec struct {
	Name  string
	Bench func(*testing.B)
}

// Result is one benchmark's measurement, shaped for BENCH_*.json.
type Result struct {
	Name        string             `json:"name"`
	N           int                `json:"n"`
	NsPerOp     float64            `json:"ns_op"`
	AllocsPerOp int64              `json:"allocs_op"`
	BytesPerOp  int64              `json:"bytes_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Run executes each spec under the testing harness's iteration controller
// and returns the measurements. A non-nil progress callback observes each
// result as it lands (the suites take tens of seconds end to end).
func Run(specs []Spec, progress func(Result)) []Result {
	out := make([]Result, 0, len(specs))
	for _, s := range specs {
		r := testing.Benchmark(s.Bench)
		res := Result{
			Name:        s.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = r.Extra
		}
		if progress != nil {
			progress(res)
		}
		out = append(out, res)
	}
	return out
}

// RuntimeSpecs is the goroutine-barrier half of the suite: the simulated
// contended-arrival acceptance pair (cycles/round under a modeled 64-CPU
// coherence protocol), then full-round rendezvous costs. The lock-free
// flat word runs against a mutex-arrival baseline with the pre-rewrite
// shape over a sweep of GOMAXPROCS {1, 2, NumCPU} × parties {2, 8, 64},
// so every parties-per-P ratio the spinner gauge must handle is on
// record; the combining tree runs at the process's GOMAXPROCS.
func RuntimeSpecs() []Spec {
	specs := []Spec{
		{"BarrierArrival/mutex-flat-64", SimulatedArrival(64, 0)},
		{"BarrierArrival/tree-radix4-64", SimulatedArrival(64, 4)},
		{"BarrierArrival/tree-radix8-64", SimulatedArrival(64, 8)},
	}
	for _, procs := range sweepProcs() {
		for _, parties := range []int{2, 8, 64} {
			at := "BarrierRendezvous/procs-" + strconv.Itoa(procs) + "/"
			n := strconv.Itoa(parties)
			specs = append(specs,
				Spec{at + "mutex-baseline-" + n, AtProcs(procs, MutexBaseline(parties))},
				Spec{at + "lockfree-flat-" + n, AtProcs(procs, Flat(parties))})
		}
	}
	return append(specs,
		Spec{"BarrierRendezvous/tree-radix8-64", Tree(64, 8)},
		Spec{"BarrierRendezvous/tree-radix8-256", Tree(256, 8)},
		Spec{"Predict/warm", PredictWarm()},
		Spec{"Predict/update", PredictUpdate()},
	)
}

// sweepProcs is the rendezvous sweep's GOMAXPROCS axis: 1, 2 and the
// host's CPU count, each once.
func sweepProcs() []int {
	procs := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		procs = append(procs, n)
	}
	return procs
}

// AtProcs runs bench with GOMAXPROCS set to procs and restores it
// afterwards. The barrier under test is built inside bench, so it caches
// procs at New like any barrier built on such a process.
func AtProcs(procs int, bench func(*testing.B)) func(*testing.B) {
	return func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		bench(b)
	}
}

// SizeLabel renders a count for a benchmark name: exact thousands
// compress to "1k"/"100k", exact millions to "1M", anything else is the
// plain decimal — so labels stay correct for every n, unlike a
// hand-rolled digit-pair itoa.
func SizeLabel(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return strconv.Itoa(n/1_000_000) + "M"
	case n >= 1_000 && n%1_000 == 0:
		return strconv.Itoa(n/1_000) + "k"
	default:
		return strconv.Itoa(n)
	}
}

// WheelSpecs is the wake-up fabric third of the suite (BENCH_wheel.json):
// the many-barrier arm/cancel sweep, wheel versus the per-waiter
// runtime-timer baseline it replaced, carried up to the million-barrier
// regime. Past 10k resident the baseline drops out — a million live
// time.Timer values is not a viable comparison point, which is the
// regime the wheel exists for. Every entry also records p99/p999
// internal wake-up delivery lateness.
func WheelSpecs() []Spec {
	var specs []Spec
	for _, n := range []int{100, 1000, 10000} {
		specs = append(specs,
			Spec{"ManyBarriers/wheel-" + strconv.Itoa(n) + "x16", WheelManyBarriers(n, 16)},
			Spec{"ManyBarriers/timer-" + strconv.Itoa(n) + "x16", TimerManyBarriers(n, 16)},
		)
	}
	for _, n := range []int{100_000, 1_000_000} {
		specs = append(specs,
			Spec{"ManyBarriers/wheel-" + strconv.Itoa(n) + "x16", WheelManyBarriers(n, 16)})
	}
	return specs
}

// SimSpecs is the simulator half of the suite: event engine, coherence
// model, core machine, full experiment.
func SimSpecs() []Spec {
	return []Spec{
		{"EngineScheduleFire/empty", EngineScheduleFire(0)},
		{"EngineScheduleFire/pending-1k", EngineScheduleFire(1024)},
		{"EngineScheduleCancelFire", EngineScheduleCancelFire()},
		{"ParallelEngine/shards-1", ParallelEngineEvents(1)},
		{"ParallelEngine/shards-4", ParallelEngineEvents(4)},
		{"ParallelEngine/shards-8", ParallelEngineEvents(8)},
		{"CoherenceFlushForSleep", CoherenceFlushForSleep()},
		{"ParallelCore/seq", ParallelCoreEvents(0)},
		{"ParallelCore/shards-1", ParallelCoreEvents(1)},
		{"ParallelCore/shards-4", ParallelCoreEvents(4)},
		{"ParallelCore/shards-8", ParallelCoreEvents(8)},
		{"PaperCell/fmm-thrifty", PaperCell(workload.FMM(), core.Thrifty())},
	}
}

// SimulatedArrival measures one warm barrier round-trip on the simulated
// nodes-CPU machine (arity 0 = the paper's flat lock-protected counter),
// reporting the modeled contended-arrival cost as cycles/round and its
// inverse throughput as rounds/Mcycle.
func SimulatedArrival(nodes, arity int) func(*testing.B) {
	return func(b *testing.B) {
		var cyc sim.Cycles
		for i := 0; i < b.N; i++ {
			cyc = harness.BarrierRoundLatency(nodes, arity, 1)
		}
		b.ReportMetric(float64(cyc), "cycles/round")
		b.ReportMetric(1e6/float64(cyc), "rounds/Mcycle")
	}
}

// barrierRounds drives parties goroutines through b.N rendezvous each;
// ns/op is therefore the per-party cost of one barrier crossing.
func barrierRounds(b *testing.B, parties int, wait func()) {
	b.ReportAllocs()
	var wg sync.WaitGroup
	rounds := b.N
	b.ResetTimer()
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				wait()
			}
		}()
	}
	wg.Wait()
}

// Flat benchmarks the lock-free central-counter arrival.
func Flat(parties int) func(*testing.B) {
	return func(b *testing.B) {
		bar := thrifty.New(parties, thrifty.Options{})
		barrierRounds(b, parties, func() { bar.WaitSite(1) })
	}
}

// Tree benchmarks the combining-tree arrival.
func Tree(parties, radix int) func(*testing.B) {
	return func(b *testing.B) {
		bar := thrifty.New(parties, thrifty.Options{TreeRadix: radix})
		barrierRounds(b, parties, func() { bar.WaitSite(1) })
	}
}

// MutexBaseline benchmarks a barrier whose arrival is serialized through a
// mutex critical section — the shape of the pre-rewrite thrifty.Barrier:
// every arrival locks, counts, and the last one swaps the round and
// broadcasts; early arrivers spin briefly on the round flag, then park on
// its channel (the warm-up spin-then-park policy).
func MutexBaseline(parties int) func(*testing.B) {
	return func(b *testing.B) {
		bar := newMutexBarrier(parties)
		barrierRounds(b, parties, bar.wait)
	}
}

type mutexRound struct {
	ch   chan struct{}
	done atomic.Bool
}

type mutexBarrier struct {
	mu      sync.Mutex
	parties int
	count   int
	cur     *mutexRound
}

func newMutexBarrier(parties int) *mutexBarrier {
	return &mutexBarrier{parties: parties, cur: &mutexRound{ch: make(chan struct{})}}
}

func (b *mutexBarrier) wait() {
	b.mu.Lock()
	b.count++
	if b.count == b.parties {
		b.count = 0
		old := b.cur
		b.cur = &mutexRound{ch: make(chan struct{})}
		old.done.Store(true)
		b.mu.Unlock()
		close(old.ch)
		return
	}
	rd := b.cur
	b.mu.Unlock()
	// Bounded spin on the release flag, then park — the pre-rewrite
	// warm-up policy (only the arrival itself held the mutex).
	for i := 0; i < 4096; i++ {
		if rd.done.Load() {
			return
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
	<-rd.ch
}

// EngineScheduleFire benchmarks one schedule + one fire against a queue
// holding `pending` other events — the simulator's steady-state op. It
// must report 0 allocs/op.
func EngineScheduleFire(pending int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine()
		fn := func() {}
		for i := 0; i < pending; i++ {
			e.After(sim.Cycles(1_000_000+i), fn)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.After(10, fn)
			e.Step()
		}
	}
}

// ParallelEngineEvents drives the conservative parallel engine through a
// 64-rank token-ring workload — every event hops to the next rank exactly
// one lookahead ahead, ranks block-mapped onto shards, so consecutive hops
// cross shard boundaries and every window carries cross-shard posts. The
// headline metric is ns/event; shards-1 measures the sequential golden
// reference's window overhead against the raw engine numbers above.
// events/window is the work each window barrier covers.
func ParallelEngineEvents(shards int) func(*testing.B) {
	return func(b *testing.B) {
		const (
			ranks     = 64
			tokens    = 64
			hops      = 256
			lookahead = sim.Cycles(48)
		)
		var windows uint64
		for i := 0; i < b.N; i++ {
			pe := sim.NewParallelEngine(shards, lookahead)
			owner := make([]int, ranks)
			for r := range owner {
				owner[r] = r * shards / ranks
			}
			counter := make([]uint32, ranks)
			order := func(r int) uint64 {
				counter[r]++
				return uint64(r)<<32 | uint64(counter[r])
			}
			var hop func(r, left int) func()
			hop = func(r, left int) func() {
				return func() {
					if left == 0 {
						return
					}
					s := pe.Shard(owner[r])
					next := (r + 1) % ranks
					when := s.Now() + lookahead
					o := order(r)
					fn := hop(next, left-1)
					if owner[next] == owner[r] {
						s.At(when, o, fn)
					} else {
						s.Post(owner[next], when, o, fn)
					}
				}
			}
			for k := 0; k < tokens; k++ {
				r := k % ranks
				pe.Shard(owner[r]).At(sim.Cycles(k+1), order(r), hop(r, hops))
			}
			pe.Run()
			windows += pe.Windows()
		}
		events := float64(b.N * tokens * (hops + 1))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
		b.ReportMetric(events/float64(windows), "events/window")
	}
}

// ParallelCoreEvents drives the full sharded CC-NUMA core machine —
// caches, directories, predictor, sleep transitions — through a short
// Thrifty run at 64 CPUs (8-CPU NoC regions, the core-scaling study's
// workload) and reports ns/event over the machine's own event count.
// shards 0 is the plain sequential engine, the golden reference;
// shards-1 isolates the parallel engine's window overhead on identical
// physics; shards-4/8 measure the conservative-window throughput the
// 256-CPU study leans on. The sharded specs also report events/window,
// the machine's traffic per window barrier.
func ParallelCoreEvents(shards int) func(*testing.B) {
	return func(b *testing.B) {
		arch := core.DefaultArch().WithNodes(64)
		arch.RegionNodes = 8
		prog := harness.CoreScalingProgram(1, 64, 6)
		var events, windows uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := core.NewParallelMachine(arch, core.Thrifty())
			if err != nil {
				b.Fatal(err)
			}
			events += m.Run(prog, shards).Events
			windows += m.Windows()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		if windows > 0 { // the sequential engine has no windows
			b.ReportMetric(float64(events)/float64(windows), "events/window")
		}
	}
}

// PaperCell runs one cell of the paper's Figure 5/6 matrix per op, as the
// harness does: build the application's program at seed 1, build the
// 64-CPU machine, run it. It is the full-experiment layer above the
// machine event.
func PaperCell(spec workload.Spec, opts core.Options) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		arch := core.DefaultArch()
		for i := 0; i < b.N; i++ {
			core.NewMachine(arch, opts).Run(spec.Build(arch.Nodes, 1))
		}
	}
}

// CoherenceFlushForSleep measures the flush a CPU performs before a gated
// sleep state on the paper's 64-node machine with every node's L2 full: a
// third Modified lines, a third Exclusive, a third Shared by every node.
// Each op re-dirties one node, rotating through all 64, and flushes it: 32
// stores to lines the node's previous flush downgraded to Shared, and 32
// loads of lines it wrote back, which come back Exclusive. So every flush
// writes back 32 lines and downgrades 32.
func CoherenceFlushForSleep() func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		cfg := coherence.DefaultConfig()
		p := coherence.New(cfg, noc.New(noc.DefaultConfig()), dram.NewPlacement(cfg.Nodes, 4096))
		lines := cfg.L2.SizeBytes / cfg.L2.LineBytes
		// Line i of node n sits in L2 set i mod sets, so each node's lines
		// fill its L2 exactly. Lines with i%3 == 2 are the same for every
		// node; the others are the node's own.
		addr := func(n, i int) uint64 {
			if i%3 == 2 {
				return uint64(i) << 6
			}
			return uint64(n+1)<<32 | uint64(i)<<6
		}
		now := sim.Cycles(0)
		for n := 0; n < cfg.Nodes; n++ {
			for i := 0; i < lines; i++ {
				now++
				if i%3 == 0 {
					p.Write(n, addr(n, i), now)
				} else {
					p.Read(n, addr(n, i), now)
				}
			}
		}
		// visit re-dirties node n and flushes it. Visits alternate which
		// of the node's two 32-line slots is stored to and which is
		// reloaded.
		visits := make([]int, cfg.Nodes)
		visit := func(n int) {
			store, load := 0, 1
			if visits[n]%2 == 1 {
				store, load = 1, 0
			}
			visits[n]++
			for k := 0; k < 32; k++ {
				now++
				p.Write(n, addr(n, 3*k+store), now)
				p.Read(n, addr(n, 3*k+load), now)
			}
			p.FlushForSleep(n, now)
		}
		for n := 0; n < cfg.Nodes; n++ {
			visit(n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			visit(i % cfg.Nodes)
		}
	}
}

// EngineScheduleCancelFire exercises the Cancel path: schedule two, cancel
// one by handle, fire the other.
func EngineScheduleCancelFire() func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine()
		fn := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := e.After(20, fn)
			e.After(10, fn)
			e.Cancel(h)
			e.Step()
		}
	}
}
