package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/harness"
	"thriftybarrier/internal/mem/coherence"
	"thriftybarrier/internal/mp"
	"thriftybarrier/internal/sim"
	"thriftybarrier/internal/workload"
)

// paperSavings is the paper's Thrifty energy saving over the target
// applications (§5.1, "~17%"), the reference EXPERIMENTS.md records.
const paperSavings = 0.17

// simPaper runs the paper's Figure 5/6 matrix on the 64-CPU core.Machine,
// one cell at a time, every cell on a fresh machine (caches start empty).
type simPaper struct {
	arch    core.Arch
	specs   []workload.Spec
	configs []core.Options
	// ref5 and ref6 are the committed Figure 5/6 CSVs; checked at seed 1.
	ref5, ref6 []byte
	warm       [2]int64 // warm-up cells attempted and failed
}

func setupSimPaper(cfg *config) (instance, error) {
	sp := &simPaper{arch: core.DefaultArch(), specs: workload.All(), configs: core.Configurations()}
	if cfg.seed == 1 {
		var err error
		if sp.ref5, err = os.ReadFile(filepath.Join(cfg.root, "results", "figure5.csv")); err != nil {
			return nil, err
		}
		if sp.ref6, err = os.ReadFile(filepath.Join(cfg.root, "results", "figure6.csv")); err != nil {
			return nil, err
		}
	}
	// Warm-up: every configuration of the last application.
	var st paperPass
	sp.runApp(cfg, len(sp.specs)-1, -1, 0, &st)
	sp.warm = [2]int64{st.attempted, st.failed}
	return sp, nil
}

func (sp *simPaper) close() {}

func (sp *simPaper) warmed() (attempted, failed int64) { return sp.warm[0], sp.warm[1] }

// paperPass accumulates one pass over the matrix.
type paperPass struct {
	apps      []harness.AppRun
	digest    hash.Hash64
	failed    int64
	attempted int64
	episodes  int
	sleeps    int
	flush     int
	coh       coherence.Stats
	hits      uint64
	misses    uint64
	buildS    float64
	newS      float64
	runS      map[string]float64
	// wallS is the cells' own wall time, without the heap samples
	// between them; refS is wallS and cpuS their CPU time, both at the
	// reference host speed.
	wallS, cpuS, refS float64
}

// cell is one (application, configuration) simulation.
func (sp *simPaper) cell(cfg *config, spec workload.Spec, opts core.Options, parent int32, pass int64, st *paperPass) (res core.Result, ok bool) {
	st.attempted++
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cell %s/%s panicked: %v\n", spec.Name, opts.Name, p)
			st.failed++
			ok = false
		}
	}()
	tr := cfg.tr
	scale, cpuScale := hostScale()
	c0, t0 := cpuTime(), time.Now()
	sb := tr.begin("workload.build", parent, pass)
	prog := spec.Build(sp.arch.Nodes, cfg.seed)
	tr.end(sb)
	t1 := time.Now()
	sn := tr.begin("core.new", parent, pass)
	m := core.NewMachine(sp.arch, opts)
	tr.end(sn)
	t2 := time.Now()
	sr := tr.begin("core.run."+strings.ToLower(opts.Name), parent, pass)
	res = m.Run(prog)
	tr.end(sr)
	t3 := time.Now()
	st.cpuS += (cpuTime() - c0).Seconds() * cpuScale
	st.wallS += t3.Sub(t0).Seconds()
	st.refS += t3.Sub(t0).Seconds() * scale
	cfg.heap.sample()
	st.buildS += t1.Sub(t0).Seconds()
	st.newS += t2.Sub(t1).Seconds()
	if st.runS == nil {
		st.runS = map[string]float64{}
	}
	st.runS[opts.Name] += t3.Sub(t2).Seconds()

	c := m.Proto().Stats()
	st.coh.Reads += c.Reads
	st.coh.RemoteFills += c.RemoteFills
	st.coh.InvalidationsSent += c.InvalidationsSent
	st.coh.FlushedLines += c.FlushedLines
	st.episodes += res.Stats.Episodes
	for _, n := range res.Stats.Sleeps {
		st.sleeps += n
	}
	st.flush += res.Stats.FlushLines
	st.hits += res.Stats.PredictorHits
	st.misses += res.Stats.PredictorMisses
	if st.digest != nil {
		hashJSON(st.digest, res)
		hashJSON(st.digest, c)
	}
	return res, true
}

// runApp runs every configuration of one application and normalizes
// them against its Baseline, as the harness does.
func (sp *simPaper) runApp(cfg *config, a int, parent int32, pass int64, st *paperPass) harness.AppRun {
	spec := sp.specs[a]
	app := harness.AppRun{Spec: spec}
	var base core.Result
	baseOK := false
	for c, opts := range sp.configs {
		res, ok := sp.cell(cfg, spec, opts, parent, pass, st)
		cr := harness.ConfigRun{Config: opts, Result: res}
		switch {
		case !ok:
			cr.Err = "cell failed"
		case c == 0:
			base, baseOK = res, true
			app.Measured = base.Breakdown.SpinFraction()
		}
		if ok && !baseOK {
			cr.Err = "baseline failed"
		}
		if cr.Err == "" {
			cr.Norm = res.Breakdown.Normalize(base.Breakdown)
		}
		app.Runs = append(app.Runs, cr)
	}
	return app
}

func (sp *simPaper) measure(cfg *config, d time.Duration) *outcome {
	out := newOutcome()
	var passS, passEps, cpuS, slow []float64
	var totalEps int
	var first string
	var layer paperPass
	var gcCycles uint32
	var gcPause, alloc uint64
	var table2, savings float64
	start := time.Now()
	for pass := int64(0); cfg.more(pass, start, d); pass++ {
		st := paperPass{digest: fnv.New64a()}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		root := cfg.tr.begin("sim-paper.pass", -1, pass)
		for a := range sp.specs {
			st.apps = append(st.apps, sp.runApp(cfg, a, root, pass, &st))
		}
		cfg.tr.end(root)
		wall := st.wallS
		cpuS = append(cpuS, st.cpuS)
		runtime.ReadMemStats(&ms1)
		gcCycles += ms1.NumGC - ms0.NumGC
		gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs
		alloc += ms1.TotalAlloc - ms0.TotalAlloc

		out.attempted += st.attempted
		out.failed += st.failed
		passS = append(passS, wall)
		passEps = append(passEps, float64(st.episodes)/st.refS)
		slow = append(slow, wall/st.refS)
		totalEps += st.episodes
		layer.add(&st)

		dig := fmt.Sprintf("%016x", st.digest.Sum64())
		if first == "" {
			first = dig
		} else if dig != first {
			out.fail("pass %d digest %s differs from pass 0 digest %s", pass, dig, first)
		}
		csv5 := harness.RenderFigureCSV(st.apps, true)
		csv6 := harness.RenderFigureCSV(st.apps, false)
		if sp.ref5 != nil && (csv5 != string(sp.ref5) || csv6 != string(sp.ref6)) {
			out.fail("pass %d: Figure 5/6 CSVs differ from results/figure5.csv and results/figure6.csv", pass)
		}
		table2, savings = paperErrors(st.apps)
	}
	n := float64(len(passS))
	out.passes = len(passS)
	out.digest = first
	out.roundsPS = median(passEps)
	out.cpuPerRnd = total(cpuS) / float64(totalEps) * 1e6
	out.report.put("sim_host_s", median(passS), "s")
	fmt.Printf("# host time over reference-speed time, per pass: %.3f\n", slow)
	out.report.put("table2_err_pp", table2, "pp")
	out.report.put("savings_err_pp", savings, "pp")

	l := out.layer
	l.put("workload.build_s", layer.buildS/n, "s")
	l.put("core.new_s", layer.newS/n, "s")
	var runTotal float64
	for _, opts := range sp.configs {
		v := layer.runS[opts.Name] / n
		runTotal += v
		l.put("core.run_s."+strings.ToLower(opts.Name), v, "s")
	}
	l.put("core.episodes", float64(layer.episodes)/n, "count")
	l.put("core.sleeps", float64(layer.sleeps)/n, "count")
	l.put("core.flush_lines", float64(layer.flush)/n, "count")
	l.put("core.host_us_per_episode", runTotal*n/float64(layer.episodes)*1e6, "us")
	l.put("coherence.reads", float64(layer.coh.Reads)/n, "count")
	l.put("coherence.remote_fills", float64(layer.coh.RemoteFills)/n, "count")
	l.put("coherence.invalidations", float64(layer.coh.InvalidationsSent)/n, "count")
	l.put("coherence.flushed_lines", float64(layer.coh.FlushedLines)/n, "count")
	l.put("predict.hits", float64(layer.hits)/n, "count")
	l.put("predict.misses", float64(layer.misses)/n, "count")
	l.put("core.alloc_mb", float64(alloc)/n/(1<<20), "MB")
	l.put("runtime.gc_cycles", float64(gcCycles)/n, "count")
	l.put("runtime.gc_pause_ms", float64(gcPause)/n/1e6, "ms")
	return out
}

// add folds one pass's counters into an accumulator.
func (p *paperPass) add(st *paperPass) {
	p.episodes += st.episodes
	p.sleeps += st.sleeps
	p.flush += st.flush
	p.coh.Reads += st.coh.Reads
	p.coh.RemoteFills += st.coh.RemoteFills
	p.coh.InvalidationsSent += st.coh.InvalidationsSent
	p.coh.FlushedLines += st.coh.FlushedLines
	p.hits += st.hits
	p.misses += st.misses
	p.buildS += st.buildS
	p.newS += st.newS
	if p.runS == nil {
		p.runS = map[string]float64{}
	}
	for k, v := range st.runS {
		p.runS[k] += v
	}
}

// paperErrors measures the matrix against the paper: the largest Table 2
// imbalance error over the applications, and the error of Thrifty's
// energy saving over the target applications, both in percentage points.
func paperErrors(apps []harness.AppRun) (table2, savings float64) {
	for _, app := range apps {
		table2 = math.Max(table2, 100*math.Abs(app.Measured-app.Spec.TargetImbalance))
	}
	for _, s := range harness.Summarize(apps) {
		if s.Config == core.Thrifty().Name {
			savings = 100 * math.Abs(s.AvgEnergySavings-paperSavings)
		}
	}
	return table2, savings
}

// simScale runs the two sharded scaling studies: the 256-CPU core
// machine (3 check-in topologies × Baseline/Thrifty) and the 1024-node
// mp machine (5 collectives × Baseline/Thrifty).
//
// The sharded engine's cost per event depends on the input, so one input
// would make a run's host time hinge on its seed. Passes therefore cycle
// through scaleInputs inputs: the first is the seed's own (the committed
// study's at seed 1), the others are derived from it. A pass that
// repeats an input must reproduce its digest.
type simScale struct {
	inputs []scaleInput
	mpCfg  mp.Config
	// refCore and refMP are the committed per-CPU and per-node digests,
	// row by row; checked against input 0 at seed 1.
	refCore, refMP []string
	warm           [2]int64 // warm-up runs attempted and failed
}

// scaleInput is one input of both studies.
type scaleInput struct {
	seed     uint64
	arch     core.Arch
	coreProg core.Program
	mpProg   mp.Program
}

const scaleInputs = 4

func newScaleInput(seed uint64) scaleInput {
	in := scaleInput{
		seed:     seed,
		arch:     core.DefaultArch().WithNodes(scaleCPUs),
		coreProg: harness.CoreScalingProgram(seed, scaleCPUs, scalePhases),
		mpProg:   harness.ScalingProgram(seed, scaleNodes, scalePhases),
	}
	in.arch.Seed = seed
	in.arch.RegionNodes = 8
	return in
}

const (
	scaleCPUs   = 256
	scaleNodes  = 1024
	scalePhases = 24
)

type fabric struct {
	label string
	topo  core.Topology
	arity int
}

var fabrics = []fabric{
	{"flat", core.TopologyFlat, 0},
	{"tree r=8", core.TopologyTree, 8},
	{"noc tree", core.TopologyNoCTree, 0},
}

type collective struct {
	label  string
	alg    mp.Algorithm
	fanout int
}

func collectives(cfg mp.Config) []collective {
	return []collective{
		{"tree r=2", mp.TreeBarrier, 2},
		{"tree r=4", mp.TreeBarrier, 4},
		{"tree r=8", mp.TreeBarrier, 8},
		{"tree r=16", mp.TreeBarrier, 16},
		{"dissemination", mp.DisseminationBarrier, cfg.Fanout},
	}
}

func setupSimScale(cfg *config) (instance, error) {
	ss := &simScale{mpCfg: mp.DefaultConfig()}
	for i := uint64(0); i < scaleInputs; i++ {
		seed := cfg.seed
		if i > 0 {
			seed = mix(cfg.seed, i, 0x5ca1e)
		}
		ss.inputs = append(ss.inputs, newScaleInput(seed))
	}
	ss.mpCfg.Nodes = scaleNodes
	ss.mpCfg.NoC.Nodes = scaleNodes
	if cfg.seed == 1 {
		var err error
		if ss.refCore, err = digestColumn(filepath.Join(cfg.root, "results", "core_scaling_256.txt")); err != nil {
			return nil, err
		}
		if ss.refMP, err = digestColumn(filepath.Join(cfg.root, "results", "scaling_1024.txt")); err != nil {
			return nil, err
		}
	}
	// Warm-up: one Baseline run of each machine.
	st := scalePass{digest: fnv.New64a()}
	ss.coreRun(cfg, &ss.inputs[0], fabrics[0], core.Baseline(), cfg.procs, -1, 0, &st)
	ss.mpRun(cfg, &ss.inputs[0], collectives(ss.mpCfg)[0], mp.Baseline(), cfg.procs, -1, 0, &st)
	ss.warm = [2]int64{st.attempted, st.failed}
	return ss, nil
}

func (ss *simScale) close() {}

func (ss *simScale) warmed() (attempted, failed int64) { return ss.warm[0], ss.warm[1] }

// digestColumn reads the last column of a rendered results table's rows.
func digestColumn(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	rows := false
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case strings.HasPrefix(f[0], "--"):
			rows = true
		case rows:
			out = append(out, f[len(f)-1])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	return out, nil
}

// scalePass accumulates one pass over both studies.
type scalePass struct {
	digest    hash.Hash64
	rows      []string // per-CPU digests, then per-node digests
	attempted int64
	failed    int64
	rounds    int
	coreNewS  float64
	coreRunS  float64
	events    uint64
	mpS       float64
	// wallS is the runs' own wall time, without the heap samples
	// between them; refS is wallS and cpuS their CPU time, both at the
	// reference host speed.
	wallS, cpuS, refS float64
}

func (ss *simScale) coreRun(cfg *config, in *scaleInput, f fabric, opts core.Options, shards int, parent int32, pass int64, st *scalePass) {
	st.attempted++
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "perfbench: core %s/%s panicked: %v\n", f.label, opts.Name, p)
			st.failed++
			st.rows = append(st.rows, "failed")
		}
	}()
	opts.Topology, opts.TreeArity = f.topo, f.arity
	scale, cpuScale := hostScale()
	c0, t0 := cpuTime(), time.Now()
	sn := cfg.tr.begin("core.parallel_new", parent, pass)
	m, err := core.NewParallelMachine(in.arch, opts)
	cfg.tr.end(sn)
	if err != nil {
		panic(err)
	}
	t1 := time.Now()
	sr := cfg.tr.begin("core.parallel_run", parent, pass)
	res := m.Run(in.coreProg, shards)
	cfg.tr.end(sr)
	t2 := time.Now()
	st.cpuS += (cpuTime() - c0).Seconds() * cpuScale
	st.wallS += t2.Sub(t0).Seconds()
	st.refS += t2.Sub(t0).Seconds() * scale
	cfg.heap.sample()
	runtime.KeepAlive(m)
	st.coreNewS += t1.Sub(t0).Seconds()
	st.coreRunS += t2.Sub(t1).Seconds()
	st.events += res.Events
	st.rounds += res.Stats.Episodes
	st.rows = append(st.rows, floatDigest(res.PerCPUEnergy, res.PerCPUSpin))
	res.Shards = 0 // the only field that names the engine
	hashJSON(st.digest, res)
}

func (ss *simScale) mpRun(cfg *config, in *scaleInput, c collective, opts mp.Options, shards int, parent int32, pass int64, st *scalePass) {
	st.attempted++
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "perfbench: mp %s/%s panicked: %v\n", c.label, opts.Name, p)
			st.failed++
			st.rows = append(st.rows, "failed")
		}
	}()
	mc := ss.mpCfg
	mc.Algorithm, mc.Fanout = c.alg, c.fanout
	scale, cpuScale := hostScale()
	c0, t0 := cpuTime(), time.Now()
	s := cfg.tr.begin("mp.run", parent, pass)
	m := mp.MustNewMachine(mc, opts)
	res := m.RunParallel(in.mpProg, shards)
	cfg.tr.end(s)
	wall := time.Since(t0).Seconds()
	st.mpS += wall
	st.wallS += wall
	st.refS += wall * scale
	st.cpuS += (cpuTime() - c0).Seconds() * cpuScale
	cfg.heap.sample()
	runtime.KeepAlive(m)
	st.rounds += res.Rounds
	st.rows = append(st.rows, floatDigest(res.PerNodeEnergy, res.PerNodeSpin))
	hashJSON(st.digest, res)
}

// pass runs both studies once over one input on the given shard count.
func (ss *simScale) pass(cfg *config, in *scaleInput, shards int, pass int64) *scalePass {
	st := &scalePass{digest: fnv.New64a()}
	root := cfg.tr.begin(fmt.Sprintf("sim-scale.pass.shards%d", shards), -1, pass)
	for _, f := range fabrics {
		for _, opts := range []core.Options{core.Baseline(), core.Thrifty()} {
			ss.coreRun(cfg, in, f, opts, shards, root, pass, st)
		}
	}
	for _, c := range collectives(ss.mpCfg) {
		for _, opts := range []mp.Options{mp.Baseline(), mp.Thrifty()} {
			ss.mpRun(cfg, in, c, opts, shards, root, pass, st)
		}
	}
	cfg.tr.end(root)
	return st
}

func (ss *simScale) measure(cfg *config, d time.Duration) *outcome {
	out := newOutcome()
	shards := cfg.procs
	var passS, passRate, cpuS, slow []float64
	digests := make([]string, len(ss.inputs))
	var rounds int
	var sum, first scalePass // all passes; the passes over input 0
	start := time.Now()
	for pass := int64(0); cfg.more(pass, start, d); pass++ {
		i := int(pass) % len(ss.inputs)
		st := ss.pass(cfg, &ss.inputs[i], shards, pass)
		wall := st.wallS
		cpuS = append(cpuS, st.cpuS)
		passS = append(passS, wall)
		passRate = append(passRate, float64(st.rounds)/st.refS)
		slow = append(slow, wall/st.refS)
		rounds += st.rounds
		out.attempted += st.attempted
		out.failed += st.failed
		sum.coreNewS += st.coreNewS
		sum.coreRunS += st.coreRunS
		sum.events += st.events
		sum.mpS += st.mpS
		if i == 0 {
			first.coreRunS += st.coreRunS
			first.mpS += st.mpS
			first.attempted++
		}

		dig := fmt.Sprintf("%016x", st.digest.Sum64())
		if digests[i] == "" {
			digests[i] = dig
		} else if dig != digests[i] {
			out.fail("pass %d digest %s differs from the digest %s of input %d's first pass", pass, dig, digests[i], i)
		}
		if ss.refCore != nil && i == 0 {
			want := append(append([]string(nil), ss.refCore...), ss.refMP...)
			if strings.Join(st.rows, " ") != strings.Join(want, " ") {
				out.fail("pass %d: per-CPU/per-node digests %v differ from results/core_scaling_256.txt and results/scaling_1024.txt %v", pass, st.rows, want)
			}
		}
	}
	n := float64(len(passS))
	out.passes = len(passS)
	out.digest = digests[0]
	fmt.Printf("# sim-scale input digests %v\n", digests)
	out.roundsPS = median(passRate)
	out.cpuPerRnd = total(cpuS) / float64(rounds) * 1e6
	out.report.put("sim_host_s", median(passS), "s")
	fmt.Printf("# host time over reference-speed time, per pass: %.3f\n", slow)

	l := out.layer
	l.put("core.parallel_new_s", sum.coreNewS/n, "s")
	l.put("core.parallel_run_s", sum.coreRunS/n, "s")
	l.put("core.events", float64(sum.events)/n, "count")
	l.put("core.ns_per_event", sum.coreRunS*1e9/float64(sum.events), "ns")
	l.put("mp.run_s", sum.mpS/n, "s")
	if cfg.tr != nil {
		// The sequential engine is the reference: the sharded digests
		// must equal it, and it is the base of the shard speed-up.
		seq := ss.pass(cfg, &ss.inputs[0], 0, int64(len(passS)))
		out.attempted += seq.attempted
		out.failed += seq.failed
		if dig := fmt.Sprintf("%016x", seq.digest.Sum64()); dig != digests[0] {
			out.fail("sequential-engine digest %s differs from the %d-shard digest %s", dig, shards, digests[0])
		}
		k := float64(first.attempted)
		l.put("core.shard_speedup", seq.coreRunS/(first.coreRunS/k), "ratio")
		l.put("mp.shard_speedup", seq.mpS/(first.mpS/k), "ratio")
		fmt.Printf("# sim-scale sequential digest %016x, %d-shard digest %s\n", seq.digest.Sum64(), shards, digests[0])
	}
	return out
}

// floatDigest folds per-CPU energies and spin times into one FNV hash,
// bit for bit — the PerCPU/PerNode columns of the committed tables.
func floatDigest(energy []float64, spin []sim.Cycles) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range energy {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e))
		h.Write(buf[:])
	}
	for _, s := range spin {
		binary.LittleEndian.PutUint64(buf[:], uint64(s))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashJSON folds v's JSON encoding into h. Maps encode with sorted keys,
// so the hash covers every exported statistic deterministically.
func hashJSON(h hash.Hash64, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	h.Write(buf.Bytes())
}

func total(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
