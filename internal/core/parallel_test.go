package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"thriftybarrier/internal/sim"
)

func parallelArch(nodes, regionNodes int) Arch {
	a := DefaultArch().WithNodes(nodes)
	a.Seed = 7
	a.RegionNodes = regionNodes
	return a
}

// statsLine renders Stats deterministically (sorted Sleeps keys).
func statsLine(s Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ep=%d sp=%d yl=%d ew=%d xw=%d lw=%d dis=%d fl=%d os=%d fw=%d ph=%d pm=%d su=%d dw=%d tf=%d dt=%d rc=%d ip=%d is=%d",
		s.Episodes, s.Spins, s.Yields, s.EarlyWakes, s.ExternalWakes, s.LateWakes,
		s.Disables, s.FlushLines, s.OracleSleeps, s.FalseWakeups,
		s.PredictorHits, s.PredictorMisses, s.SkippedUpdates,
		s.DroppedWakeups, s.TimerFailures, s.DriftedTimers, s.Recoveries,
		s.InjectedPreempts, s.InjectedStalls)
	keys := make([]string, 0, len(s.Sleeps))
	for k := range s.Sleeps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, s.Sleeps[k])
	}
	return b.String()
}

// parallelDigest folds every observable of a ParallelResult — span, event
// count, per-CPU energy and spin residency at full float precision, and
// the merged stats — into one FNV-1a word.
func parallelDigest(r ParallelResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "span=%d events=%d\n", r.Span, r.Events)
	for i := range r.PerCPUEnergy {
		fmt.Fprintf(h, "%d %016x %d\n", i, math.Float64bits(r.PerCPUEnergy[i]), r.PerCPUSpin[i])
	}
	fmt.Fprintf(h, "%s\n", statsLine(r.Stats))
	return h.Sum64()
}

func parallelRun(t *testing.T, arch Arch, opts Options, prog Program, shards int) ParallelResult {
	t.Helper()
	m, err := NewParallelMachine(arch, opts)
	if err != nil {
		t.Fatalf("NewParallelMachine: %v", err)
	}
	return m.Run(prog, shards)
}

// The load-bearing property of the whole sharded machine: for any shard
// count, a run is bit-identical to the plain sequential engine (shards
// 0). Every configuration family and every topology must hold it.
func TestParallelBitIdenticalAcrossShards(t *testing.T) {
	arch := parallelArch(64, 8)
	prog := UniformProgram(0x400, 8, imbalancedWork(150_000, 250_000))

	withTopo := func(o Options, topo Topology, arity int) Options {
		o.Topology = topo
		o.TreeArity = arity
		return o
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"baseline-flat", Baseline()},
		{"thrifty-flat", Thrifty()},
		{"thrifty-tree8", withTopo(Thrifty(), TopologyTree, 8)},
		{"thrifty-noctree", withTopo(Thrifty(), TopologyNoCTree, 0)},
		{"baseline-noctree", withTopo(Baseline(), TopologyNoCTree, 0)},
		{"oracle-flat", OracleHalt()},
		{"unconditional-flat", UnconditionalHalt()},
		{"spinthen-flat", SpinThenHalt()},
		{"timeshare-flat", TimeShare(5 * sim.Microsecond)},
		{"internal-wakeup", func() Options {
			o := Thrifty()
			o.Wakeup = WakeupInternal
			return o
		}()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := parallelRun(t, arch, tc.opts, prog, 0)
			want := parallelDigest(ref)
			if ref.Span == 0 || ref.Events == 0 {
				t.Fatalf("degenerate reference run: span=%v events=%d", ref.Span, ref.Events)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				got := parallelRun(t, arch, tc.opts, prog, shards)
				if d := parallelDigest(got); d != want {
					t.Errorf("shards=%d digest %016x != reference %016x (span %v vs %v, events %d vs %d)",
						shards, d, want, got.Span, ref.Span, got.Events, ref.Events)
				}
			}
		})
	}
}

// The sharded machine's stats must agree with physical sense: every
// episode accounted, thrifty actually sleeping, and the predictor active.
func TestParallelThriftySleepsAndPredicts(t *testing.T) {
	arch := parallelArch(64, 8)
	prog := UniformProgram(0x410, 10, imbalancedWork(150_000, 400_000))
	r := parallelRun(t, arch, Thrifty(), prog, 4)
	if int(r.Stats.Episodes) != prog.Phases() {
		t.Errorf("episodes = %d, want %d", r.Stats.Episodes, prog.Phases())
	}
	total := 0
	for _, n := range r.Stats.Sleeps {
		total += n
	}
	if total == 0 {
		t.Error("thrifty run recorded no sleeps")
	}
	if r.Stats.PredictorHits+r.Stats.PredictorMisses == 0 {
		t.Error("predictor never consulted")
	}
	base := parallelRun(t, arch, Baseline(), prog, 4)
	if r.Breakdown.TotalEnergy() >= base.Breakdown.TotalEnergy() {
		t.Errorf("thrifty energy %.3g not below baseline %.3g", r.Breakdown.TotalEnergy(), base.Breakdown.TotalEnergy())
	}
}

// Records must carry the same episode skeleton as the sequential
// machine: monotone release times, a releaser per phase, and departures
// at or after the release.
func TestParallelRecords(t *testing.T) {
	arch := parallelArch(64, 8)
	prog := UniformProgram(0x420, 4, imbalancedWork(100_000, 300_000))
	m, err := NewParallelMachine(arch, Thrifty())
	if err != nil {
		t.Fatal(err)
	}
	m.SetRecording(true)
	r := m.Run(prog, 4)
	if len(r.Episodes) != prog.Phases() {
		t.Fatalf("episodes = %d, want %d", len(r.Episodes), prog.Phases())
	}
	for _, ep := range r.Episodes {
		if ep.ReleaseAt == 0 {
			t.Fatalf("phase %d: no release recorded", ep.Phase)
		}
		releasers := 0
		for tid, w := range ep.Waits {
			if w.Kind == "release" {
				releasers++
			}
			if ep.Depart[tid] < ep.ReleaseAt {
				t.Errorf("phase %d thread %d departs %v before release %v", ep.Phase, tid, ep.Depart[tid], ep.ReleaseAt)
			}
		}
		if releasers != 1 {
			t.Errorf("phase %d: %d releasers", ep.Phase, releasers)
		}
	}
}

// White-box: a model whose messaging undercuts the declared lookahead
// must die loudly, not silently reorder. Inflating the machine's
// lookahead far past the NoC minimum forces the first cross-shard
// message inside a window. The violation panics on a shard worker
// goroutine, which kills the process, so the crashing run happens in a
// re-exec'd child.
func TestParallelLookaheadViolationPanics(t *testing.T) {
	if os.Getenv("CORE_LOOKAHEAD_CRASHER") == "1" {
		m, err := NewParallelMachine(parallelArch(64, 8), Baseline())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(3)
		}
		m.lookahead = sim.Cycles(1) << 40
		m.Run(UniformProgram(0x430, 2, imbalancedWork(50_000, 100_000)), 8)
		os.Exit(0) // no panic: the parent will flag it
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestParallelLookaheadViolationPanics$", "-test.v")
	cmd.Env = append(os.Environ(), "CORE_LOOKAHEAD_CRASHER=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("run with inflated lookahead did not crash; output:\n%s", out)
	}
	if !strings.Contains(string(out), "lookahead violation") {
		t.Fatalf("crash without the lookahead-violation panic; output:\n%s", out)
	}
}

func TestNewParallelMachineRejections(t *testing.T) {
	arch := parallelArch(64, 8)
	dvfs := DVFSReclaim()
	if _, err := NewParallelMachine(arch, dvfs); err == nil {
		t.Error("DVFS accepted")
	}
	bst := Thrifty()
	bst.BSTDirect = true
	if _, err := NewParallelMachine(arch, bst); err == nil {
		t.Error("BSTDirect accepted")
	}
	bad := arch
	bad.RegionNodes = 24
	if _, err := NewParallelMachine(bad, Baseline()); err == nil {
		t.Error("non-power-of-two region size accepted")
	}
	noct := Baseline()
	noct.Topology = TopologyNoCTree
	noct.TreeArity = 4
	if err := noct.Validate(); err == nil {
		t.Error("NoCTree with TreeArity accepted by Validate")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewMachine accepted NoCTree without panicking")
		}
	}()
	ok := Baseline()
	ok.Topology = TopologyNoCTree
	NewMachine(arch, ok)
}

// Shard counts beyond the region count clamp instead of fragmenting
// regions across shards.
func TestParallelShardClamp(t *testing.T) {
	arch := parallelArch(16, 8)
	m, err := NewParallelMachine(arch, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run(UniformProgram(0x440, 2, imbalancedWork(50_000, 100_000)), 64)
	if r.Shards != 2 {
		t.Errorf("shards = %d, want clamp to 2 regions", r.Shards)
	}
}

// Windows counts the engine's lookahead windows. A window covers every
// event before its end whether or not a shard boundary separates them, so
// the count is the same at every shard count; the sequential engine has
// none.
func TestParallelWindowsShardInvariant(t *testing.T) {
	arch := parallelArch(64, 8)
	prog := UniformProgram(0x450, 4, imbalancedWork(150_000, 250_000))
	run := func(shards int) (uint64, ParallelResult) {
		m, err := NewParallelMachine(arch, Thrifty())
		if err != nil {
			t.Fatal(err)
		}
		r := m.Run(prog, shards)
		return m.Windows(), r
	}
	if w, _ := run(0); w != 0 {
		t.Fatalf("sequential engine reports %d windows, want 0", w)
	}
	want, r := run(1)
	if want == 0 || want > r.Events {
		t.Fatalf("1 shard: %d windows for %d events", want, r.Events)
	}
	for _, shards := range []int{2, 4, 8} {
		if w, _ := run(shards); w != want {
			t.Errorf("%d shards: %d windows, want %d as at 1 shard", shards, w, want)
		}
	}
}
