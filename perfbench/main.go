// Command perfbench is the repository benchmark. It runs one workload for
// a fixed time, checks the outputs, and prints one JSON result line with
// the end-to-end metrics, or with the per-layer metrics when -trace 1.
//
//	go run . -root .. -workload live-tight -seed 1 -seconds 10 -trace 0
//
// run.py builds it and runs it from the repository root; README.md lists
// the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// config is what every workload receives.
type config struct {
	root    string // repository root (results/ lives there)
	seed    uint64
	seconds time.Duration
	procs   int       // GOMAXPROCS
	tr      *tracer   // nil when untraced
	heap    *heapPeak // nil in a traced run
	// passes, when > 0, makes a simulator workload run exactly this many
	// passes instead of running for a time, so the traced half of a
	// traced run repeats the untraced half's work.
	passes int
}

// more reports whether a pass-based workload starts pass number pass.
func (c *config) more(pass int64, start time.Time, d time.Duration) bool {
	if c.passes > 0 {
		return pass < int64(c.passes)
	}
	return pass == 0 || time.Since(start) < d
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs the timed loop for d and reports what it saw.
	measure(cfg *config, d time.Duration) *outcome
	// warmed reports the Waits (or cells) the warm-up attempted and how
	// many failed; they count toward the run's totals.
	warmed() (attempted, failed int64)
	close()
}

// benchWorkload sets an instance up; the time setup takes is setup_s.
type benchWorkload struct {
	name  string
	setup func(cfg *config) (instance, error)
}

var workloads = []benchWorkload{
	{"sim-paper", setupSimPaper},
	{"sim-scale", setupSimScale},
	{"live-tight", setupLiveTight},
	{"live-phases", setupLivePhases},
	{"thriftyd-tcp", setupThriftydTCP},
}

// outcome is one measurement. A round is the workload's unit of
// completed work: a barrier round, or a simulated barrier episode.
type outcome struct {
	correct   bool
	problems  []string
	attempted int64
	failed    int64
	roundsPS  float64 // completed rounds per second of wall time
	passes    int     // passes a simulator workload ran
	cpuPerRnd float64 // process CPU µs per completed round
	report    metricSet
	layer     metricSet
	digest    string
}

func newOutcome() *outcome {
	return &outcome{correct: true, report: metricSet{}, layer: metricSet{}}
}

// fail marks the outcome incorrect with a reason.
func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak is the largest live heap seen at the workloads' sample
// points: the end of each simulation, with its machine still referenced,
// and the end of each timed round loop, with its records. Each sample
// forces a GC cycle, outside any timed region, and reads
// runtime/metrics' /gc/heap/live:bytes, so the figure does not depend on
// how far the heap overshot between cycles, which varies with the
// host's load.
type heapPeak struct {
	mu  sync.Mutex
	max uint64
}

// sample records the live heap now. A nil *heapPeak, as in a traced run,
// samples nothing, so the traced run's GC counts are the workload's own.
func (h *heapPeak) sample() {
	if h == nil {
		return
	}
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.mu.Lock()
	h.max = max(h.max, s[0].Value.Uint64())
	h.mu.Unlock()
}

func (h *heapPeak) mb() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.max) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run")
		root    = flag.String("root", ".", "repository root")
		commit  = flag.String("commit", "", "commit the tree was built from, when known")
	)
	flag.Parse()
	os.Exit(run(*name, *seed, *seconds, *trace, *root, *commit))
}

func run(name string, seed uint64, seconds float64, trace int, root, commit string) int {
	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds > 0, -trace 0|1\n", workloadNames())
		return 2
	}
	for _, f := range []string{"results/figure5.csv", "internal/core/machine.go"} {
		if _, err := os.Stat(filepath.Join(root, f)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s is not the repository root: %v\n", root, err)
			return 2
		}
	}
	// A run must end within 180 s; give up cleanly well before.
	watchdog := time.AfterFunc(time.Duration(seconds*float64(time.Second))+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit; giving up without a result")
		os.Exit(3)
	})
	defer watchdog.Stop()

	cfg := &config{root: root, seed: seed, seconds: time.Duration(seconds * float64(time.Second)),
		procs: runtime.GOMAXPROCS(0)}
	if trace == 0 {
		cfg.heap = &heapPeak{}
	}
	env := environment(root, commit, seed, name, trace)
	fmt.Printf("# env %s\n", mustJSON(env))

	var setups []float64
	var inst instance
	var warmA, warmF int64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		in, err := wl.setup(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", name, err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
		a, f := in.warmed()
		warmA, warmF = warmA+a, warmF+f
		if i < setupReps-1 {
			in.close()
		} else {
			inst = in
		}
	}
	defer inst.close()

	var out, plain *outcome
	if trace == 0 {
		out = inst.measure(cfg, cfg.seconds)
	} else {
		// Half the time untraced, half traced: the difference is the
		// tracing overhead.
		plain = inst.measure(cfg, cfg.seconds/2)
		cfg.tr, cfg.passes = newTracer(), plain.passes
		out = inst.measure(cfg, cfg.seconds/2)
		out.attempted += plain.attempted
		out.failed += plain.failed
		if !plain.correct {
			out.correct = false
			out.problems = append(out.problems, plain.problems...)
		}
	}
	res := result{Correct: out.correct, Attempted: out.attempted + warmA, Failed: out.failed + warmF, Metrics: metricSet{}}
	if res.Attempted < 1 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	out.report.put("failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	out.report.put("peak_rss_mb", peakRSSMB(), "MB")
	if trace == 0 {
		res.Metrics.put("setup_s", median(setups), "s")
		res.Metrics.put("peak_heap_mb", cfg.heap.mb(), "MB")
		res.Metrics.put("rounds_per_s", out.roundsPS, "1/s")
		res.Metrics.put("cpu_per_round_us", out.cpuPerRnd, "us")
	} else {
		res.Metrics = out.layer
		for k, m := range out.report {
			res.Metrics.put(k, m.Value, m.Unit)
		}
		fillLayerDefaults(res.Metrics)
		over := 0.0
		if plain.roundsPS > 0 {
			over = 100 * (plain.roundsPS - out.roundsPS) / plain.roundsPS
		}
		res.Metrics.put("trace.overhead_pct", over, "%")
		res.Metrics.put("trace.spans", float64(len(cfg.tr.spans)), "count")
		fmt.Printf("# trace overhead: rounds_per_s %.6g untraced, %.6g traced (%.2f%%)\n", plain.roundsPS, out.roundsPS, over)
		cfg.tr.report(os.Stdout)
		if err := writeTrace(root, name, seed, cfg.tr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
		}
	}
	printReport(os.Stdout, name, out, res)
	if err := writeRecord(root, name, seed, trace, env, out, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing record: %v\n", err)
	}
	if res.Failed > 0 {
		// Leave the goroutine stacks behind to explain the failures.
		if err := writeStacks(root, name, seed, trace); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing stacks: %v\n", err)
		}
	}
	fmt.Println(res.String())
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func printReport(w io.Writer, name string, out *outcome, res result) {
	keys := make([]string, 0, len(out.report))
	for k := range out.report {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := out.report[k]
		fmt.Fprintf(w, "# %s %s = %.6g %s\n", name, k, m.Value, m.Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "# %s attempted %d, failed %d (failed_frac %.6g)\n", name, res.Attempted, res.Failed, frac)
	if out.digest != "" {
		fmt.Fprintf(w, "# %s digest %s\n", name, out.digest)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "# %s CHECK FAILED: %s\n", name, p)
	}
}

// environment records the host and the tree the result came from.
type env struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	TreeDigest string `json:"tree_digest"`
	Time       string `json:"time"`
}

func environment(root, commit string, seed uint64, name string, trace int) env {
	if commit == "" {
		commit = "unknown"
	}
	return env{
		Workload: name, Seed: seed, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		Commit: commit, TreeDigest: treeDigest(root),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeDigest hashes the Go sources, go.mod files and committed results
// under root, so a result names the code it measured even where no
// version-control metadata exists.
func treeDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || strings.HasPrefix(rel, "results"+string(filepath.Separator)) {
			files = append(files, rel)
		}
		return nil
	})
	sort.Strings(files)
	h := fnv.New64a()
	for _, rel := range files {
		b, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// outDir is where runs leave their records and traces, inside the
// checkout's build directory.
func outDir(root, sub string) (string, error) {
	dir := filepath.Join(root, ".bench_build", sub)
	return dir, os.MkdirAll(dir, 0o755)
}

func writeRecord(root, name string, seed uint64, trace int, e env, out *outcome, res result) error {
	dir, err := outDir(root, "records")
	if err != nil {
		return err
	}
	rec := struct {
		Env      env       `json:"env"`
		Result   result    `json:"result"`
		Report   metricSet `json:"report"`
		Digest   string    `json:"digest,omitempty"`
		Problems []string  `json:"problems,omitempty"`
	}{e, res, out.report, out.digest, out.problems}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace)), append(b, '\n'), 0o644)
}

func writeStacks(root, name string, seed uint64, trace int) error {
	dir, err := outDir(root, "records")
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-stacks.txt", name, seed, trace)))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTrace(root, name string, seed uint64, tr *tracer) error {
	dir, err := outDir(root, "traces")
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
