package main

// -bench-diff: compare a freshly recorded BENCH_runtime.json (and its
// BENCH_wheel.json / BENCH_sim.json siblings) against the numbers
// committed in README.md — the wake-up fabric's ManyBarriers table
// (including the wheel-only 100k/1M rows and the p999 lateness anchor)
// and the simulator's ns/op anchors. The comparison is informational by
// design — benchmark numbers from shared CI runners are noise, so a
// drift here should show up in the job log without gating anything (the
// README rows are medians of repeated runs; see the Performance
// section).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"thriftybarrier/internal/harness/microbench"
)

// readmeBenchRow is one recorded row of the README ManyBarriers table:
//
//	| 10000 resident barriers | 70 | 140 | 2.0× |
//	| 1000000 resident barriers | 74 | — | — |
//
// Past 10k resident the timer baseline drops out of the sweep, so those
// rows record the wheel alone (hasTimer false).
type readmeBenchRow struct {
	barriers     int
	wheel, timer float64 // recorded ns per arm/cancel pair
	hasTimer     bool
}

// parseReadmeBench extracts the ManyBarriers rows from README markdown.
func parseReadmeBench(readme string) []readmeBenchRow {
	var rows []readmeBenchRow
	for _, line := range strings.Split(readme, "\n") {
		cells := strings.Split(line, "|")
		// "| N resident barriers | wheel | timer | speedup |" splits into
		// 6 cells with empty ends.
		if len(cells) < 5 || !strings.HasSuffix(strings.TrimSpace(cells[1]), " resident barriers") {
			continue
		}
		n, err1 := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(cells[1]), " resident barriers"))
		w, err2 := strconv.ParseFloat(strings.TrimSpace(cells[2]), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		row := readmeBenchRow{barriers: n, wheel: w}
		if t, err := strconv.ParseFloat(strings.TrimSpace(cells[3]), 64); err == nil {
			row.timer, row.hasTimer = t, true
		}
		rows = append(rows, row)
	}
	return rows
}

// readmeP999Anchor extracts the million-barrier tail-lateness prose
// anchor ("… p999 wake lateness is N µs …"), compared against the
// p999-wake-us metric of ManyBarriers/wheel-1000000x16.
var readmeP999Anchor = regexp.MustCompile(`p999 wake lateness is ([0-9.]+)\s*µs`)

// readmeEngineAnchors extracts the simulator ns/op numbers committed in
// README.md's Performance section, keyed by the BENCH_sim.json result name
// each one is recorded under. Anchors that the README no longer states
// are simply absent.
var readmeEngineAnchors = []struct {
	result string
	re     *regexp.Regexp
}{
	// "| after (arena + index heap) | 10.9 | 0 | 0 |"
	{"EngineScheduleFire/empty", regexp.MustCompile(`\|\s*after \(arena \+ index heap\)\s*\|\s*([0-9.]+)\s*\|`)},
	// "148.5 ns/op with 1024 pending\nevents" (prose may wrap mid-phrase)
	{"EngineScheduleFire/pending-1k", regexp.MustCompile(`([0-9.]+) ns/op with 1024 pending\s+events`)},
	// "24.0 ns/op for a schedule+cancel+fire round"
	{"EngineScheduleCancelFire", regexp.MustCompile(`([0-9.]+) ns/op for a schedule\+cancel\+fire\s+round`)},
	// "| parallel engine, 1 shard (64-rank ring) | 21.5 |" — compared in
	// ns/event, the metric those results report.
	{"ParallelEngine/shards-1", regexp.MustCompile(`\|\s*parallel engine, 1 shard[^|]*\|\s*([0-9.]+)\s*\|`)},
	{"ParallelEngine/shards-4", regexp.MustCompile(`\|\s*parallel engine, 4 shards[^|]*\|\s*([0-9.]+)\s*\|`)},
	{"ParallelEngine/shards-8", regexp.MustCompile(`\|\s*parallel engine, 8 shards[^|]*\|\s*([0-9.]+)\s*\|`)},
	// "| core machine, sequential reference (64 CPUs) | 1516 |" — the full
	// sharded CC-NUMA machine on the core-scaling workload, in ns/event.
	{"ParallelCore/seq", regexp.MustCompile(`\|\s*core machine, sequential reference[^|]*\|\s*([0-9.]+)\s*\|`)},
	{"ParallelCore/shards-1", regexp.MustCompile(`\|\s*core machine, 1 shard[^|]*\|\s*([0-9.]+)\s*\|`)},
	{"ParallelCore/shards-4", regexp.MustCompile(`\|\s*core machine, 4 shards[^|]*\|\s*([0-9.]+)\s*\|`)},
	{"ParallelCore/shards-8", regexp.MustCompile(`\|\s*core machine, 8 shards[^|]*\|\s*([0-9.]+)\s*\|`)},
	// "| after (own-L2 walk, O(1) dirty count) | 26566 | 32 |" — one
	// node's re-dirty and flush-before-sleep, in ns/op.
	{"CoherenceFlushForSleep", regexp.MustCompile(`\|\s*after \(own-L2 walk[^|]*\|\s*([0-9.]+)\s*\|`)},
	// "| full experiment cell (`PaperCell/fmm-thrifty`) | 66000000 | …" —
	// one Build → NewMachine → Run cell of the Figure 5/6 matrix, in ns/op.
	{"PaperCell/fmm-thrifty", regexp.MustCompile(`\|\s*full experiment cell[^|]*\|\s*([0-9.]+)\s*\|`)},
}

// loadSuite reads one BENCH_*.json and returns a lookup by result name.
func loadSuite(path string) (func(string) (microbench.Result, bool), error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var suite struct {
		Results []microbench.Result `json:"results"`
	}
	if err := json.Unmarshal(raw, &suite); err != nil {
		return nil, fmt.Errorf("bench-diff: %s: %v", path, err)
	}
	return func(name string) (microbench.Result, bool) {
		for _, r := range suite.Results {
			if r.Name == name {
				return r, true
			}
		}
		return microbench.Result{}, false
	}, nil
}

// diffBenchReadme reports how a recorded BENCH_runtime.json (plus the
// BENCH_sim.json written next to it) compares to the README's committed
// wake-up engine and event-engine numbers. It returns an error only for
// broken inputs (missing files, no table, no matching results): the
// numeric comparison itself never fails the run.
func diffBenchReadme(jsonPath, readmePath string, w io.Writer) error {
	readme, err := os.ReadFile(readmePath)
	if err != nil {
		return err
	}
	rows := parseReadmeBench(string(readme))
	if len(rows) == 0 {
		return fmt.Errorf("bench-diff: no ManyBarriers table found in %s", readmePath)
	}
	// ManyBarriers lives in BENCH_wheel.json, written next to
	// BENCH_runtime.json by -bench-json (same sibling convention as
	// BENCH_sim.json below).
	wheelPath := filepath.Join(filepath.Dir(jsonPath), "BENCH_wheel.json")
	lookup, err := loadSuite(wheelPath)
	if err != nil {
		return err
	}
	pair := func(name string) (float64, bool) {
		r, ok := lookup(name)
		if !ok {
			return 0, false
		}
		v, ok := r.Metrics["ns/armcancel"]
		return v, ok
	}
	fmt.Fprintf(w, "bench-diff: %s vs %s (informational; README rows are medians of repeated runs)\n", jsonPath, readmePath)
	matched := 0
	for _, row := range rows {
		wheel, okw := pair(fmt.Sprintf("ManyBarriers/wheel-%dx16", row.barriers))
		if !okw {
			fmt.Fprintf(w, "  %d resident: no recorded result in %s\n", row.barriers, wheelPath)
			continue
		}
		matched++
		if !row.hasTimer {
			// Past 10k resident the timer baseline drops out of the sweep
			// (README records the wheel alone).
			fmt.Fprintf(w, "  %d resident: wheel %.1f ns/pair (recorded %.0f, %+.0f%%), no timer baseline at this size\n",
				row.barriers, wheel, row.wheel, 100*(wheel-row.wheel)/row.wheel)
			continue
		}
		timer, okt := pair(fmt.Sprintf("ManyBarriers/timer-%dx16", row.barriers))
		if !okt {
			fmt.Fprintf(w, "  %d resident: no recorded timer result in %s\n", row.barriers, wheelPath)
			continue
		}
		fmt.Fprintf(w, "  %d resident: wheel %.1f ns/pair (recorded %.0f, %+.0f%%), timer %.1f (recorded %.0f, %+.0f%%), speedup %.2fx (recorded %.1fx)\n",
			row.barriers,
			wheel, row.wheel, 100*(wheel-row.wheel)/row.wheel,
			timer, row.timer, 100*(timer-row.timer)/row.timer,
			timer/wheel, row.timer/row.wheel)
	}
	if matched == 0 {
		return fmt.Errorf("bench-diff: %s has no ManyBarriers results matching the README table", wheelPath)
	}
	// Tail-lateness anchor: the README prose states the million-barrier
	// p999 wake lateness; compare it to the recorded quantile.
	if m := readmeP999Anchor.FindStringSubmatch(string(readme)); m != nil {
		if want, err := strconv.ParseFloat(m[1], 64); err == nil {
			if r, ok := lookup("ManyBarriers/wheel-1000000x16"); ok {
				if got, ok := r.Metrics["p999-wake-us"]; ok {
					fmt.Fprintf(w, "  1000000 resident: p999 wake lateness %.0f µs (recorded %.0f, %+.0f%%)\n",
						got, want, 100*(got-want)/want)
				}
			}
		}
	}

	// Simulator side: BENCH_sim.json is written next to
	// BENCH_runtime.json by -bench-json, and the README states its anchors
	// (engine, coherence, core machine and full experiment cell).
	simPath := filepath.Join(filepath.Dir(jsonPath), "BENCH_sim.json")
	simLookup, err := loadSuite(simPath)
	if err != nil {
		return err
	}
	matched = 0
	for _, a := range readmeEngineAnchors {
		m := a.re.FindStringSubmatch(string(readme))
		if m == nil {
			continue
		}
		want, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			continue
		}
		r, ok := simLookup(a.result)
		if !ok {
			fmt.Fprintf(w, "  %s: no recorded result in %s\n", a.result, simPath)
			continue
		}
		matched++
		// Results that report ns/event (the parallel engine) are compared
		// in that metric; plain engine results compare ns/op.
		val, unit := r.NsPerOp, "ns/op"
		if v, ok := r.Metrics["ns/event"]; ok {
			val, unit = v, "ns/event"
		}
		fmt.Fprintf(w, "  %s: %.1f %s (recorded %.1f, %+.0f%%)\n",
			a.result, val, unit, want, 100*(val-want)/want)
	}
	if matched == 0 {
		return fmt.Errorf("bench-diff: %s has no engine results matching the README anchors", simPath)
	}
	return nil
}
