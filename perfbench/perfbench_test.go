package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"thriftybarrier/thrifty"
)

func TestSummarizeReportsHighestPercentileWithTenBeyond(t *testing.T) {
	seqf := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		tailP, val float64
	}{
		{n: 1000, tailP: 99, val: 990},
		{n: 999, tailP: 90, val: 900},
		{n: 100, tailP: 90, val: 90},
		{n: 100000, tailP: 99, val: 99000},
		{n: 20, tailP: 50, val: 10},
		{n: 19, tailP: 0, val: 0},
	} {
		s := summarize(seqf(tc.n))
		if s.N != tc.n || s.TailP != tc.tailP || s.Tail != tc.val {
			t.Errorf("n=%d: got %+v, want p%g = %g", tc.n, s, tc.tailP, tc.val)
		}
	}
	if s := summarize([]float64{3, 1, 2}); s.P50 != 2 {
		t.Errorf("median of 1,2,3 = %g", s.P50)
	}
}

func TestRoundTimesFromTimestamps(t *testing.T) {
	// Party 2 calls last at 100; the others return at 130 and 150; the
	// last party itself returns at 140.
	late, rtt, err := roundTimes([]arrival{
		{Call: 10, Ret: 130_000 + 100, OK: true},
		{Call: 50, Ret: 150_000 + 100, OK: true},
		{Call: 100, Ret: 140_000 + 100, OK: true},
	})
	if err != nil {
		t.Fatalf("complete round: %v", err)
	}
	if len(late) != 2 || late[0] != 130 || late[1] != 150 {
		t.Errorf("lateness = %v µs, want [130 150]", late)
	}
	if rtt != 140 {
		t.Errorf("round trip = %g µs, want 140", rtt)
	}
	if _, _, err := roundTimes([]arrival{{Call: 1, Ret: 2, OK: true}, {Call: 1, Ret: 3}}); err != errRoundFailed {
		t.Errorf("round with a failed Wait: err %v", err)
	}
	// A party that returned before the last party called broke the
	// rendezvous; a return at the same instant did not.
	if _, _, err := roundTimes([]arrival{{Call: 10, Ret: 90, OK: true}, {Call: 100, Ret: 120, OK: true}}); err != errEarlyRelease {
		t.Errorf("early release: err %v", err)
	}
	if late, _, err := roundTimes([]arrival{{Call: 10, Ret: 100, OK: true}, {Call: 100, Ret: 120, OK: true}}); err != nil || late[0] != 0 {
		t.Errorf("return at the last call: late %v err %v", late, err)
	}
}

func TestMetricNames(t *testing.T) {
	for _, n := range []string{"setup_s", "core.run_s.thrifty-halt", "remote.turn_us.p99", "9lives"} {
		if !validName(n) {
			t.Errorf("%q rejected", n)
		}
	}
	for _, n := range []string{"", ".hidden", "-x", "with space", "slash/name", "pct%", "ünïcode",
		"a2345678901234567890123456789012345678901234567890123456789012345"} {
		if validName(n) {
			t.Errorf("%q accepted", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("put accepted a bad name")
		}
	}()
	metricSet{}.put("bad name", 1, "s")
}

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json names
// exactly the metrics the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs (%s)", w.Name, workloadNames())
		}
	}
	seen := map[string]bool{}
	for _, x := range append(append([]m(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !validName(x.Name) || seen[x.Name] {
			t.Errorf("metric %q invalid or repeated", x.Name)
		}
		seen[x.Name] = true
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, l := range layerMetrics {
		if got := spec.PerLayer[i]; got != (m{l.name, l.unit, l.better}) {
			t.Errorf("per_layer[%d] = %+v, benchmark reports %s %s %s", i, got, l.name, l.unit, l.better)
		}
	}
	want := map[string]string{"setup_s": "s", "peak_heap_mb": "MB", "rounds_per_s": "1/s", "cpu_per_round_us": "us"}
	if len(spec.EndToEnd) != len(want) {
		t.Errorf("end_to_end = %v, want %v", spec.EndToEnd, want)
	}
	for _, x := range spec.EndToEnd {
		if want[x.Name] != x.Unit {
			t.Errorf("end_to_end %s %s not reported by the benchmark", x.Name, x.Unit)
		}
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "round", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "wait", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "wait", Start: 20, End: 50}, // overlaps span 1
		{ID: 3, Parent: 0, Name: "wait", Start: 60, End: 70},
		{ID: 4, Parent: 1, Name: "send", Start: 10, End: 15},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	if r := got["round"]; r.Self != 50e-6 || r.Total != 100e-6 {
		t.Errorf("round = %+v, want self 50ns of 100ns", r)
	}
	if w := got["wait"]; w.Count != 3 || w.Self != 55e-6 {
		t.Errorf("wait = %+v, want 3 spans, self 55ns", w)
	}
}

// TestLiveWaitWithoutPeerFailsAtDeadline: a party whose peer never
// arrives is cancelled at its deadline and counted failed; the loop
// still ends.
func TestLiveWaitWithoutPeerFailsAtDeadline(t *testing.T) {
	b := thrifty.New(2, thrifty.Options{})
	start := time.Now()
	l := runRounds([][]int{{0}}, 0, 1, func(int) { b.Reset() }, nil,
		func(ctx context.Context, p int, r int64) error { return b.WaitContext(ctx) })
	if took := time.Since(start); took < waitDeadline || took > waitDeadline+time.Second {
		t.Errorf("Wait gave up after %v, deadline %v", took, waitDeadline)
	}
	st := l.rounds()
	if l.waits.Load() != 1 || l.fails.Load() != 1 || st.completed != 0 || len(st.late) != 0 {
		t.Errorf("waits %d fails %d completed %d: want one failed Wait and no round", l.waits.Load(), l.fails.Load(), st.completed)
	}
}

// TestRemoteWaitWithoutPeerFailsAtDeadline is the same for a thriftyd
// client on loopback TCP.
func TestRemoteWaitWithoutPeerFailsAtDeadline(t *testing.T) {
	td := &thriftydTCP{seed: 1}
	if err := td.start(1); err != nil {
		t.Fatal(err)
	}
	defer td.close()
	l := runRounds([][]int{{0}}, 0, 1, nil, nil, func(ctx context.Context, p int, r int64) error {
		return td.clients[0].Wait(ctx, "lonely", 2)
	})
	if completed := l.rounds().completed; l.fails.Load() != 1 || completed != 0 {
		t.Errorf("fails %d completed %d: want the Wait failed", l.fails.Load(), completed)
	}
}

func TestClosedLoopRunsEveryPartyTheSameRounds(t *testing.T) {
	b := thrifty.New(3, thrifty.Options{})
	l := runRounds([][]int{{0, 1, 2}}, 50*time.Millisecond, 0, func(int) { b.Reset() }, nil,
		func(ctx context.Context, p int, r int64) error { return b.WaitContext(ctx) })
	st := l.rounds()
	if l.count[0] != l.count[1] || l.count[1] != l.count[2] {
		t.Fatalf("parties ran %v rounds", l.count)
	}
	if st.completed == 0 || int64(st.completed) != l.count[0] || len(st.late) != 2*st.completed || len(st.rtt) != st.completed || st.early != 0 {
		t.Errorf("completed %d of %d rounds, %d lateness and %d round-trip samples, %d early releases",
			st.completed, l.count[0], len(st.late), len(st.rtt), st.early)
	}
	if got := b.Generation(); got != uint64(st.completed) {
		t.Errorf("Generation = %d after %d rounds", got, st.completed)
	}
}

// TestBrokenRendezvousIsCaught: a "barrier" that lets a party leave
// before its peer called Wait shows up as early releases.
func TestBrokenRendezvousIsCaught(t *testing.T) {
	l := runRounds([][]int{{0, 1}}, 0, 5, nil,
		func(p int, r int64) {
			if p == 1 {
				time.Sleep(time.Millisecond)
			}
		},
		func(context.Context, int, int64) error { return nil })
	var out outcome
	st := l.rounds()
	st.check(&out)
	if st.early != 5 || out.correct {
		t.Errorf("early releases %d of 5 rounds, correct %v", st.early, out.correct)
	}
}
