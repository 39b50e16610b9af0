package main

import (
	"sort"
	"time"
)

// The simulators' host time is scaled to a reference host speed. The
// host this benchmark was tuned on is a shared machine whose speed moves
// by 20–40% over minutes, far more than the changes the benchmark must
// resolve; a single-threaded simulation follows it almost one for one.
// Right before each simulation the benchmark times a fixed piece of
// standard-library work (maps, appends, a sort — the simulator's own
// mix, in none of the repository's code) and scales the simulation's
// wall time by refNominal over that time, and its CPU time likewise. A
// slow spell slows both and cancels; a change to the simulator moves
// only the simulation.

// refNominal is the reference work's time on the tuning host at its
// usual speed, so scaled host times stay close to that host's seconds.
const refNominal = 1800 * time.Microsecond

var refSink uint64

// refWork is the fixed reference work.
func refWork() {
	for k := 0; k < 2; k++ {
		m := make(map[uint64]uint64, 1<<10)
		s := make([]uint64, 0, 1<<12)
		x := uint64(k + 1)
		for i := 0; i < 1<<12; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			m[x&0xfff] += x
			s = append(s, x>>7)
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		refSink += s[len(s)/2] + uint64(len(m))
	}
}

// hostScale runs the reference work and returns the factors that turn
// wall time and CPU time measured now into reference-speed time. CPU
// time has its own factor because a host that takes the CPU away from
// the process stretches wall time but not CPU time.
func hostScale() (wall, cpu float64) {
	c0, t0 := cpuTime(), time.Now()
	refWork()
	w, c := time.Since(t0), cpuTime()-c0
	return float64(refNominal) / float64(w), float64(refNominal) / float64(max(c, time.Microsecond))
}
