package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values. Names follow the BENCHMARK.json
// rule: letters, digits, '_', '.' and '-', starting with a letter or digit.
type metricSet map[string]metric

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric name.
func validName(name string) bool { return metricName.MatchString(name) }

// put records a metric, rejecting names the result format cannot carry.
func (m metricSet) put(name string, v float64, unit string) {
	if !validName(name) {
		panic(fmt.Sprintf("perfbench: bad metric name %q", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func (r result) String() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// tailPct are the candidate tail percentiles, highest first.
var tailPct = []float64{99, 90, 50}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps float error in p*n from adding a rank.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-6)), 1), n)
}

// quantile returns the p-th percentile of sorted by the nearest-rank rule.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// summary is a timing distribution as the benchmark reports it: the
// median, the highest of p99, p90 and p50 that has at least ten samples
// beyond it, and the sample count.
type summary struct {
	N    int
	P50  float64
	Tail float64 // the percentile TailP of the samples
	// TailP is the percentile Tail reports; 0 when there are too few
	// samples for any percentile to have ten beyond it.
	TailP float64
}

// summarize computes the median and the highest tail percentile that
// leaves at least ten samples beyond it. It sorts xs in place.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := xs
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 50)
	for _, p := range tailPct {
		if len(sorted)-rank(p, len(sorted)) >= 10 {
			s.TailP = p
			s.Tail = quantile(sorted, p)
			break
		}
	}
	return s
}

func (s summary) String() string {
	return fmt.Sprintf("p50 %.1f, p%g %.1f, n=%d", s.P50, s.TailP, s.Tail, s.N)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// arrival is one party's view of one barrier round: when it called Wait
// and when Wait returned, in nanoseconds since the run's base time.
type arrival struct {
	Call, Ret int64
	OK        bool
}

var (
	errRoundFailed = errors.New("a Wait of the round failed")
	// errEarlyRelease is a broken rendezvous: a party's Wait returned
	// before the last party had even called Wait. The clock is the
	// monotonic one, read before each call and after each return, so a
	// correct barrier can never produce it.
	errEarlyRelease = errors.New("a party left before the last party called Wait")
)

// roundTimes derives the user-visible times of one round from its
// parties' timestamps. The last party is the one that called last; every
// other party is early, and its lateness is its return time minus the
// last party's call time (how long after the rendezvous became possible
// it got going again). The round trip is the last party's own Wait time.
// A failed round or a broken rendezvous yields an error and no samples.
func roundTimes(parties []arrival) (late []float64, rtt float64, err error) {
	if len(parties) == 0 {
		return nil, 0, errRoundFailed
	}
	last := 0
	for i, a := range parties {
		if !a.OK {
			return nil, 0, errRoundFailed
		}
		if a.Call > parties[last].Call {
			last = i
		}
	}
	lc := parties[last].Call
	for i, a := range parties {
		if i == last {
			continue
		}
		if a.Ret < lc {
			return nil, 0, errEarlyRelease
		}
		late = append(late, float64(a.Ret-lc)/1e3)
	}
	return late, float64(parties[last].Ret-lc) / 1e3, nil
}
