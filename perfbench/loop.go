package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loopStats is what one closed loop measured.
type loopStats struct {
	Latency           []float64 // milliseconds, one per successful operation
	Done              []float64 // seconds from the loop's start to each one's end
	Attempted, Failed int
	JobsPerS          float64 // summed over clients: successes per busy second
}

// opFunc performs operation seq for a client and returns the time it took;
// an operation may exclude its own preparation from that time.
type opFunc func(client, seq int) (time.Duration, error)

// closedLoop runs clients goroutines, each starting its next operation only
// when the previous one returned, until dur has passed and a whole number
// of passes of unit operations has started. Operation numbers are shared
// across clients. The first few errors are written to log.
func closedLoop(clients int, dur time.Duration, unit int, log io.Writer, op opFunc) loopStats {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		st      loopStats
		errsOut int
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat, done []float64
			var busy time.Duration
			attempted, failed := 0, 0
			for {
				seq := int(next.Add(1) - 1)
				if seq >= unit && seq%unit == 0 && time.Since(start) >= dur {
					break
				}
				attempted++
				d, err := op(c, seq)
				if err != nil {
					failed++
					mu.Lock()
					if errsOut < 5 {
						fmt.Fprintf(log, "error op %d: %v\n", seq, err)
						errsOut++
					}
					mu.Unlock()
					continue
				}
				lat = append(lat, ms(d))
				done = append(done, time.Since(start).Seconds())
				busy += d
			}
			mu.Lock()
			st.Latency = append(st.Latency, lat...)
			st.Done = append(st.Done, done...)
			st.Attempted += attempted
			st.Failed += failed
			if busy > 0 {
				st.JobsPerS += float64(len(lat)) / busy.Seconds()
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return st
}

// forEach calls fn for every index in [0, n) on procs goroutines, striped,
// and returns when all calls have.
func forEach(n, procs int, fn func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += procs {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// repeatSetup runs set-up reps times, closing every instance but the last,
// and returns the last with each set-up's duration in seconds.
func repeatSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	return last, times, nil
}

// timedPhases runs the loop for cfg.Duration in whole passes of unit
// operations. A traced run instead runs two phases, half of it untraced
// and then half with the recorder on, one operation at least in each.
func timedPhases(cfg runConfig, rec *recorder, clients, unit int, op func(traced bool) opFunc) []loopStats {
	if !cfg.Traced {
		return []loopStats{closedLoop(clients, cfg.Duration, unit, cfg.Log, op(false))}
	}
	half := cfg.Duration / 2
	plain := closedLoop(clients, half, 1, cfg.Log, op(false))
	rec.enable(true)
	traced := closedLoop(clients, half, 1, cfg.Log, op(true))
	rec.enable(false)
	return []loopStats{plain, traced}
}

// fold turns the phases into the outcome's counts and latencies: those of
// the single phase of an untraced run, and of both phases of a traced one,
// with the tracing overhead as a layer metric.
func fold(out *outcome, phases []loopStats) {
	for _, p := range phases {
		out.Attempted += p.Attempted
		out.Failed += p.Failed
	}
	out.Latency, out.Done, out.JobsPerS = phases[0].Latency, phases[0].Done, phases[0].JobsPerS
	if len(phases) == 2 {
		// Both halves start from the same inputs, so with one client the
		// i-th operations of the two halves did the same work.
		plain, traced := phases[0].Latency, phases[1].Latency
		diffs := make([]float64, min(len(plain), len(traced)))
		for i := range diffs {
			diffs[i] = traced[i] - plain[i]
		}
		out.Layers["trace.overhead_ms"] = median(diffs)
	}
}

// A run with at least minGroups groups of groupSize operations is
// summarised group by group: consecutive operations in completion order
// form a group, and the run reports the median over groups of each
// group's statistic. A stretch of the run slowed by the host's other
// load then moves a minority of the groups instead of the whole run.
const (
	groupSize = 1000
	minGroups = 10
)

// grouped returns each group's median and p90 latency and its throughput
// in operations per second, skipping the first group, whose start the
// completions do not show. ok is false for runs with too few operations.
func grouped(lat, done []float64) (p50, p90, rate []float64, ok bool) {
	n := len(lat) / groupSize
	if n < minGroups+1 {
		return nil, nil, nil, false
	}
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return done[idx[a]] < done[idx[b]] })
	for g := 1; g < n; g++ {
		group := make([]float64, groupSize)
		for i := range group {
			group[i] = lat[idx[g*groupSize+i]]
		}
		span := done[idx[(g+1)*groupSize-1]] - done[idx[g*groupSize-1]]
		p50 = append(p50, percentile(group, 50))
		p90 = append(p90, percentile(group, 90))
		rate = append(rate, groupSize/span)
	}
	return p50, p90, rate, true
}
