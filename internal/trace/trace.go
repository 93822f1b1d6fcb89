// Package trace analyses recorded simulation trajectories: activity
// frequencies, empirical firing rates, and collapsing of replica-scoped
// activity names ("one_vehicle[3].L2" → "L2") so that per-vehicle activity
// replicas aggregate naturally.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ahs/internal/sim"
	"ahs/internal/stats"
)

// CollapseName strips scope prefixes (everything up to the last '.') and
// replica indices from an activity name, so replicated activities aggregate
// under one label: "one_vehicle[3].L2" → "L2", "dynamicity.join" → "join".
// A trailing replica index on the remaining segment is removed too —
// "transit_exit[12]" → "transit_exit" — so replicas whose activity sits
// directly in the replicated scope (no inner name) still aggregate.
func CollapseName(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	if j := strings.IndexByte(name, '['); j > 0 && strings.HasSuffix(name, "]") {
		if idx := name[j+1 : len(name)-1]; isAllDigits(idx) {
			name = name[:j]
		}
	}
	return name
}

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// Summary aggregates one or more trajectories.
type Summary struct {
	// Events is the total number of recorded completions.
	Events uint64
	// Duration is the total observed simulation time.
	Duration float64
	// Trajectories counts the merged trajectories.
	Trajectories uint64
	// Counts maps (possibly collapsed) activity labels to completions.
	Counts map[string]uint64

	// rateAccs holds per-label Welford accumulators over per-trajectory
	// empirical rates, the basis of RateInterval's confidence intervals.
	// Labels absent from a trajectory contribute a zero rate; the zeros
	// are backfilled lazily (see acc) so Merge stays O(events).
	rateAccs map[string]*stats.Welford
}

// Summarize aggregates the events of one trajectory observed for the given
// duration. With collapse, replica-scoped names are merged.
func Summarize(events []sim.TraceEvent, duration float64, collapse bool) *Summary {
	s := &Summary{Counts: make(map[string]uint64)}
	s.Merge(events, duration, collapse)
	return s
}

// Merge folds another trajectory into the summary.
func (s *Summary) Merge(events []sim.TraceEvent, duration float64, collapse bool) {
	s.Trajectories++
	s.Events += uint64(len(events))
	s.Duration += duration
	local := make(map[string]uint64, len(s.Counts))
	for _, ev := range events {
		name := ev.Activity
		if collapse {
			name = CollapseName(name)
		}
		s.Counts[name]++
		local[name]++
	}
	for label, n := range local {
		rate := 0.0
		if duration > 0 {
			rate = float64(n) / duration
		}
		s.acc(label, s.Trajectories-1).Add(rate)
	}
}

// acc returns the label's rate accumulator, backfilled with zero-rate
// observations up to upTo trajectories (for trajectories merged before the
// label first appeared, or while it was absent).
func (s *Summary) acc(label string, upTo uint64) *stats.Welford {
	if s.rateAccs == nil {
		s.rateAccs = make(map[string]*stats.Welford)
	}
	w := s.rateAccs[label]
	if w == nil {
		w = &stats.Welford{}
		s.rateAccs[label] = w
	}
	if n := w.N(); n < upTo {
		w.AddN(0, upTo-n)
	}
	return w
}

// Rate returns the aggregate empirical firing rate (total completions per
// total observed time) of a label, 0 when no time was observed.
func (s *Summary) Rate(label string) float64 {
	if s.Duration == 0 {
		return 0
	}
	return float64(s.Counts[label]) / s.Duration
}

// RateInterval returns the label's empirical firing rate with a two-sided
// confidence interval. With at least two merged trajectories the interval
// is the Student-t CI over the per-trajectory rates (zero for trajectories
// where the label never fired), which captures the true cross-trajectory
// variability. With a single trajectory it falls back to the Poisson normal
// approximation k/T ± z·√k/T. Unknown labels yield a zero-point interval.
func (s *Summary) RateInterval(label string, confidence float64) stats.Interval {
	if s.Trajectories >= 2 {
		return s.acc(label, s.Trajectories).CI(confidence)
	}
	iv := stats.Interval{Confidence: confidence, N: s.Trajectories}
	if s.Duration == 0 {
		return iv
	}
	k := float64(s.Counts[label])
	iv.Point = k / s.Duration
	z := stats.NormalQuantile(0.5 + confidence/2)
	h := z * math.Sqrt(k) / s.Duration
	iv.Lo, iv.Hi = iv.Point-h, iv.Point+h
	return iv
}

// Row is one line of a rendered summary.
type Row struct {
	Label string
	Count uint64
	Rate  float64
	// CI bounds the empirical rate (95%); see RateInterval.
	CI stats.Interval
}

// Rows returns the activity rows sorted by descending count (ties broken
// alphabetically, so output is deterministic).
func (s *Summary) Rows() []Row {
	rows := make([]Row, 0, len(s.Counts))
	for label, count := range s.Counts {
		rows = append(rows, Row{
			Label: label,
			Count: count,
			Rate:  s.Rate(label),
			CI:    s.RateInterval(label, 0.95),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Label < rows[j].Label
	})
	return rows
}

// String renders the summary as a compact table.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d events over %.4g time units (%d trajectories)\n",
		s.Events, s.Duration, s.Trajectories)
	for _, row := range s.Rows() {
		fmt.Fprintf(&b, "  %-24s %8d  (%.4g /unit, 95%% CI [%.4g, %.4g])\n",
			row.Label, row.Count, row.Rate, row.CI.Lo, row.CI.Hi)
	}
	return b.String()
}
