package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"ahs/internal/config"
	"ahs/internal/core"
	"ahs/internal/mc"
	"ahs/internal/stats"
)

// paperSeeds are the Monte-Carlo seeds of the curve workloads. An untraced
// run evaluates all of them the same number of times, in an order drawn
// from the workload seed: at the benchmark's budget one curve takes
// 1.8–2.6 s and its relative half-width at 10 h ranges 0.44–0.75 from seed
// to seed, so a run over a seed-dependent subset would report
// seed-dependent times and a seed-dependent time_to_paper_ci_s.
var paperSeeds = []uint64{1, 2, 3, 4, 5}

// paperScenario is the paper's §4.1 configuration — DD, n=10,
// λ=1e-5/hr, trips of 2–10 h — with importance sampling at
// SuggestedFailureBias(10), which the scenario's defaults select.
func paperScenario(batches, seed uint64) *config.Scenario {
	return &config.Scenario{
		N:             10,
		LambdaPerHour: 1e-5,
		Strategy:      "DD",
		TripHours:     []float64{2, 4, 6, 8, 10},
		Batches:       batches,
		Seed:          seed,
	}
}

// refCurve is one committed curve: the direct path's estimate for a seed.
type refCurve struct {
	Seed uint64    `json:"seed"`
	Mean []float64 `json:"mean"`
	Lo   []float64 `json:"lo"`
	Hi   []float64 `json:"hi"`
}

// reference holds the committed paper-curve outputs the benchmark checks
// against, one per paperSeeds entry.
type reference struct {
	Batches uint64     `json:"batches"`
	Times   []float64  `json:"times"`
	Curves  []refCurve `json:"curves"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// buildReference evaluates every paper seed through the direct path.
func buildReference(batches uint64) (*reference, error) {
	ref := &reference{Batches: batches}
	for _, seed := range paperSeeds {
		sc := paperScenario(batches, seed)
		curve, err := directCurve(sc, runtime.NumCPU(), nil, 0)
		if err != nil {
			return nil, err
		}
		ref.Times = curve.Times
		rc := refCurve{Seed: seed, Mean: curve.Mean}
		for _, iv := range curve.Intervals {
			rc.Lo = append(rc.Lo, iv.Lo)
			rc.Hi = append(rc.Hi, iv.Hi)
		}
		ref.Curves = append(ref.Curves, rc)
	}
	return ref, nil
}

func writeReference(path string, batches uint64) error {
	ref, err := buildReference(batches)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// directCurve is the paper-curve operation: core.Build followed by
// UnsafetyCurve on the scenario's evaluation options. With a recording
// recorder it adds a core.build span and one mc.round span per Progress
// callback under parent.
func directCurve(sc *config.Scenario, workers int, rec *recorder, parent uint64) (*mc.Curve, error) {
	p, err := sc.Params()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sys, err := core.Build(p)
	if err != nil {
		return nil, err
	}
	built := time.Now()
	rec.record(0, parent, "core.build", start, built)
	opts := sc.EvalOptions(sys)
	opts.Workers = workers
	if rec.enabled() {
		opts.Progress = roundSpans(rec, parent, built)
	}
	return sys.UnsafetyCurve(opts)
}

// roundSpans returns a Progress callback recording an mc.round span for the
// interval since the previous callback, the first starting at from.
func roundSpans(rec *recorder, parent uint64, from time.Time) func(done, max uint64) {
	last := from
	return func(done, max uint64) {
		now := time.Now()
		rec.record(0, parent, "mc.round", last, now)
		last = now
	}
}

// check compares a curve with the reference for its seed. Every point must
// lie inside the reference's 95% interval; the count of points whose
// estimate is bit-identical to the reference's is returned alongside.
func (r *reference) check(seed uint64, c *mc.Curve) (identical int, err error) {
	var rc *refCurve
	for i := range r.Curves {
		if r.Curves[i].Seed == seed {
			rc = &r.Curves[i]
		}
	}
	if rc == nil || c.Batches != r.Batches || len(c.Mean) != len(rc.Mean) {
		return 0, fmt.Errorf("no reference for seed %d at %d batches", seed, c.Batches)
	}
	for i, m := range c.Mean {
		if math.Float64bits(m) == math.Float64bits(rc.Mean[i]) {
			identical++
		}
		if !(m >= rc.Lo[i] && m <= rc.Hi[i]) {
			err = fmt.Errorf("seed %d: S(%gh)=%g outside reference interval [%g, %g]", seed, c.Times[i], m, rc.Lo[i], rc.Hi[i])
		}
	}
	return identical, err
}

// sameBits reports whether two curves are bit-identical in every estimate
// and interval bound.
func sameBits(a, b *mc.Curve) bool {
	if a.Batches != b.Batches || len(a.Mean) != len(b.Mean) {
		return false
	}
	for i := range a.Mean {
		if math.Float64bits(a.Mean[i]) != math.Float64bits(b.Mean[i]) ||
			math.Float64bits(a.Intervals[i].Lo) != math.Float64bits(b.Intervals[i].Lo) ||
			math.Float64bits(a.Intervals[i].Hi) != math.Float64bits(b.Intervals[i].Hi) {
			return false
		}
	}
	return true
}

// pooledRelHalfWidth pools equal-budget curves of distinct seeds at grid
// point i into one sample and returns the relative half-width that sample's
// variance implies for a single curve of the same budget. Each curve's
// per-batch variance is recovered from its 95% interval.
func pooledRelHalfWidth(curves []*mc.Curve, i int) float64 {
	z := stats.NormalQuantile(0.975)
	var n, sum float64
	for _, c := range curves {
		b := float64(c.Batches)
		n += b
		sum += b * c.Mean[i]
	}
	if n < 2 || sum == 0 {
		return math.Inf(1)
	}
	mean := sum / n
	var ss float64
	for _, c := range curves {
		b := float64(c.Batches)
		sd := c.Intervals[i].HalfWidth() / z * math.Sqrt(b)
		d := c.Mean[i] - mean
		ss += (b-1)*sd*sd + b*d*d
	}
	perCurve := n / float64(len(curves))
	return z * math.Sqrt(ss/(n-1)/perCurve) / mean
}
