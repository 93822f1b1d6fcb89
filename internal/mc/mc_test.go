package mc

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"ahs/internal/san"
	"ahs/internal/sim"
	"ahs/internal/stats"
)

func buildPureDeath(rate float64) (*san.Model, san.PlaceID) {
	b := san.NewBuilder("death")
	alive := b.Place("alive", 1)
	b.Timed(san.TimedActivity{
		Name:    "die",
		Enabled: san.HasTokens(alive, 1),
		Rate:    san.ConstRate(rate),
		Input:   san.Consume(alive, 1),
	})
	return b.MustBuild(), alive
}

func deadIndicator(alive san.PlaceID) func(*san.Marking) float64 {
	return func(mk *san.Marking) float64 {
		if mk.Tokens(alive) == 0 {
			return 1
		}
		return 0
	}
}

func TestEstimateCurveMatchesAnalytic(t *testing.T) {
	const rate = 0.5
	m, alive := buildPureDeath(rate)
	curve, err := EstimateCurve(Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 4},
		Times:      []float64{1, 2, 4},
		Value:      deadIndicator(alive),
		Seed:       1,
		MaxBatches: 40000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if curve.Batches != 40000 {
		t.Fatalf("expected exactly MaxBatches without a stop rule, ran %d", curve.Batches)
	}
	if !curve.Converged {
		t.Fatal("without a stop rule the curve must report Converged")
	}
	for i, tp := range curve.Times {
		want := 1 - math.Exp(-rate*tp)
		se := curve.Intervals[i].HalfWidth() / 1.96
		if math.Abs(curve.Mean[i]-want) > 5*se+1e-9 {
			t.Errorf("S(%v) = %v, want %v (se %v)", tp, curve.Mean[i], want, se)
		}
	}
	if curve.Final() != curve.Mean[len(curve.Mean)-1] || curve.At(0) != curve.Mean[0] {
		t.Fatal("accessors disagree with Mean slice")
	}
}

func TestStopRuleTerminatesEarly(t *testing.T) {
	const rate = 2.0 // common event: converges quickly
	m, alive := buildPureDeath(rate)
	curve, err := EstimateCurve(Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 2},
		Times:      []float64{2},
		Value:      deadIndicator(alive),
		Seed:       2,
		StopRule:   stats.RelativeStopRule{Confidence: 0.95, MaxRelHalfWidth: 0.1, MinSamples: 1000},
		MaxBatches: 1_000_000,
		CheckEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !curve.Converged {
		t.Fatal("expected convergence")
	}
	if curve.Batches >= 100000 {
		t.Fatalf("stop rule failed to end early: %d batches", curve.Batches)
	}
	if curve.Batches < 1000 {
		t.Fatalf("stopped before MinSamples: %d", curve.Batches)
	}
}

func TestWorkerCountDoesNotChangeEstimate(t *testing.T) {
	const rate = 1.0
	m, alive := buildPureDeath(rate)
	base := Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 1},
		Times:      []float64{1},
		Value:      deadIndicator(alive),
		Seed:       3,
		MaxBatches: 5000,
	}
	means := make([]float64, 0, 3)
	for _, workers := range []int{1, 2, 4} {
		job := base
		job.Workers = workers
		curve, err := EstimateCurve(job)
		if err != nil {
			t.Fatal(err)
		}
		means = append(means, curve.Mean[0])
	}
	for i := 1; i < len(means); i++ {
		if means[i] != means[0] {
			t.Fatalf("worker counts produced bit-different estimates: %v", means)
		}
	}
}

func TestImportanceSamplingCurveOnRareEvent(t *testing.T) {
	// P(dead by 1) = 1 - exp(-1e-4) ~ 1e-4: naive MC with 20k batches has
	// ~70% relative error; IS with x2000 bias nails it.
	const rate = 1e-4
	m, alive := buildPureDeath(rate)
	bias := sim.NewBias()
	if err := bias.SetByName(m, "die", 2000); err != nil {
		t.Fatal(err)
	}
	curve, err := EstimateCurve(Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 1, Bias: bias},
		Times:      []float64{0.5, 1},
		Value:      deadIndicator(alive),
		Seed:       4,
		MaxBatches: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range curve.Times {
		want := 1 - math.Exp(-rate*tp)
		rel := math.Abs(curve.Mean[i]-want) / want
		if rel > 0.1 {
			t.Errorf("IS S(%v) = %v, want %v (rel err %v)", tp, curve.Mean[i], want, rel)
		}
	}
}

func TestEstimateAt(t *testing.T) {
	const rate = 1.0
	m, alive := buildPureDeath(rate)
	iv, err := EstimateAt(Job{
		Model:      m,
		Value:      deadIndicator(alive),
		Seed:       5,
		MaxBatches: 20000,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-1.0)
	if iv.Lo > want || want > iv.Hi {
		t.Fatalf("interval %v does not cover %v", iv, want)
	}
}

func TestJobValidation(t *testing.T) {
	m, alive := buildPureDeath(1)
	value := deadIndicator(alive)
	cases := []struct {
		name string
		job  Job
	}{
		{"nil model", Job{Value: value, Times: []float64{1}, Sim: sim.Options{MaxTime: 1}}},
		{"nil value", Job{Model: m, Times: []float64{1}, Sim: sim.Options{MaxTime: 1}}},
		{"empty grid", Job{Model: m, Value: value, Sim: sim.Options{MaxTime: 1}}},
		{"non-increasing grid", Job{Model: m, Value: value, Times: []float64{1, 1}, Sim: sim.Options{MaxTime: 2}}},
		{"horizon short", Job{Model: m, Value: value, Times: []float64{1, 2}, Sim: sim.Options{MaxTime: 1.5}}},
	}
	for _, c := range cases {
		if _, err := EstimateCurve(c.job); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestCurveMonotoneForAbsorbingMeasure(t *testing.T) {
	// First-passage probabilities are non-decreasing in t; within a single
	// estimation run the estimator preserves this path-wise.
	m, alive := buildPureDeath(0.8)
	curve, err := EstimateCurve(Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 5, Stop: func(mk *san.Marking) bool { return mk.Tokens(alive) == 0 }},
		Times:      []float64{1, 2, 3, 4, 5},
		Value:      deadIndicator(alive),
		Seed:       6,
		MaxBatches: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve.Mean); i++ {
		if curve.Mean[i] < curve.Mean[i-1] {
			t.Fatalf("estimated absorbing curve decreases: %v", curve.Mean)
		}
	}
}

func TestEstimateCurveMulti(t *testing.T) {
	const rate = 0.5
	m, alive := buildPureDeath(rate)
	job := Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 2},
		Times:      []float64{1, 2},
		Value:      deadIndicator(alive),
		Seed:       7,
		MaxBatches: 10000,
	}
	aliveIndicator := func(mk *san.Marking) float64 {
		return float64(mk.Tokens(alive))
	}
	main, extras, err := EstimateCurveMulti(job, map[string]func(*san.Marking) float64{
		"alive": aliveIndicator,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(extras) != 1 || extras["alive"] == nil {
		t.Fatalf("extras %v", extras)
	}
	// The two measures partition probability: dead + alive = 1 exactly,
	// batch by batch, hence also in the means.
	for i := range main.Mean {
		sum := main.Mean[i] + extras["alive"].Mean[i]
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("dead+alive = %v at %v", sum, main.Times[i])
		}
	}
	if extras["alive"].Batches != main.Batches {
		t.Fatal("extra curve ran different batches")
	}
}

func TestEstimateCurveMultiNilExtra(t *testing.T) {
	m, alive := buildPureDeath(1)
	job := Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 1},
		Times:      []float64{1},
		Value:      deadIndicator(alive),
		MaxBatches: 10,
	}
	if _, _, err := EstimateCurveMulti(job, map[string]func(*san.Marking) float64{"bad": nil}); err == nil {
		t.Fatal("expected nil-extra error")
	}
}

func TestEstimateCurveMultiMatchesSingle(t *testing.T) {
	// Adding extras must not change the main estimate (same streams).
	m, alive := buildPureDeath(0.7)
	job := Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 3},
		Times:      []float64{3},
		Value:      deadIndicator(alive),
		Seed:       8,
		MaxBatches: 5000,
	}
	single, err := EstimateCurve(job)
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := EstimateCurveMulti(job, map[string]func(*san.Marking) float64{
		"alive": func(mk *san.Marking) float64 { return float64(mk.Tokens(alive)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if single.Mean[0] != multi.Mean[0] {
		t.Fatalf("extras changed the main estimate: %v vs %v", single.Mean[0], multi.Mean[0])
	}
}

func TestCancelledContextStopsEstimationEarly(t *testing.T) {
	m, alive := buildPureDeath(1)
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	job := Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 1},
		Times:      []float64{1},
		Value:      deadIndicator(alive),
		Seed:       10,
		MaxBatches: 50_000_000, // far more than could run in the test budget
		CheckEvery: 100,
		Context:    ctx,
		Progress: func(done, max uint64) {
			calls++
			if calls == 2 {
				cancel()
			}
		},
	}
	start := time.Now()
	curve, err := EstimateCurve(job)
	if curve != nil {
		t.Fatal("cancelled estimation must not return a curve")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v, did not stop early", elapsed)
	}
	if calls < 2 {
		t.Fatalf("progress called %d times before cancellation", calls)
	}
}

func TestPreCancelledContextRunsNoBatches(t *testing.T) {
	m, alive := buildPureDeath(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EstimateCurve(Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 1},
		Times:      []float64{1},
		Value:      deadIndicator(alive),
		MaxBatches: 100,
		Context:    ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDeadlineExceededPropagates(t *testing.T) {
	m, alive := buildPureDeath(1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	_, err := EstimateCurve(Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 1},
		Times:      []float64{1},
		Value:      deadIndicator(alive),
		MaxBatches: 1_000_000,
		CheckEvery: 100,
		Context:    ctx,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestProgressReportsEveryRound(t *testing.T) {
	m, alive := buildPureDeath(1)
	var dones []uint64
	curve, err := EstimateCurve(Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 1},
		Times:      []float64{1},
		Value:      deadIndicator(alive),
		Seed:       11,
		MaxBatches: 1000,
		CheckEvery: 300,
		Progress: func(done, max uint64) {
			if max != 1000 {
				t.Errorf("maxBatches = %d, want 1000", max)
			}
			dones = append(dones, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{300, 600, 900, 1000}
	if len(dones) != len(want) {
		t.Fatalf("progress calls %v, want %v", dones, want)
	}
	for i := range want {
		if dones[i] != want[i] {
			t.Fatalf("progress calls %v, want %v", dones, want)
		}
	}
	if curve.Batches != 1000 {
		t.Fatalf("batches %d", curve.Batches)
	}
}
