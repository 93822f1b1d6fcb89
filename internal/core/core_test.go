package core

import (
	"math"
	"strings"
	"testing"

	"ahs/internal/ctmc"
	"ahs/internal/mc"
	"ahs/internal/platoon"
	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/sim"
)

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.N != 10 || p.Lambda != 1e-5 || p.JoinRate != 12 || p.LeaveRate != 4 || p.ChangeRate != 6 {
		t.Fatalf("defaults do not match §4.1: %+v", p)
	}
	for _, m := range platoon.AllManeuvers() {
		r := p.ManeuverRates[m]
		if r < 15 || r > 30 {
			t.Errorf("maneuver rate for %v = %v outside the paper's 15-30/hr", m, r)
		}
	}
	if p.Strategy != platoon.DD {
		t.Error("default strategy must be DD (the paper's base case)")
	}
}

func TestParamsValidation(t *testing.T) {
	mutate := func(f func(*Params)) Params {
		p := DefaultParams()
		f(&p)
		return p
	}
	bad := map[string]Params{
		"zero N":            mutate(func(p *Params) { p.N = 0 }),
		"zero lambda":       mutate(func(p *Params) { p.Lambda = 0 }),
		"negative lambda":   mutate(func(p *Params) { p.Lambda = -1 }),
		"zero man rate":     mutate(func(p *Params) { p.ManeuverRates[platoon.AS] = 0 }),
		"negative join":     mutate(func(p *Params) { p.JoinRate = -1 }),
		"no passthrough":    mutate(func(p *Params) { p.PassThroughRate = 0 }),
		"base failure >= 1": mutate(func(p *Params) { p.ManeuverBaseFailure = 1 }),
		"participant q":     mutate(func(p *Params) { p.ParticipantFailure = 1 }),
		"penalty > 1":       mutate(func(p *Params) { p.DegradedPenalty = 1.5 }),
		"no strategy":       mutate(func(p *Params) { p.Strategy = platoon.Strategy{} }),
	}
	for name, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
		if _, err := Build(p); err == nil {
			t.Errorf("%s: Build must reject invalid params", name)
		}
	}
	// Zero dynamicity rates are allowed (reduced models).
	p := DefaultParams()
	p.JoinRate, p.LeaveRate, p.ChangeRate = 0, 0, 0
	if err := p.Validate(); err != nil {
		t.Fatalf("static configuration must validate: %v", err)
	}
}

func TestLoad(t *testing.T) {
	p := DefaultParams()
	if p.Load() != 3 {
		t.Fatalf("load %v, want 12/4 = 3", p.Load())
	}
	p.LeaveRate = 0
	if p.Load() != 0 {
		t.Fatal("load with zero leave rate must be 0")
	}
}

func TestBuildStructure(t *testing.T) {
	a := MustBuild(DefaultParams())
	slots := 2 * a.Params.N
	if a.Slots() != slots {
		t.Fatalf("slots %d, want %d", a.Slots(), slots)
	}
	// Per vehicle: 6 failure modes + 1 maneuver + 1 transit exit.
	// Global: join, leave1, leave2, ch1, ch2.
	wantTimed := slots*8 + 5
	if got := a.Model.NumTimed(); got != wantTimed {
		t.Fatalf("timed activities %d, want %d", got, wantTimed)
	}
	if got := a.Model.NumInstant(); got != 1 {
		t.Fatalf("instant activities %d, want 1 (to_KO)", got)
	}
	if len(a.failureActivities) != slots*6 {
		t.Fatalf("failure activity registry has %d entries, want %d", len(a.failureActivities), slots*6)
	}
	for _, name := range a.failureActivities {
		if a.Model.TimedIndex(name) < 0 {
			t.Fatalf("registered failure activity %q missing from model", name)
		}
	}
}

func TestBuildStaticConfigurationOmitsDynamics(t *testing.T) {
	p := DefaultParams()
	p.JoinRate, p.LeaveRate, p.ChangeRate = 0, 0, 0
	a := MustBuild(p)
	wantTimed := 2 * p.N * 7 // only failures + maneuvers
	if got := a.Model.NumTimed(); got != wantTimed {
		t.Fatalf("static model has %d timed activities, want %d", got, wantTimed)
	}
	for _, name := range []string{"dynamicity.join", "dynamicity.leave1", "dynamicity.ch1"} {
		if a.Model.TimedIndex(name) >= 0 {
			t.Errorf("static model must not contain %q", name)
		}
	}
}

func TestInitialMarking(t *testing.T) {
	a := MustBuild(DefaultParams())
	mk := a.Model.InitialMarking()
	sizes := a.LaneSizes(mk)
	if len(sizes) != 2 || sizes[0] != 10 || sizes[1] != 10 {
		t.Fatalf("initial platoon sizes %v", sizes)
	}
	if a.VehiclesInSystem(mk) != 20 {
		t.Fatalf("initial vehicles %d", a.VehiclesInSystem(mk))
	}
	nA, nB, nC := a.ActiveFailures(mk)
	if nA+nB+nC != 0 {
		t.Fatal("initial severity counters must be zero")
	}
	if a.Unsafe(mk) || a.UnsafetyIndicator(mk) != 0 {
		t.Fatal("initial marking must be safe")
	}
	if vOK, vKO, ok := a.Outcomes(mk); !ok || vOK != 0 || vKO != 0 {
		t.Fatal("initial outcome counters must be zero")
	}
	view := a.View(mk)
	if l, _ := view.Leader(0); l != 0 {
		t.Fatalf("platoon 1 leader %d, want vehicle 0", l)
	}
	if l, _ := view.Leader(1); l != 10 {
		t.Fatalf("platoon 2 leader %d, want vehicle 10", l)
	}
	if err := a.CheckInvariants(mk); err != nil {
		t.Fatal(err)
	}
}

// invariantObserver fails the test on the first invariant violation.
type invariantObserver struct {
	t   *testing.T
	a   *AHS
	err error
}

func (o *invariantObserver) OnEvent(tm float64, activity string, mk *san.Marking) {
	if o.err != nil {
		return
	}
	if err := o.a.CheckInvariants(mk); err != nil {
		o.err = err
		o.t.Errorf("invariant violated at t=%v after %q: %v", tm, activity, err)
	}
}

func TestInvariantsPreservedAlongTrajectories(t *testing.T) {
	// Hammer the model with very unreliable vehicles and check every
	// reachable marking. No Stop predicate: the dynamics keep running
	// after KO_total, which must stay consistent too.
	p := DefaultParams()
	p.N = 4
	p.Lambda = 0.1
	a := MustBuild(p)
	obs := &invariantObserver{t: t, a: a}
	r, err := sim.NewRunner(a.Model, sim.Options{MaxTime: 30, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(7)
	for i := 0; i < 300; i++ {
		if _, err := r.Run(src.Stream(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if obs.err != nil {
			t.Fatalf("stopped after first violation (seed %d)", i)
		}
	}
}

func TestInvariantsWithAllStrategies(t *testing.T) {
	for _, s := range platoon.AllStrategies() {
		p := DefaultParams()
		p.N = 3
		p.Lambda = 0.2
		p.Strategy = s
		a := MustBuild(p)
		obs := &invariantObserver{t: t, a: a}
		r, err := sim.NewRunner(a.Model, sim.Options{MaxTime: 20, Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		src := rng.NewSource(11)
		for i := 0; i < 100; i++ {
			if _, err := r.Run(src.Stream(uint64(i))); err != nil {
				t.Fatalf("strategy %v: %v", s, err)
			}
		}
		if obs.err != nil {
			t.Fatalf("strategy %v: invariant violation", s)
		}
	}
}

func TestOutcomesAccumulate(t *testing.T) {
	p := DefaultParams()
	p.N = 4
	p.Lambda = 0.2
	a := MustBuild(p)
	r, err := sim.NewRunner(a.Model, sim.Options{MaxTime: 50})
	if err != nil {
		t.Fatal(err)
	}
	probe := &sim.Probe{
		Times: []float64{50},
		Value: func(mk *san.Marking) float64 {
			vOK, _, _ := a.Outcomes(mk)
			return float64(vOK)
		},
	}
	if _, err := r.Run(rng.NewStream(3), probe); err != nil {
		t.Fatal(err)
	}
	if probe.Values[0] == 0 {
		t.Fatal("expected some successful maneuver exits (v_OK) at this failure rate")
	}
}

func TestOutcomesDisabled(t *testing.T) {
	p := DefaultParams()
	p.TrackOutcomes = false
	a := MustBuild(p)
	if _, _, ok := a.Outcomes(a.Model.InitialMarking()); ok {
		t.Fatal("Outcomes must report ok=false when tracking is disabled")
	}
}

func TestUnsafetyCurveMonotone(t *testing.T) {
	p := DefaultParams()
	p.Lambda = 0.01
	a := MustBuild(p)
	curve, err := a.UnsafetyCurve(EvalOptions{
		Times:      []float64{2, 4, 6, 8, 10},
		Seed:       1,
		MaxBatches: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve.Mean); i++ {
		if curve.Mean[i] < curve.Mean[i-1] {
			t.Fatalf("S(t) not monotone: %v", curve.Mean)
		}
	}
	if curve.Final() <= 0 {
		t.Fatal("expected positive unsafety at lambda=0.01")
	}
}

func TestUnsafetyIncreasesWithLambda(t *testing.T) {
	run := func(lambda float64) float64 {
		p := DefaultParams()
		p.Lambda = lambda
		a := MustBuild(p)
		iv, err := a.Unsafety(6, EvalOptions{Seed: 2, MaxBatches: 4000})
		if err != nil {
			t.Fatal(err)
		}
		return iv.Point
	}
	low, high := run(0.003), run(0.03)
	if !(high > 3*low) {
		t.Fatalf("S(6h) at lambda=0.03 (%v) not clearly above lambda=0.003 (%v)", high, low)
	}
}

func TestUnsafetyIncreasesWithN(t *testing.T) {
	run := func(n int) float64 {
		p := DefaultParams()
		p.N = n
		p.Lambda = 0.01
		a := MustBuild(p)
		iv, err := a.Unsafety(6, EvalOptions{Seed: 3, MaxBatches: 4000})
		if err != nil {
			t.Fatal(err)
		}
		return iv.Point
	}
	small, large := run(4), run(14)
	if !(large > 1.5*small) {
		t.Fatalf("S(6h) with n=14 (%v) not clearly above n=4 (%v)", large, small)
	}
}

func TestCentralizedCoordinationLessSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy Monte-Carlo statistical check; skipped under -short (race CI)")
	}
	// Amplified regime: any degraded participant dooms a maneuver.
	run := func(s platoon.Strategy) float64 {
		p := DefaultParams()
		p.Lambda = 0.02
		p.ParticipantFailure = 0.1
		p.DegradedPenalty = 0
		p.Strategy = s
		a := MustBuild(p)
		iv, err := a.Unsafety(10, EvalOptions{Seed: 4, MaxBatches: 8000})
		if err != nil {
			t.Fatal(err)
		}
		return iv.Point
	}
	dd, cc := run(platoon.DD), run(platoon.CC)
	if !(cc > dd) {
		t.Fatalf("CC unsafety %v not above DD %v", cc, dd)
	}
}

func TestImportanceSamplingAgreesWithNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy Monte-Carlo statistical check; skipped under -short (race CI)")
	}
	p := DefaultParams()
	p.Lambda = 1e-3
	a := MustBuild(p)
	naive, err := a.Unsafety(10, EvalOptions{Seed: 5, MaxBatches: 60000})
	if err != nil {
		t.Fatal(err)
	}
	biased, err := a.Unsafety(10, EvalOptions{
		Seed:        6,
		MaxBatches:  20000,
		FailureBias: a.SuggestedFailureBias(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Point <= 0 {
		t.Fatalf("naive estimate empty: %v", naive)
	}
	gap := math.Abs(naive.Point - biased.Point)
	combined := naive.HalfWidth() + biased.HalfWidth()
	if gap > 2*combined {
		t.Fatalf("naive %v and IS %v disagree", naive, biased)
	}
}

func TestSuggestedFailureBias(t *testing.T) {
	a := MustBuild(DefaultParams())
	b10 := a.SuggestedFailureBias(10)
	b2 := a.SuggestedFailureBias(2)
	if b10 < 1 || b2 < 1 {
		t.Fatal("bias must be at least 1")
	}
	if !(b2 > b10) {
		t.Fatal("shorter horizon needs a stronger bias")
	}
	// At the default λ=1e-5 the factor must be substantial.
	if b10 < 50 {
		t.Fatalf("bias %v suspiciously small for lambda=1e-5", b10)
	}
	// High λ: no forcing needed.
	p := DefaultParams()
	p.Lambda = 0.05
	if got := MustBuild(p).SuggestedFailureBias(10); got != 1 {
		t.Fatalf("bias %v, want 1 at high lambda", got)
	}
}

func TestUnsafetyCurveValidation(t *testing.T) {
	a := MustBuild(DefaultParams())
	if _, err := a.UnsafetyCurve(EvalOptions{}); err == nil {
		t.Fatal("expected error for empty time grid")
	}
	if _, err := a.UnsafetyCurve(EvalOptions{Times: []float64{5, 1}}); err == nil {
		t.Fatal("expected error for unsorted grid")
	}
}

// TestExactCTMCCrossCheck is the end-to-end correctness anchor for the AHS
// model: on a reduced configuration (one vehicle per platoon, no
// dynamicity) the simulator's unsafety estimate must match the exact
// transient solution of the underlying CTMC.
func TestExactCTMCCrossCheck(t *testing.T) {
	p := DefaultParams()
	p.N = 1
	p.Lambda = 0.02
	p.JoinRate, p.LeaveRate, p.ChangeRate = 0, 0, 0
	p.TrackOutcomes = false
	a := MustBuild(p)

	g, err := ctmc.Explore(a.Model, ctmc.ExploreOptions{Absorb: a.Unsafe, MaxStates: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckGeneratorConsistency(); err != nil {
		t.Fatal(err)
	}
	const horizon = 8.0
	exact, err := g.TransientProbability(horizon, a.Unsafe)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= 0 {
		t.Fatalf("exact unsafety %v must be positive at lambda=0.02", exact)
	}

	iv, err := a.Unsafety(horizon, EvalOptions{Seed: 9, MaxBatches: 60000})
	if err != nil {
		t.Fatal(err)
	}
	se := iv.HalfWidth() / 1.96
	if math.Abs(iv.Point-exact) > 5*se+1e-12 {
		t.Fatalf("simulated %v vs exact %v (se %v)", iv.Point, exact, se)
	}
}

// TestExactCTMCCrossCheckRareEvent validates the importance-sampling
// estimator with the horizon-calibrated forcing factor against the exact
// solution at a failure rate where naive simulation would need millions of
// batches.
func TestExactCTMCCrossCheckRareEvent(t *testing.T) {
	p := DefaultParams()
	p.N = 1
	p.Lambda = 1e-3
	p.JoinRate, p.LeaveRate, p.ChangeRate = 0, 0, 0
	p.TrackOutcomes = false
	a := MustBuild(p)

	g, err := ctmc.Explore(a.Model, ctmc.ExploreOptions{Absorb: a.Unsafe, MaxStates: 50000})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 8.0
	exact, err := g.TransientProbability(horizon, a.Unsafe)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := a.Unsafety(horizon, EvalOptions{
		Seed:        9,
		MaxBatches:  60000,
		FailureBias: a.SuggestedFailureBias(horizon),
	})
	if err != nil {
		t.Fatal(err)
	}
	se := iv.HalfWidth() / 1.96
	if math.Abs(iv.Point-exact) > 5*se+1e-12 {
		t.Fatalf("simulated %v vs exact %v (se %v)", iv.Point, exact, se)
	}
	// The IS estimate at a ~5e-5 measure must actually be tight.
	if iv.RelativeHalfWidth() > 0.5 {
		t.Fatalf("IS interval too loose: %v", iv)
	}
}

func TestExactCTMCCrossCheckWithDynamics(t *testing.T) {
	// Small configuration with joins/leaves enabled: checks the
	// Dynamicity submodel against the exact solution too.
	p := DefaultParams()
	p.N = 1
	p.Lambda = 2e-3
	p.JoinRate, p.LeaveRate, p.ChangeRate = 6, 2, 3
	p.TrackOutcomes = false
	a := MustBuild(p)

	g, err := ctmc.Explore(a.Model, ctmc.ExploreOptions{Absorb: a.Unsafe, MaxStates: 400000})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 5.0
	exact, err := g.TransientProbability(horizon, a.Unsafe)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := a.Unsafety(horizon, EvalOptions{
		Seed:        10,
		MaxBatches:  60000,
		FailureBias: a.SuggestedFailureBias(horizon),
	})
	if err != nil {
		t.Fatal(err)
	}
	se := iv.HalfWidth() / 1.96
	if math.Abs(iv.Point-exact) > 5*se+1e-12 {
		t.Fatalf("simulated %v vs exact %v (se %v)", iv.Point, exact, se)
	}
}

func TestModelNameEncodesConfiguration(t *testing.T) {
	p := DefaultParams()
	p.Strategy = platoon.CD
	a := MustBuild(p)
	if !strings.Contains(a.Model.Name(), "CD") || !strings.Contains(a.Model.Name(), "n=10") {
		t.Fatalf("model name %q should encode n and strategy", a.Model.Name())
	}
}

func TestFailureAndManeuverStateTransitions(t *testing.T) {
	// White-box check of the escalation mechanics on a hand-driven marking.
	p := DefaultParams()
	p.N = 2
	a := MustBuild(p)
	mk := a.Model.InitialMarking()

	// Vehicle 1 suffers FM6 (class C): governed by TIE-N.
	a.applyFailure(mk, 1, platoon.FM6)
	if a.FailureMode(mk, 1) != platoon.FM6 || a.ActiveManeuver(mk, 1) != platoon.TIEN {
		t.Fatalf("after FM6: fm=%v man=%v", a.FailureMode(mk, 1), a.ActiveManeuver(mk, 1))
	}
	nA, nB, nC := a.ActiveFailures(mk)
	if nA != 0 || nB != 0 || nC != 1 {
		t.Fatalf("counters %d/%d/%d after one class C failure", nA, nB, nC)
	}

	// Vehicle 2 suffers FM3 (class A1 -> GS). Vehicle 1's pending request
	// is not retroactively changed.
	a.applyFailure(mk, 2, platoon.FM3)
	if a.ActiveManeuver(mk, 2) != platoon.GS {
		t.Fatalf("vehicle 2 maneuver %v, want GS", a.ActiveManeuver(mk, 2))
	}

	// Vehicle 3 now suffers FM6; the refusal rule escalates its requested
	// maneuver to at least GS's priority level, but the failure mode — and
	// hence its severity class — stays FM6/class C.
	a.applyFailure(mk, 3, platoon.FM6)
	if got := a.ActiveManeuver(mk, 3); got.PriorityLevel() < platoon.GS.PriorityLevel() {
		t.Fatalf("refusal rule did not escalate vehicle 3's maneuver: %v", got)
	}
	if a.FailureMode(mk, 3) != platoon.FM6 {
		t.Fatalf("refusal must not change the failure mode, got %v", a.FailureMode(mk, 3))
	}
	if nA, _, nC := a.ActiveFailures(mk); nA != 1 || nC != 2 {
		t.Fatalf("counters A=%d C=%d; refusal escalation must not add class A", nA, nC)
	}

	// Maneuver failure escalates along the chain of Figure 2.
	before := a.FailureMode(mk, 2)
	a.escalateAfterFailure(mk, 2)
	after := a.FailureMode(mk, 2)
	wantNext, _ := before.Escalate()
	if after != wantNext {
		t.Fatalf("escalation %v -> %v, want %v", before, after, wantNext)
	}

	// Drive vehicle 2 to FM1 and fail its Aided Stop: v_KO, free agent.
	for a.FailureMode(mk, 2) != platoon.FM1 {
		a.escalateAfterFailure(mk, 2)
	}
	a.escalateAfterFailure(mk, 2)
	if a.FailureMode(mk, 2) != 0 || mk.Tokens(a.inSys[2]) != 0 {
		t.Fatal("AS failure must remove the vehicle as a free agent")
	}
	if _, vKO, _ := a.Outcomes(mk); vKO != 1 {
		t.Fatalf("v_KO counter %d, want 1", vKO)
	}
	if err := a.CheckInvariants(mk); err != nil {
		t.Fatal(err)
	}
}

func TestManeuverSuccessProbability(t *testing.T) {
	p := DefaultParams()
	p.N = 3
	p.ManeuverBaseFailure = 0.1
	p.ParticipantFailure = 0
	p.DegradedPenalty = 0.5
	a := MustBuild(p)
	mk := a.Model.InitialMarking()

	// Vehicle 1 degraded, all neighbours healthy: success = 1 - base.
	a.applyFailure(mk, 1, platoon.FM5) // TIE: participants 0 (ahead) and 2 (behind)
	if got := a.maneuverSuccessProb(mk, 1); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("success prob %v, want 0.9", got)
	}
	// Degrade the vehicle behind: one degraded participant halves it.
	a.applyFailure(mk, 2, platoon.FM6)
	if got := a.maneuverSuccessProb(mk, 1); math.Abs(got-0.45) > 1e-12 {
		t.Fatalf("success prob %v, want 0.45", got)
	}
	// Degrade the vehicle ahead too.
	a.applyFailure(mk, 0, platoon.FM6)
	if got := a.maneuverSuccessProb(mk, 1); math.Abs(got-0.225) > 1e-12 {
		t.Fatalf("success prob %v, want 0.225", got)
	}
}

func TestManeuverSuccessParticipantFailure(t *testing.T) {
	p := DefaultParams()
	p.N = 3
	p.ManeuverBaseFailure = 0
	p.ParticipantFailure = 0.1
	p.DegradedPenalty = 1
	a := MustBuild(p)
	mk := a.Model.InitialMarking()

	// TIE by the tail vehicle of platoon 1 (members 0,1,2): only the
	// vehicle ahead participates under DD.
	a.applyFailure(mk, 2, platoon.FM5)
	if got := a.maneuverSuccessProb(mk, 2); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("success prob %v, want 0.9^1", got)
	}

	// Centralized inter routes the exit through both platoon leaders:
	// three participants (vehicle ahead, own leader, neighbour leader).
	p.Strategy = platoon.CD
	a2 := MustBuild(p)
	mk2 := a2.Model.InitialMarking()
	a2.applyFailure(mk2, 2, platoon.FM5)
	if got := a2.maneuverSuccessProb(mk2, 2); math.Abs(got-0.729) > 1e-12 {
		t.Fatalf("success prob %v, want 0.9^3 = 0.729", got)
	}
}

func BenchmarkTrajectoryDefaultParams(b *testing.B) {
	p := DefaultParams()
	p.Lambda = 1e-5
	a := MustBuild(p)
	r, err := sim.NewRunner(a.Model, sim.Options{MaxTime: 10, Stop: a.Unsafe})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.NewSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(src.Stream(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// paperISJob is the job the paper-curve benchmark workload evaluates: the
// §4.1 defaults (DD, n=10, λ=1e-5/hr), S(t) at 2..10 h, failure forcing at
// SuggestedFailureBias(10).
func paperISJob(tb testing.TB) mc.Job {
	tb.Helper()
	a := MustBuild(DefaultParams())
	job, err := a.UnsafetyJob(EvalOptions{
		Times:       []float64{2, 4, 6, 8, 10},
		Seed:        1,
		FailureBias: a.SuggestedFailureBias(10),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return job
}

// BenchmarkTrajectoryPaperIS times one trajectory of the paper-curve job,
// with its exact sim.Options and probe: forced failures make trajectories
// longer and more eventful than BenchmarkTrajectoryDefaultParams' unbiased
// ones.
func BenchmarkTrajectoryPaperIS(b *testing.B) {
	job := paperISJob(b)
	r, err := sim.NewRunner(job.Model, job.Sim)
	if err != nil {
		b.Fatal(err)
	}
	probe := &sim.Probe{Times: job.Times, Value: job.Value}
	src := rng.NewSource(job.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(src.Stream(uint64(i)), probe); err != nil {
			b.Fatal(err)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestIncrementalEnablingBitIdenticalOnPaperModel(t *testing.T) {
	// Incremental enabling reuses cached gates and rates; on the paper's
	// forced model every trajectory must match re-evaluating every
	// activity after every event, bit for bit.
	job := paperISJob(t)
	tracked, err := sim.NewRunner(job.Model, job.Sim)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.NewRunner(job.Model, job.Sim)
	if err != nil {
		t.Fatal(err)
	}
	full.SetTracking(false)
	pt := &sim.Probe{Times: job.Times, Value: job.Value}
	pf := &sim.Probe{Times: job.Times, Value: job.Value}
	src := rng.NewSource(job.Seed)
	stopped := 0
	for i := uint64(0); i < 500; i++ {
		rt, err := tracked.Run(src.Stream(i), pt)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := full.Run(src.Stream(i), pf)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Steps != rf.Steps || rt.InstantFirings != rf.InstantFirings ||
			rt.Stopped != rf.Stopped || rt.Deadlocked != rf.Deadlocked ||
			!sameBits(rt.End, rf.End) || !sameBits(rt.StopTime, rf.StopTime) ||
			!sameBits(rt.StopWeight, rf.StopWeight) {
			t.Fatalf("trajectory %d: tracked %+v, full scan %+v", i, rt, rf)
		}
		for j := range pt.Values {
			if !sameBits(pt.Values[j], pf.Values[j]) || !sameBits(pt.Weights[j], pf.Weights[j]) {
				t.Fatalf("trajectory %d, t=%v: tracked value %b weight %b, full scan %b %b",
					i, job.Times[j], pt.Values[j], pt.Weights[j], pf.Values[j], pf.Weights[j])
			}
		}
		if rt.Stopped {
			stopped++
		}
	}
	if stopped == 0 {
		t.Fatal("no trajectory reached KO_total; the comparison never covered an absorbed run")
	}
}

func TestUnsafetyBreakdownPartitionsTotal(t *testing.T) {
	p := DefaultParams()
	p.N = 6
	p.Lambda = 0.02
	a := MustBuild(p)
	bd, err := a.UnsafetyBreakdown(8, EvalOptions{Seed: 21, MaxBatches: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total.Point <= 0 {
		t.Fatal("expected positive unsafety at lambda=0.02")
	}
	sum := 0.0
	for _, s := range []platoon.Situation{platoon.ST1, platoon.ST2, platoon.ST3} {
		iv, ok := bd.BySituation[s]
		if !ok {
			t.Fatalf("missing situation %v in breakdown", s)
		}
		if iv.Point < 0 {
			t.Fatalf("negative contribution for %v: %v", s, iv.Point)
		}
		sum += iv.Point
	}
	if math.Abs(sum-bd.Total.Point) > 1e-12 {
		t.Fatalf("situation contributions %v do not sum to total %v", sum, bd.Total.Point)
	}
}

func TestAblationEscalationDisabledIsSafer(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy Monte-Carlo statistical check; skipped under -short (race CI)")
	}
	// Without the Figure 2 degradation chain, class B/C failures can never
	// turn into class A, so the unsafety must drop.
	run := func(disable bool) float64 {
		p := DefaultParams()
		p.Lambda = 0.02
		p.DisableEscalation = disable
		a := MustBuild(p)
		iv, err := a.Unsafety(8, EvalOptions{Seed: 22, MaxBatches: 8000})
		if err != nil {
			t.Fatal(err)
		}
		return iv.Point
	}
	full, ablated := run(false), run(true)
	if !(ablated < full) {
		t.Fatalf("escalation ablation did not reduce unsafety: %v vs %v", ablated, full)
	}
}

func TestAblationRefusalDisabledStillConsistent(t *testing.T) {
	// The refusal rule only changes which maneuver runs; ablating it must
	// keep every structural invariant intact.
	p := DefaultParams()
	p.N = 3
	p.Lambda = 0.2
	p.DisableRefusal = true
	a := MustBuild(p)
	obs := &invariantObserver{t: t, a: a}
	r, err := sim.NewRunner(a.Model, sim.Options{MaxTime: 20, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(23)
	for i := 0; i < 100; i++ {
		if _, err := r.Run(src.Stream(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if obs.err != nil {
		t.Fatal(obs.err)
	}
	// And with refusal ablated, a failure during a class-A maneuver keeps
	// its natural maneuver.
	mk := a.Model.InitialMarking()
	a.applyFailure(mk, 1, platoon.FM3) // GS running
	a.applyFailure(mk, 2, platoon.FM6)
	if got := a.ActiveManeuver(mk, 2); got != platoon.TIEN {
		t.Fatalf("refusal-ablated maneuver %v, want TIE-N", got)
	}
}

func TestCausePlaceConsistency(t *testing.T) {
	p := DefaultParams()
	p.N = 2
	a := MustBuild(p)
	mk := a.Model.InitialMarking()
	if a.Cause(mk) != platoon.SituationNone {
		t.Fatal("initial cause must be none")
	}
	// Drive two vehicles to class A directly: ST1.
	a.applyFailure(mk, 0, platoon.FM1)
	a.applyFailure(mk, 1, platoon.FM2)
	// Fire the severity detection via a real runner step: use the
	// instantaneous closure by checking catastrophic directly.
	if !platoon.Catastrophic(a.ActiveFailures(mk)) {
		t.Fatal("two class-A failures must be catastrophic")
	}
}

func TestPhasedManeuversInvariants(t *testing.T) {
	p := DefaultParams()
	p.N = 3
	p.Lambda = 0.2
	p.PhasedManeuvers = true
	a := MustBuild(p)
	obs := &invariantObserver{t: t, a: a}
	r, err := sim.NewRunner(a.Model, sim.Options{MaxTime: 20, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(31)
	for i := 0; i < 150; i++ {
		if _, err := r.Run(src.Stream(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if obs.err != nil {
		t.Fatal(obs.err)
	}
}

func TestPhasedManeuversStructure(t *testing.T) {
	p := DefaultParams()
	p.PhasedManeuvers = true
	a := MustBuild(p)
	// One extra "coordinate" activity per vehicle.
	want := 2*p.N*9 + 5
	if got := a.Model.NumTimed(); got != want {
		t.Fatalf("phased model has %d timed activities, want %d", got, want)
	}
	if a.Model.TimedIndex("one_vehicle[0].coordinate") < 0 {
		t.Fatal("missing coordinate activity")
	}
	// Non-phased models must not have it.
	a2 := MustBuild(DefaultParams())
	if a2.Model.TimedIndex("one_vehicle[0].coordinate") >= 0 {
		t.Fatal("single-phase model must not contain coordinate activities")
	}
}

func TestPhasedManeuversValidation(t *testing.T) {
	p := DefaultParams()
	p.PhasedManeuvers = true
	p.CoordinationRate = 0
	if err := p.Validate(); err == nil {
		t.Fatal("expected CoordinationRate validation error")
	}
}

// TestPhasedExactCTMCCrossCheck validates the two-phase maneuver protocol
// against the exact solver on a reduced configuration.
func TestPhasedExactCTMCCrossCheck(t *testing.T) {
	p := DefaultParams()
	p.N = 1
	p.Lambda = 0.02
	p.JoinRate, p.LeaveRate, p.ChangeRate = 0, 0, 0
	p.TrackOutcomes = false
	p.PhasedManeuvers = true
	a := MustBuild(p)

	g, err := ctmc.Explore(a.Model, ctmc.ExploreOptions{Absorb: a.Unsafe, MaxStates: 100000})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 8.0
	exact, err := g.TransientProbability(horizon, a.Unsafe)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= 0 {
		t.Fatal("phased reduced model has zero exact unsafety")
	}
	iv, err := a.Unsafety(horizon, EvalOptions{Seed: 32, MaxBatches: 60000})
	if err != nil {
		t.Fatal(err)
	}
	se := iv.HalfWidth() / 1.96
	if math.Abs(iv.Point-exact) > 5*se+1e-12 {
		t.Fatalf("phased simulated %v vs exact %v (se %v)", iv.Point, exact, se)
	}
}

func TestPhasedSlowerCoordinationIsLessSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy Monte-Carlo statistical check; skipped under -short (race CI)")
	}
	// Slower coordination keeps failures active longer, so unsafety rises.
	run := func(coordRate float64) float64 {
		p := DefaultParams()
		p.Lambda = 0.01
		p.PhasedManeuvers = true
		p.CoordinationRate = coordRate
		a := MustBuild(p)
		iv, err := a.Unsafety(8, EvalOptions{Seed: 33, MaxBatches: 6000})
		if err != nil {
			t.Fatal(err)
		}
		return iv.Point
	}
	fast, slow := run(120), run(6) // 30 s vs 10 min coordination
	if !(slow > fast) {
		t.Fatalf("slow coordination %v not above fast %v", slow, fast)
	}
}

func TestMultiLaneStructure(t *testing.T) {
	p := DefaultParams()
	p.N = 4
	p.Lanes = 3
	a := MustBuild(p)
	if a.Slots() != 12 || a.Lanes() != 3 {
		t.Fatalf("slots %d lanes %d", a.Slots(), a.Lanes())
	}
	mk := a.Model.InitialMarking()
	sizes := a.LaneSizes(mk)
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 4 {
		t.Fatalf("initial lane sizes %v", sizes)
	}
	if a.VehiclesInSystem(mk) != 12 {
		t.Fatalf("initial vehicles %d", a.VehiclesInSystem(mk))
	}
	// Dynamicity: 1 join + 3 leaves + 4 changes (two per adjacent pair).
	for _, name := range []string{
		"dynamicity.join", "dynamicity.leave1", "dynamicity.leave2",
		"dynamicity.leave3", "dynamicity.ch1", "dynamicity.ch2",
		"dynamicity.ch3", "dynamicity.ch4",
	} {
		if a.Model.TimedIndex(name) < 0 {
			t.Errorf("missing activity %q", name)
		}
	}
	wantTimed := 12*8 + 1 + 3 + 4
	if got := a.Model.NumTimed(); got != wantTimed {
		t.Fatalf("timed activities %d, want %d", got, wantTimed)
	}
	if err := a.CheckInvariants(mk); err != nil {
		t.Fatal(err)
	}
}

func TestMultiLaneInvariantsAlongTrajectories(t *testing.T) {
	p := DefaultParams()
	p.N = 3
	p.Lanes = 3
	p.Lambda = 0.1
	a := MustBuild(p)
	obs := &invariantObserver{t: t, a: a}
	r, err := sim.NewRunner(a.Model, sim.Options{MaxTime: 25, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(71)
	for i := 0; i < 200; i++ {
		if _, err := r.Run(src.Stream(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if obs.err != nil {
			t.FailNow()
		}
	}
}

func TestMultiLaneTransitHopsTowardsExit(t *testing.T) {
	// A lane-3 leaver must hop 3 -> 2 -> 1 -> out, visible as extra
	// pass-through stages. White-box: drive the effects directly.
	p := DefaultParams()
	p.N = 2
	p.Lanes = 3
	a := MustBuild(p)
	mk := a.Model.InitialMarking()
	// Vehicle 4 sits in lane 2 (0-based). Move it down via the leave3
	// activity's effect: emulate by firing the activity through a runner
	// instead; here we verify laneOf bookkeeping after manual moves.
	if got := a.laneOf(mk, 4); got != 2 {
		t.Fatalf("vehicle 4 in lane %d, want 2", got)
	}
	if got := a.laneOf(mk, 0); got != 0 {
		t.Fatalf("vehicle 0 in lane %d, want 0", got)
	}
	a.removeVehicle(mk, 4)
	if got := a.laneOf(mk, 4); got != -1 {
		t.Fatalf("removed vehicle still in lane %d", got)
	}
	if err := a.CheckInvariants(mk); err != nil {
		t.Fatal(err)
	}
}

func TestMultiLaneUnsafetyGrowsWithLanes(t *testing.T) {
	// More lanes = more vehicles in one coordination domain = less safe.
	run := func(lanes int) float64 {
		p := DefaultParams()
		p.N = 6
		p.Lanes = lanes
		p.Lambda = 0.01
		a := MustBuild(p)
		iv, err := a.Unsafety(6, EvalOptions{Seed: 72, MaxBatches: 4000})
		if err != nil {
			t.Fatal(err)
		}
		return iv.Point
	}
	two, four := run(2), run(4)
	if !(four > 1.5*two) {
		t.Fatalf("4-lane unsafety %v not clearly above 2-lane %v", four, two)
	}
}

func TestSingleLaneDegenerateConfiguration(t *testing.T) {
	// One platoon only: exits have no neighbouring platoon; still sound.
	p := DefaultParams()
	p.N = 4
	p.Lanes = 1
	p.ChangeRate = 0 // no adjacent lane to change into
	a := MustBuild(p)
	obs := &invariantObserver{t: t, a: a}
	r, err := sim.NewRunner(a.Model, sim.Options{MaxTime: 20, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(73)
	p.Lambda = 0.1
	for i := 0; i < 50; i++ {
		if _, err := r.Run(src.Stream(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if obs.err != nil {
		t.FailNow()
	}
}

// TestMultiLaneExactCTMCCrossCheck anchors the three-lane generalization
// against the exact solver.
func TestMultiLaneExactCTMCCrossCheck(t *testing.T) {
	p := DefaultParams()
	p.N = 1
	p.Lanes = 3
	p.Lambda = 0.02
	p.JoinRate, p.LeaveRate, p.ChangeRate = 0, 0, 0
	p.TrackOutcomes = false
	a := MustBuild(p)

	g, err := ctmc.Explore(a.Model, ctmc.ExploreOptions{Absorb: a.Unsafe, MaxStates: 500000})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 6.0
	exact, err := g.TransientProbability(horizon, a.Unsafe)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= 0 {
		t.Fatal("three-lane reduced model has zero exact unsafety")
	}
	iv, err := a.Unsafety(horizon, EvalOptions{Seed: 74, MaxBatches: 60000})
	if err != nil {
		t.Fatal(err)
	}
	se := iv.HalfWidth() / 1.96
	if math.Abs(iv.Point-exact) > 5*se+1e-12 {
		t.Fatalf("simulated %v vs exact %v (se %v)", iv.Point, exact, se)
	}
}
