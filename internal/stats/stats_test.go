package stats

import (
	"math"
	"testing"
	"testing/quick"

	"ahs/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestWelfordMatchesNaiveMoments(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		sum, sumsq := 0.0, 0.0
		for _, v := range raw {
			x := float64(v) / 100
			w.Add(x)
			sum += x
			sumsq += x * x
		}
		n := float64(len(raw))
		mean := sum / n
		variance := (sumsq - n*mean*mean) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		return almostEqual(w.Mean(), mean, 1e-9) && almostEqual(w.Variance(), variance, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEqualsSequential(t *testing.T) {
	f := func(a, b []int16) bool {
		var whole, left, right Welford
		for _, v := range a {
			x := float64(v)
			whole.Add(x)
			left.Add(x)
		}
		for _, v := range b {
			x := float64(v)
			whole.Add(x)
			right.Add(x)
		}
		left.Merge(&right)
		return left.N() == whole.N() &&
			almostEqual(left.Mean(), whole.Mean(), 1e-9) &&
			almostEqual(left.Variance(), whole.Variance(), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordAddNEqualsRepeatedAdd(t *testing.T) {
	var a, b Welford
	a.Add(2)
	a.AddN(0, 5)
	a.Add(3)
	b.Add(2)
	for i := 0; i < 5; i++ {
		b.Add(0)
	}
	b.Add(3)
	if a.N() != b.N() || !almostEqual(a.Mean(), b.Mean(), 1e-12) || !almostEqual(a.Variance(), b.Variance(), 1e-12) {
		t.Fatalf("AddN mismatch: (%v,%v,%v) vs (%v,%v,%v)",
			a.N(), a.Mean(), a.Variance(), b.N(), b.Mean(), b.Variance())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Fatalf("single observation: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.841344746, 1.0},
		{0.025, -1.959964},
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileSymmetryProperty(t *testing.T) {
	f := func(u uint16) bool {
		p := (float64(u) + 1) / 65537 // strictly inside (0,1)
		return math.Abs(NormalQuantile(p)+NormalQuantile(1-p)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("quantile edges must be infinite")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Fatal("out-of-range p must be NaN")
	}
}

func TestTCriticalKnownValues(t *testing.T) {
	// Reference values for two-sided 95% critical points.
	cases := []struct {
		df   uint64
		want float64
		tol  float64
	}{
		{1, 12.706, 0.05},
		{2, 4.303, 0.05},
		{5, 2.571, 0.02},
		{10, 2.228, 0.01},
		{30, 2.042, 0.01},
		{100, 1.984, 0.01},
		{1000, 1.962, 0.01},
	}
	for _, c := range cases {
		got := tCritical(0.95, c.df)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("tCritical(0.95, %d) = %v, want %v±%v", c.df, got, c.want, c.tol)
		}
	}
}

func TestCICoverageOnBernoulli(t *testing.T) {
	// Estimate coverage of the 95% CI over repeated experiments.
	src := rng.NewSource(99)
	const p = 0.2
	const experiments = 400
	const samples = 500
	covered := 0
	for e := 0; e < experiments; e++ {
		r := src.Stream(uint64(e))
		var w Welford
		for i := 0; i < samples; i++ {
			if r.Bernoulli(p) {
				w.Add(1)
			} else {
				w.Add(0)
			}
		}
		iv := w.CI(0.95)
		if iv.Lo <= p && p <= iv.Hi {
			covered++
		}
	}
	coverage := float64(covered) / experiments
	if coverage < 0.90 || coverage > 0.99 {
		t.Fatalf("95%% CI empirical coverage %v outside [0.90, 0.99]", coverage)
	}
}

func TestIntervalRelativeHalfWidth(t *testing.T) {
	iv := Interval{Point: 2, Lo: 1.8, Hi: 2.2}
	if !almostEqual(iv.HalfWidth(), 0.2, 1e-12) {
		t.Fatalf("half width %v", iv.HalfWidth())
	}
	if !almostEqual(iv.RelativeHalfWidth(), 0.1, 1e-9) {
		t.Fatalf("relative half width %v", iv.RelativeHalfWidth())
	}
	zero := Interval{Point: 0, Lo: -1, Hi: 1}
	if !math.IsInf(zero.RelativeHalfWidth(), 1) {
		t.Fatal("zero point estimate must give infinite relative half width")
	}
}

func TestRelativeStopRule(t *testing.T) {
	rule := RelativeStopRule{Confidence: 0.95, MaxRelHalfWidth: 0.1, MinSamples: 100}
	var w Welford
	// Constant observations converge immediately after MinSamples.
	for i := 0; i < 99; i++ {
		w.Add(1)
	}
	if rule.Satisfied(&w) {
		t.Fatal("rule satisfied before MinSamples")
	}
	w.Add(1)
	if !rule.Satisfied(&w) {
		t.Fatal("rule not satisfied for constant data after MinSamples")
	}
}

func TestRelativeStopRuleNeedsPrecision(t *testing.T) {
	rule := RelativeStopRule{Confidence: 0.95, MaxRelHalfWidth: 0.01, MinSamples: 10}
	r := rng.NewStream(5)
	var w Welford
	for i := 0; i < 50; i++ {
		w.Add(r.Float64())
	}
	if rule.Satisfied(&w) {
		t.Fatal("rule should not be satisfied at 1% precision with 50 uniform samples")
	}
}

func TestPaperStopRuleParameters(t *testing.T) {
	r := PaperStopRule()
	if r.Confidence != 0.95 || r.MaxRelHalfWidth != 0.1 || r.MinSamples != 10000 {
		t.Fatalf("paper stop rule mismatch: %+v", r)
	}
}

func TestIntervalString(t *testing.T) {
	iv := Interval{Point: 0.5, Lo: 0.4, Hi: 0.6, Confidence: 0.95, N: 100}
	s := iv.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("interval string %q", s)
	}
}
