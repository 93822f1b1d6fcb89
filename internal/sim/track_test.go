package sim

import (
	"math"
	"sync"
	"testing"

	"ahs/internal/rng"
	"ahs/internal/san"
)

// pair is a tracking runner and a full-scan runner of the same model and
// options, each with its own probe over the same value function.
type pair struct {
	tracked, full *Runner
	pt, pf        *Probe
}

func newPair(t *testing.T, m *san.Model, opts Options, times []float64, value func(*san.Marking) float64) *pair {
	t.Helper()
	tracked, err := NewRunner(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewRunner(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	full.SetTracking(false)
	return &pair{
		tracked: tracked,
		full:    full,
		pt:      &Probe{Times: times, Value: value},
		pf:      &Probe{Times: times, Value: value},
	}
}

// same fails unless two runs agree bit for bit in their results and in
// every probe value and weight.
func (p *pair) same(t *testing.T, run int, rt, rf Result) {
	t.Helper()
	bitsEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if rt.Steps != rf.Steps || rt.InstantFirings != rf.InstantFirings ||
		rt.Stopped != rf.Stopped || rt.Deadlocked != rf.Deadlocked ||
		!bitsEq(rt.End, rf.End) || !bitsEq(rt.StopTime, rf.StopTime) || !bitsEq(rt.StopWeight, rf.StopWeight) {
		t.Fatalf("run %d: tracked %+v, full scan %+v", run, rt, rf)
	}
	for j := range p.pt.Values {
		if !bitsEq(p.pt.Values[j], p.pf.Values[j]) || !bitsEq(p.pt.Weights[j], p.pf.Weights[j]) {
			t.Fatalf("run %d probe %d: tracked %b/%b, full scan %b/%b",
				run, j, p.pt.Values[j], p.pt.Weights[j], p.pf.Values[j], p.pf.Weights[j])
		}
	}
}

// runBoth runs stream i of src through both runners and compares them.
func (p *pair) runBoth(t *testing.T, src *rng.Source, i int) Result {
	t.Helper()
	rt, err := p.tracked.Run(src.Stream(uint64(i)), p.pt)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := p.full.Run(src.Stream(uint64(i)), p.pf)
	if err != nil {
		t.Fatal(err)
	}
	p.same(t, i, rt, rf)
	return rt
}

// shortCircuitModel has a gate a>0 && b>0 that reads b only once a is
// full, so its read set grows during a trajectory.
func shortCircuitModel() (*san.Model, san.PlaceID) {
	b := san.NewBuilder("short-circuit")
	pa := b.Place("a", 0)
	pb := b.Place("b", 0)
	c := b.Place("count", 0)
	b.Timed(san.TimedActivity{Name: "fillA", Enabled: func(mk *san.Marking) bool { return mk.Tokens(pa) == 0 },
		Rate: san.ConstRate(1), Input: san.Produce(pa, 1)})
	b.Timed(san.TimedActivity{Name: "drainA", Enabled: san.HasTokens(pa, 1),
		Rate: san.ConstRate(0.7), Input: san.Consume(pa, 1)})
	b.Timed(san.TimedActivity{Name: "flipB", Rate: san.ConstRate(1.3),
		Input: func(mk *san.Marking) { mk.SetTokens(pb, 1-mk.Tokens(pb)) }})
	b.Timed(san.TimedActivity{Name: "both",
		Enabled: func(mk *san.Marking) bool { return mk.Tokens(pa) > 0 && mk.Tokens(pb) > 0 },
		Rate:    san.ConstRate(2), Input: san.Produce(c, 1)})
	return b.MustBuild(), c
}

// markingRateModel mirrors the AHS maneuver activity: its rate is looked
// up from a level place another activity escalates.
func markingRateModel() (*san.Model, san.PlaceID) {
	rates := []float64{30, 25, 20, 15}
	b := san.NewBuilder("marking-rate")
	level := b.Place("level", 0)
	done := b.Place("done", 0)
	b.Timed(san.TimedActivity{Name: "escalate", Enabled: func(mk *san.Marking) bool { return mk.Tokens(level) < 3 },
		Rate: san.ConstRate(4), Input: san.Produce(level, 1)})
	b.Timed(san.TimedActivity{Name: "reset", Enabled: san.HasTokens(level, 3),
		Rate: san.ConstRate(2), Input: san.Consume(level, 3)})
	b.Timed(san.TimedActivity{Name: "maneuver",
		Rate:  func(mk *san.Marking) float64 { return rates[mk.Tokens(level)] },
		Input: san.Produce(done, 1)})
	return b.MustBuild(), done
}

func TestIncrementalMatchesFullScan(t *testing.T) {
	poisson, pc := buildPoisson(1.5)
	adaptive := NewBias()
	if err := adaptive.SetFnByName(poisson, "arrive", func(mk *san.Marking) float64 {
		if mk.Tokens(pc) < 2 {
			return 8
		}
		return 1
	}); err != nil {
		t.Fatal(err)
	}
	// The adaptive factor of "fail" reads the counter "arrive" writes.
	twoB := san.NewBuilder("adaptive")
	cnt := twoB.Place("count", 0)
	dead := twoB.Place("dead", 0)
	twoB.Timed(san.TimedActivity{Name: "arrive", Rate: san.ConstRate(2), Input: san.Produce(cnt, 1)})
	twoB.Timed(san.TimedActivity{Name: "fail", Enabled: func(mk *san.Marking) bool { return mk.Tokens(dead) == 0 },
		Rate: san.ConstRate(0.05), Input: san.Produce(dead, 1)})
	twoModel := twoB.MustBuild()
	forceFail := NewBias()
	if err := forceFail.SetFnByName(twoModel, "fail", func(mk *san.Marking) float64 {
		return 1 + 10/float64(1+mk.Tokens(cnt))
	}); err != nil {
		t.Fatal(err)
	}

	sc, scCount := shortCircuitModel()
	mr, mrDone := markingRateModel()
	tokens := func(p san.PlaceID) func(*san.Marking) float64 {
		return func(mk *san.Marking) float64 { return float64(mk.Tokens(p)) }
	}
	cases := []struct {
		name  string
		model *san.Model
		opts  Options
		value func(*san.Marking) float64
	}{
		{"short-circuit gate", sc, Options{MaxTime: 20}, tokens(scCount)},
		{"marking-dependent rate", mr, Options{MaxTime: 5}, tokens(mrDone)},
		{"adaptive bias on own place", poisson, Options{MaxTime: 3, Bias: adaptive}, tokens(pc)},
		{"adaptive bias on another activity's place", twoModel,
			Options{MaxTime: 4, Bias: forceFail, Stop: san.HasTokens(dead, 1)}, tokens(dead)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, tc.model, tc.opts, []float64{tc.opts.MaxTime / 4, tc.opts.MaxTime / 2, tc.opts.MaxTime}, tc.value)
			src := rng.NewSource(5)
			moved := false
			for i := 0; i < 300; i++ {
				p.runBoth(t, src, i)
				if p.pt.Values[len(p.pt.Values)-1] > 0 {
					moved = true
				}
			}
			if !moved {
				t.Fatal("the probed place never changed; the comparison is vacuous")
			}
		})
	}
}

func TestRunFromCapturedMarkingAfterUnrelatedRun(t *testing.T) {
	// A captured marking restarted after an unrelated trajectory must not
	// reuse that trajectory's cached rates.
	m, c := shortCircuitModel()
	p := newPair(t, m, Options{MaxTime: 20}, []float64{12, 20},
		func(mk *san.Marking) float64 { return float64(mk.Tokens(c)) })
	src := rng.NewSource(11)
	for i := 0; i < 100; i++ {
		if _, err := p.tracked.Run(src.Stream(uint64(3 * i))); err != nil {
			t.Fatal(err)
		}
		start := p.tracked.Marking().Clone()
		// The unrelated run leaves the tracked runner's caches describing
		// its own final marking.
		if _, err := p.tracked.Run(src.Stream(uint64(3*i + 1))); err != nil {
			t.Fatal(err)
		}
		rt, err := p.tracked.RunFrom(start, 10, src.Stream(uint64(3*i+2)), p.pt)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := p.full.RunFrom(start, 10, src.Stream(uint64(3*i+2)), p.pf)
		if err != nil {
			t.Fatal(err)
		}
		p.same(t, i, rt, rf)
	}
}

// accessCounter counts every access an AccessObserver sees.
type accessCounter struct{ reads, writes int }

func (c *accessCounter) ReadPlace(san.PlaceID)        { c.reads++ }
func (c *accessCounter) WritePlace(san.PlaceID)       { c.writes++ }
func (c *accessCounter) ReadExtPlace(san.ExtPlaceID)  { c.reads++ }
func (c *accessCounter) WriteExtPlace(san.ExtPlaceID) { c.writes++ }

func TestUserObserverAlongsideTracker(t *testing.T) {
	// An observer installed on the runner's marking after NewRunner sees
	// the accesses, and does not displace the tracker: the trajectories
	// stay those of the full scan, with fewer reads than it makes.
	m, c := shortCircuitModel()
	p := newPair(t, m, Options{MaxTime: 20}, []float64{20},
		func(mk *san.Marking) float64 { return float64(mk.Tokens(c)) })
	var tracked, full accessCounter
	p.tracked.Marking().SetObserver(&tracked)
	p.full.Marking().SetObserver(&full)
	src := rng.NewSource(13)
	for i := 0; i < 50; i++ {
		p.runBoth(t, src, i)
	}
	if tracked.reads == 0 || tracked.writes == 0 {
		t.Fatalf("observer saw %d reads and %d writes", tracked.reads, tracked.writes)
	}
	if tracked.writes != full.writes {
		t.Fatalf("observer saw %d writes with tracking, %d without", tracked.writes, full.writes)
	}
	if tracked.reads >= full.reads {
		t.Fatalf("tracking read %d places, the full scan %d: the tracker is not in effect", tracked.reads, full.reads)
	}
}

func TestCloneCarriesNoTracker(t *testing.T) {
	m, _ := shortCircuitModel()
	a, _ := m.PlaceByName("a")
	r, err := NewRunner(m, Options{MaxTime: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(rng.NewStream(1)); err != nil {
		t.Fatal(err)
	}
	clone := r.Marking().Clone()
	// Mutate the clone in one goroutine while the runner keeps running in
	// another: a shared tracker would be a data race, and -race reports it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			clone.SetTokens(a, i%2)
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := r.Run(rng.NewStream(uint64(2 + i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// Place a is read by three gates, yet writing it in the clone leaves
	// every evaluation of the runner clean.
	if _, _, err := r.scanTimed(); err != nil {
		t.Fatal(err)
	}
	clone.SetTokens(a, 1)
	for w, word := range r.track.Stale() {
		if word != 0 {
			t.Fatalf("writing the clone marked the runner's word %d stale: %b", w, word)
		}
	}
	r.Marking().SetTokens(a, 1)
	if r.track.Stale()[0] == 0 {
		t.Fatal("writing the runner's own marking marked nothing stale")
	}
}
