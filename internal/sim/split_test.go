package sim_test

import (
	"math"
	"sync"
	"testing"

	"ahs/internal/rare"
	"ahs/internal/san"
)

// TestSplittingRestartsFromClones runs multilevel splitting, which restarts
// tracked runners from clones of their markings, in two goroutines at once.
// Both must reproduce a sequential run bit for bit; under -race a tracker
// reachable from a clone would show up as a data race.
func TestSplittingRestartsFromClones(t *testing.T) {
	b := san.NewBuilder("mm1k")
	q := b.Place("queue", 0)
	b.Timed(san.TimedActivity{Name: "arrive", Enabled: func(m *san.Marking) bool { return m.Tokens(q) < 6 },
		Rate: san.ConstRate(1), Input: san.Produce(q, 1)})
	b.Timed(san.TimedActivity{Name: "depart", Enabled: san.HasTokens(q, 1),
		Rate: san.ConstRate(3), Input: san.Consume(q, 1)})
	m := b.MustBuild()
	estimate := func() (*rare.Result, error) {
		sp := &rare.Splitting{
			Model:        m,
			MaxTime:      4,
			Target:       san.HasTokens(q, 6),
			Level:        func(mk *san.Marking) int { return mk.Tokens(q) },
			Thresholds:   []int{2, 4},
			Effort:       200,
			Replications: 4,
			Seed:         3,
		}
		return sp.Estimate()
	}
	want, err := estimate()
	if err != nil {
		t.Fatal(err)
	}
	if want.Interval.Point <= 0 {
		t.Fatalf("splitting estimate %v; the cascade never restarted from a clone", want.Interval.Point)
	}
	got := make([]*rare.Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = estimate()
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if math.Float64bits(got[g].Interval.Point) != math.Float64bits(want.Interval.Point) {
			t.Fatalf("goroutine %d estimated %b, sequential run %b", g, got[g].Interval.Point, want.Interval.Point)
		}
		for rep, fr := range want.StageFractions {
			for s, f := range fr {
				if math.Float64bits(got[g].StageFractions[rep][s]) != math.Float64bits(f) {
					t.Fatalf("goroutine %d replication %d stage %d: fraction %v, sequential %v",
						g, rep, s, got[g].StageFractions[rep][s], f)
				}
			}
		}
	}
}
