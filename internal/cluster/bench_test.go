package cluster

import (
	"context"
	"sort"
	"testing"
	"time"
)

// Journal overhead benchmarks: the same 20k-batch evaluation through the
// coordinator, without a journal (the direct path), with a fully fsync'd
// journal (the crash-safe default), and with NoSync (isolating the
// fsync cost from the framing/encoding cost). Run with:
//
//	go test ./internal/cluster/ -run '^$' -bench BenchmarkCoordinator -benchtime 5x
//
// The measured overhead of the durable journal is reported in
// docs/cluster.md ("Failure model & recovery"); the acceptance bar is <=5%.
func benchmarkCoordinatorCurve(b *testing.B, journaled, noSync bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runCoordinatorCurve(b, journaled, noSync)
	}
}

// runCoordinatorCurve is one benchmark operation: a 20k-batch curve through
// a fresh coordinator, journaled or not.
func runCoordinatorCurve(tb testing.TB, journaled, noSync bool) {
	cfg := Config{
		PollInterval: time.Millisecond, // rescue ticks must not dominate the measurement
		ChunkBatches: 2000,
		CheckEvery:   2000,
	}
	var j *Journal
	if journaled {
		var err error
		j, err = OpenJournal(JournalConfig{Dir: tb.TempDir(), NoSync: noSync})
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Journal = j
	}
	coord := New(cfg)
	curve, _, err := coord.UnsafetyCurve(context.Background(), testScenario(20000), 1, nil)
	coord.Close()
	if j != nil {
		j.Close()
	}
	if err != nil {
		tb.Fatal(err)
	}
	if curve.Batches != 20000 {
		tb.Fatalf("Batches = %d, want 20000", curve.Batches)
	}
}

func BenchmarkCoordinatorNoJournal(b *testing.B)     { benchmarkCoordinatorCurve(b, false, false) }
func BenchmarkCoordinatorJournal(b *testing.B)       { benchmarkCoordinatorCurve(b, true, false) }
func BenchmarkCoordinatorJournalNoSync(b *testing.B) { benchmarkCoordinatorCurve(b, true, true) }

// TestJournalOverheadBudget enforces the acceptance bar in the suite
// itself: interleaved pairs of 20k-batch runs without and with the
// journal, alternating which runs first so drift in machine load hits
// both sides alike, compared by their medians (with slack for timer noise
// on loaded CI machines — the benchmark above is the precise instrument).
func TestJournalOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eighteen 20k-batch evaluations")
	}
	const pairs = 9
	timed := func(journaled bool) float64 {
		start := time.Now()
		runCoordinatorCurve(t, journaled, false)
		return float64(time.Since(start))
	}
	var bases, journaled []float64
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			bases = append(bases, timed(false))
			journaled = append(journaled, timed(true))
		} else {
			journaled = append(journaled, timed(true))
			bases = append(bases, timed(false))
		}
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	base, withJournal := median(bases), median(journaled)
	overhead := (withJournal - base) / base
	t.Logf("journal overhead over %d interleaved pairs: median base=%.0fms journaled=%.0fms overhead=%.2f%%",
		pairs, base/1e6, withJournal/1e6, overhead*100)
	// 5% is the acceptance target on a quiet machine; 15% is the hard
	// failure line so CI noise does not flake the suite.
	if overhead > 0.15 {
		t.Errorf("journal overhead %.1f%% exceeds the 15%% hard ceiling (target <=5%%)", overhead*100)
	}
}
