package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ahs/internal/mc"
	"ahs/internal/stats"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting matters
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n        int
		wantP    float64
		wantRank float64
	}{
		{1, 50, 1},
		{19, 50, 10},
		{20, 50, 10},
		{99, 50, 50},  // p90 would leave 9 beyond
		{100, 90, 90}, // exactly 10 beyond p90
		{199, 90, 180},
		{1000, 90, 900},
		{50000, 90, 45000}, // the ladder stops at p90
	} {
		v, p := tailPercentile(seq(tc.n))
		if p != tc.wantP || v != tc.wantRank {
			t.Errorf("n=%d: got p%g=%g, want p%g=%g", tc.n, p, v, tc.wantP, tc.wantRank)
		}
		if beyond := tc.n - int(v); tc.n >= 100 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, p)
		}
	}
	if v, _ := tailPercentile(nil); v != 0 {
		t.Errorf("empty: got %g", v)
	}
}

func TestGrouped(t *testing.T) {
	if _, _, _, ok := grouped(make([]float64, 10999), make([]float64, 10999)); ok {
		t.Error("10 999 operations grouped")
	}
	// 12 groups completing one per second, listed in reverse completion
	// order; group g's latencies are g+1 ms except for a 100 ms tenth.
	n := 12 * groupSize
	lat, done := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		g, k := i/groupSize, i%groupSize
		lat[n-1-i] = float64(g + 1)
		if k >= 900 {
			lat[n-1-i] = 100
		}
		done[n-1-i] = float64(g) + float64(k+1)/groupSize
	}
	p50, p90, rate, ok := grouped(lat, done)
	if !ok || len(p50) != 11 {
		t.Fatalf("ok=%v groups=%d", ok, len(p50))
	}
	for i := range p50 {
		if g := float64(i + 2); p50[i] != g || p90[i] != g || math.Abs(rate[i]-groupSize) > 1e-6 {
			t.Errorf("group %d: p50 %g p90 %g rate %g", i+1, p50[i], p90[i], rate[i])
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd: %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even: %g", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},   // inside a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},  // sticks out of root
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},  // grandchild of root
		{ID: 6, Parent: 2, Name: "a2", Start: 20, End: 30},  // overlaps a1
		{ID: 7, Parent: 1, Name: "d", Start: 200, End: 300}, // outside root entirely
		{ID: 8, Name: "lone", Start: 5, End: 7},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{
		1: 100 - 40 - 10, // a∪b covers [10,50], c covers [90,100]
		2: 40 - 15,       // a1∪a2 covers [15,30]
		3: 20, 4: 40, 5: 10, 6: 10, 7: 100, 8: 2,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	if got := selfMedian(spans, "root"); got != 50e-6 {
		t.Errorf("selfMedian: %g ms", got)
	}
}

func TestRecorderOff(t *testing.T) {
	var nilRec *recorder
	if nilRec.id() != 0 || nilRec.record(0, 0, "x", time.Now(), time.Now()) != 0 || nilRec.enabled() {
		t.Fatal("nil recorder recorded")
	}
	r := newRecorder()
	if r.id() != 0 || len(r.snapshot()) != 0 {
		t.Fatal("disabled recorder recorded")
	}
	r.enable(true)
	root := r.id()
	child := r.record(0, root, "child", time.Now(), time.Now())
	r.record(root, 0, "root", time.Now(), time.Now())
	s := r.snapshot()
	if root == 0 || child == root || len(s) != 2 || s[0].Parent != root || s[1].ID != root {
		t.Fatalf("spans %+v", s)
	}
}

func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
	}
	for name := range workloads {
		if !metricName.MatchString(name) {
			t.Errorf("bad workload name %q", name)
		}
	}
	for _, bad := range []string{"", "-x", ".x", "a b", "a/b", "é", "x" + strings.Repeat("y", 64)} {
		if metricName.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// names exactly the metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, program reports %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	// serve-warm runs on demand only: its spread on a shared host is
	// wider than the bounds (see README.md).
	listed := map[string]bool{"serve-warm": true}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil || listed[w.Name] {
			t.Errorf("BENCHMARK.json workload %q unknown or repeated", w.Name)
		}
		listed[w.Name] = true
	}
	if len(listed) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json plus serve-warm, %d in the program", len(listed)-1, len(workloads))
	}
}

func TestPooledRelHalfWidthOfOneCurve(t *testing.T) {
	var w stats.Welford
	for i := 0; i < 1000; i++ {
		w.Add(float64(i % 7))
	}
	iv := w.CI(0.95)
	c := &mc.Curve{Mean: []float64{w.Mean()}, Intervals: []stats.Interval{iv}, Batches: w.N()}
	got := pooledRelHalfWidth([]*mc.Curve{c}, 0)
	if want := iv.RelativeHalfWidth(); math.Abs(got-want) > 1e-12*want {
		t.Errorf("pooled %g, own %g", got, want)
	}
}

func TestReferenceCoversSeeds(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Batches != defaultSizes.CurveBatches || len(ref.Curves) != len(paperSeeds) {
		t.Fatalf("reference has %d curves at %d batches", len(ref.Curves), ref.Batches)
	}
	for i, c := range ref.Curves {
		if c.Seed != paperSeeds[i] || len(c.Mean) != len(ref.Times) {
			t.Errorf("reference curve %d: seed %d, %d points", i, c.Seed, len(c.Mean))
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// requires a correct result carrying every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	tiny := sizes{CurveBatches: 200, WarmupBatches: 100, ReplayBatches: 50, ServeBatches: 20, WarmResults: 8, SetupReps: 2}
	ref, err := buildReference(tiny.CurveBatches)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			cfg := runConfig{
				Workload: name,
				Seed:     7,
				Duration: 300 * time.Millisecond,
				Traced:   traced,
				WorkDir:  t.TempDir(),
				Procs:    2,
				Sizes:    tiny,
				Ref:      ref,
				Log:      &log,
			}
			res, err := execute(cfg, fn, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, log.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %+v\n%s", name, traced, res, log.String())
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || math.IsNaN(v.Value) || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v", name, traced, m.Name, v)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m.Name, v.Value)
				}
			}
		}
	}
}
