// Command perfbench is the repository's benchmark: it runs one named
// workload against the paper's model or the serving stack for a fixed time
// and prints its metrics, the last line being one JSON object. Run it
// through run.sh from the repository root; see README.md for the workloads
// and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sizes fixes how much work each operation does. The defaults are the
// benchmark; tests shrink them.
type sizes struct {
	CurveBatches  uint64 // paper-model batches per curve
	WarmupBatches uint64 // batches of the warm-up curve pushed through set-up
	ReplayBatches int    // trajectories replayed for the sim and san metrics
	ServeBatches  uint64 // batches per serve-workload scenario
	WarmResults   int    // distinct results the serve-warm store holds
	SetupReps     int    // set-ups per run; setup_s is their median
}

var defaultSizes = sizes{
	CurveBatches:  10_000,
	WarmupBatches: 2_000,
	ReplayBatches: 2_000,
	ServeBatches:  300,
	WarmResults:   512, // twice the service's default 256-entry LRU
	SetupReps:     5,
}

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload string
	Seed     uint64
	Duration time.Duration
	Traced   bool
	WorkDir  string // stores, journals and other scratch files
	Procs    int    // client goroutines or simulation workers
	Sizes    sizes
	Ref      *reference
	Log      io.Writer // human-readable report lines
}

// outcome is what a workload measured.
type outcome struct {
	Attempted, Failed int
	Setup             []float64 // seconds, one per set-up
	Latency           []float64 // milliseconds, one per completed operation
	Done              []float64 // seconds into the timed phase, one per completed operation
	JobsPerS          float64
	TimeToPaperCI     float64 // seconds
	Layers            map[string]float64
	Spans             []span
}

type workloadFunc func(cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper-curve":   runPaperCurve,
	"cluster-curve": runClusterCurve,
	"serve-cold":    runServeCold,
	"serve-warm":    runServeWarm,
}

// endToEnd and perLayer name every metric a run reports, with units;
// BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"time_to_paper_ci_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"core.build_ms", "ms"},
	{"sim.traj_us_p50", "us"},
	{"sim.traj_us_p99", "us"},
	{"sim.event_ns", "ns"},
	{"sim.events_per_traj", "count"},
	{"san.place_reads_per_event", "count"},
	{"mc.round_ms", "ms"},
	{"mc.parallel_efficiency", "ratio"},
	{"mc.rel_halfwidth_10h", "ratio"},
	{"cluster.first_lease_wait_ms", "ms"},
	{"cluster.lease_rtt_ms", "ms"},
	{"cluster.complete_rtt_ms", "ms"},
	{"cluster.chunks", "count"},
	{"cluster.empty_polls", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.eval_ms", "ms"},
	{"service.evaluations_per_scenario", "ratio"},
	{"service.delivery_wait_ms", "ms"},
	{"service.memory_hit_ratio", "ratio"},
	{"service.store_hit_ratio", "ratio"},
	{"fleet.claim_ms", "ms"},
	{"fleet.put_ms", "ms"},
	{"resultstore.bytes_per_put", "bytes"},
	{"resultstore.get_ms", "ms"},
	{"bench.op_self_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.observer_overhead_ratio", "ratio"},
}

type metricDef struct{ Name, Unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: paper-curve, cluster-curve, serve-cold or serve-warm")
		seed     = fs.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
		seconds  = fs.Float64("seconds", 15, "measured duration of the run")
		traced   = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
		workDir  = fs.String("work-dir", filepath.Join(".bench_build", "work"), "scratch directory for stores and journals")
		traceDir = fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
		writeRef = fs.String("write-reference", "", "regenerate the paper-curve reference curves into this file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef, defaultSizes.CurveBatches); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *traced < 0 || *traced > 1 || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		Workload: *workload,
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Traced:   *traced == 1,
		WorkDir:  *workDir,
		Procs:    runtime.NumCPU(),
		Sizes:    defaultSizes,
		Ref:      ref,
		Log:      stdout,
	}
	res, err := execute(cfg, fn, *traceDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// execute runs the workload and turns its outcome into the result line,
// printing the machine context and every metric with its sample count.
func execute(cfg runConfig, fn workloadFunc, traceDir string) (*result, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.WorkDir, cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.WorkDir = work

	calib := calibrate()
	ctxFields := map[string]any{
		"workload":           cfg.Workload,
		"seed":               cfg.Seed,
		"seconds":            cfg.Duration.Seconds(),
		"trace":              cfg.Traced,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"calib_ns_per_draw":  calib,
		"calib_draws":        calibrationDraws,
		"reference_batches":  cfg.Ref.Batches,
		"curve_batches":      cfg.Sizes.CurveBatches,
		"serve_batches":      cfg.Sizes.ServeBatches,
		"serve_warm_results": cfg.Sizes.WarmResults,
	}
	fmt.Fprintf(cfg.Log, "perfbench %s seed=%d seconds=%g trace=%v\n", cfg.Workload, cfg.Seed, cfg.Duration.Seconds(), cfg.Traced)
	fmt.Fprintf(cfg.Log, "context nproc=%d gomaxprocs=%d go=%s calib_ns_per_draw=%.4f (%d rng.Uint64 draws)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), calib, calibrationDraws)

	out, err := fn(cfg)
	if err != nil {
		return nil, err
	}
	if out.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res := &result{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(cfg.Log, "fail_ratio=%d/%d\n", out.Failed, out.Attempted)
	fmt.Fprintf(cfg.Log, "latency_ms n=%d p50=%.4f p90=%.4f p95=%.4f p99=%.4f max=%.4f\n", len(out.Latency),
		percentile(out.Latency, 50), percentile(out.Latency, 90), percentile(out.Latency, 95), percentile(out.Latency, 99), percentile(out.Latency, 100))
	if cfg.Traced {
		for _, m := range perLayer {
			v := out.Layers[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("metric %s is %v", m.Name, v)
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
			fmt.Fprintf(cfg.Log, "layer %-34s %14.4f %s\n", m.Name, v, m.Unit)
		}
		printSummary(cfg.Log, out.Spans)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := writeTrace(path, ctxFields, out.Spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.Log, "spans written to %s\n", path)
		return res, nil
	}
	tail, p := tailPercentile(out.Latency)
	values := map[string]float64{
		"setup_s":            median(out.Setup),
		"latency_p50_ms":     median(out.Latency),
		"latency_tail_ms":    tail,
		"jobs_per_s":         out.JobsPerS,
		"time_to_paper_ci_s": out.TimeToPaperCI,
		"peak_rss_mb":        peakRSSMB(),
	}
	n := len(out.Latency)
	notes := map[string]string{
		"setup_s":            fmt.Sprintf("median of %d set-ups", len(out.Setup)),
		"latency_p50_ms":     fmt.Sprintf("n=%d", n),
		"latency_tail_ms":    fmt.Sprintf("p%g, n=%d", p, n),
		"jobs_per_s":         fmt.Sprintf("n=%d", n),
		"time_to_paper_ci_s": "projected to rel. half-width 0.1",
		"peak_rss_mb":        "process maximum",
	}
	if p50, p90, rate, ok := grouped(out.Latency, out.Done); ok {
		values["latency_p50_ms"], values["latency_tail_ms"], values["jobs_per_s"] = median(p50), median(p90), median(rate)
		by := fmt.Sprintf("median over %d groups of %d, n=%d", len(p50), groupSize, n)
		notes["latency_p50_ms"], notes["latency_tail_ms"], notes["jobs_per_s"] = by, "p90, "+by, by
	}
	for _, m := range endToEnd {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(cfg.Log, "metric %-20s %14.4f %-4s (%s)\n", m.Name, v, m.Unit, notes[m.Name])
	}
	return res, nil
}
