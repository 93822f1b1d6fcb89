package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ahs/internal/cluster"
	"ahs/internal/config"
	"ahs/internal/core"
	"ahs/internal/mc"
	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/sim"
	"ahs/internal/telemetry"
)

// seedOrder shuffles paperSeeds with the workload seed.
func seedOrder(seed uint64) []uint64 {
	order := append([]uint64(nil), paperSeeds...)
	s := rng.NewStream(seed)
	for i := len(order) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// curveRun collects the curves of a curve workload for its checks.
type curveRun struct {
	mu     sync.Mutex
	first  map[uint64]*mc.Curve   // first curve per seed
	all    map[uint64][]*mc.Curve // every curve per seed
	traced *mc.Curve              // first curve of the traced phase
}

func newCurveRun() *curveRun {
	return &curveRun{first: map[uint64]*mc.Curve{}, all: map[uint64][]*mc.Curve{}}
}

// add keeps the curve; a repeated seed must reproduce its first curve
// bit for bit.
func (r *curveRun) add(seed uint64, c *mc.Curve, traced bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if traced && r.traced == nil {
		r.traced = c
	}
	r.all[seed] = append(r.all[seed], c)
	if f, ok := r.first[seed]; ok {
		if !sameBits(f, c) {
			return fmt.Errorf("seed %d: repeated curve differs from the first", seed)
		}
		return nil
	}
	r.first[seed] = c
	return nil
}

// timeToPaperCI projects the median curve time to the §4.1 relative
// half-width of 0.1 at the last grid point, from the pooled variance of
// the run's distinct seeds.
func (r *curveRun) timeToPaperCI(latencyMs []float64) float64 {
	curves := make([]*mc.Curve, 0, len(r.first))
	for _, seed := range paperSeeds {
		if c, ok := r.first[seed]; ok {
			curves = append(curves, c)
		}
	}
	if len(curves) == 0 {
		return 0
	}
	rhw := pooledRelHalfWidth(curves, len(curves[0].Mean)-1)
	return median(latencyMs) / 1000 * (rhw / 0.1) * (rhw / 0.1)
}

func runPaperCurve(cfg runConfig) (*outcome, error) {
	order := seedOrder(cfg.Seed)
	// Set-up builds the model and pushes one warm-up round through it, so
	// the timed curves start on a warm process.
	_, setup, err := repeatSetup(cfg.Sizes.SetupReps, func() (struct{}, error) {
		_, err := directCurve(paperScenario(cfg.Sizes.WarmupBatches, order[0]), cfg.Procs, nil, 0)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	run := newCurveRun()
	identical := atomic.Int64{}
	op := func(traced bool) opFunc {
		return func(_, seq int) (time.Duration, error) {
			seed := order[seq%len(order)]
			root := rec.id()
			start := time.Now()
			curve, err := directCurve(paperScenario(cfg.Sizes.CurveBatches, seed), cfg.Procs, rec, root)
			d := time.Since(start)
			rec.record(root, 0, "bench.curve", start, start.Add(d))
			if err != nil {
				return d, err
			}
			if err := run.add(seed, curve, traced); err != nil {
				return d, err
			}
			n, err := cfg.Ref.check(seed, curve)
			identical.Add(int64(n))
			return d, err
		}
	}
	phases := timedPhases(cfg, rec, 1, len(order), op)
	out := &outcome{Setup: setup, Layers: map[string]float64{}}
	fold(out, phases)
	fmt.Fprintf(cfg.Log, "reference: %d of %d points bit-identical\n", identical.Load(), out.Attempted*len(cfg.Ref.Times))
	out.TimeToPaperCI = run.timeToPaperCI(out.Latency)
	if cfg.Traced {
		if err := curveLayers(cfg, out, rec, run, order[0]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// curveLayers fills the per-layer metrics the curve workloads share: model
// build time, a replay of the first traced curve's first round, and the
// round and span statistics of the traced phase.
func curveLayers(cfg runConfig, out *outcome, rec *recorder, run *curveRun, seed uint64) error {
	spans := rec.snapshot()
	out.Spans = spans
	sc := paperScenario(cfg.Sizes.CurveBatches, seed)
	build, err := buildMs(sc)
	if err != nil {
		return err
	}
	out.Layers["core.build_ms"] = build
	job, err := scenarioJob(sc)
	if err != nil {
		return err
	}
	sum, err := replayLayers(out.Layers, job, cfg.Sizes.ReplayBatches)
	if err != nil {
		return err
	}
	out.Layers["mc.round_ms"] = median(durations(spans, "mc.round"))
	if r := firstRound(spans); r > 0 && int(job.CheckEvery) <= cfg.Sizes.ReplayBatches {
		out.Layers["mc.parallel_efficiency"] = sum / (float64(cfg.Procs) * r)
	}
	if run.traced != nil {
		iv := run.traced.Intervals[len(run.traced.Intervals)-1]
		out.Layers["mc.rel_halfwidth_10h"] = iv.RelativeHalfWidth()
	}
	out.Layers["bench.op_self_ms"] = selfMedian(spans, "bench.curve")
	return nil
}

// firstRound is the duration in nanoseconds of the first mc.round span of
// the earliest traced operation, 0 when there is none.
func firstRound(spans []span) float64 {
	var root *span
	for i := range spans {
		if spans[i].Parent == 0 && (root == nil || spans[i].Start < root.Start) {
			root = &spans[i]
		}
	}
	var first *span
	for i := range spans {
		s := &spans[i]
		if root != nil && s.Parent == root.ID && s.Name == "mc.round" && (first == nil || s.Start < first.Start) {
			first = s
		}
	}
	if first == nil {
		return 0
	}
	return float64(first.End - first.Start)
}

// scenarioJob builds the Monte-Carlo job the scenario evaluates.
func scenarioJob(sc *config.Scenario) (mc.Job, error) {
	p, err := sc.Params()
	if err != nil {
		return mc.Job{}, err
	}
	sys, err := core.Build(p)
	if err != nil {
		return mc.Job{}, err
	}
	job, err := sys.UnsafetyJob(sc.EvalOptions(sys))
	if err != nil {
		return mc.Job{}, err
	}
	if job.CheckEvery == 0 {
		job.CheckEvery = 2000 // the mc default round
	}
	return job, nil
}

// buildMs is the median time of core.Build on the scenario's model.
func buildMs(sc *config.Scenario) (float64, error) {
	p, err := sc.Params()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < 21; i++ {
		start := time.Now()
		if _, err := core.Build(p); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs), nil
}

// readCounter counts place reads through a marking's accessors.
type readCounter struct{ n uint64 }

func (c *readCounter) ReadPlace(san.PlaceID)        { c.n++ }
func (c *readCounter) WritePlace(san.PlaceID)       {}
func (c *readCounter) ReadExtPlace(san.ExtPlaceID)  { c.n++ }
func (c *readCounter) WriteExtPlace(san.ExtPlaceID) {}

// replay re-runs the job's first n batches one after another on the same
// streams the estimator uses, optionally with an access observer on the
// runner's marking, and returns per-trajectory times in nanoseconds and the
// total number of timed events.
func replay(job mc.Job, n int, obs san.AccessObserver) ([]float64, uint64, error) {
	runner, err := sim.NewRunner(job.Model, job.Sim)
	if err != nil {
		return nil, 0, err
	}
	runner.Marking().SetObserver(obs)
	src := rng.NewSource(job.Seed)
	times := make([]float64, 0, n)
	var events uint64
	for i := 0; i < n; i++ {
		start := time.Now()
		res, err := runner.Run(src.Stream(uint64(i)))
		if err != nil {
			return nil, 0, err
		}
		times = append(times, float64(time.Since(start).Nanoseconds()))
		events += res.Steps
	}
	return times, events, nil
}

// replayLayers fills the sim and san metrics from two replays of the same
// trajectories, one plain and one counting place reads, and returns the
// plain replay's total time in nanoseconds.
func replayLayers(layers map[string]float64, job mc.Job, n int) (float64, error) {
	plain, events, err := replay(job, n, nil)
	if err != nil {
		return 0, err
	}
	var reads readCounter
	observed, _, err := replay(job, n, &reads)
	if err != nil {
		return 0, err
	}
	var sumPlain, sumObserved float64
	for i := range plain {
		sumPlain += plain[i]
		sumObserved += observed[i]
	}
	layers["sim.traj_us_p50"] = percentile(plain, 50) / 1e3
	layers["sim.traj_us_p99"] = percentile(plain, 99) / 1e3
	if events > 0 {
		layers["sim.event_ns"] = sumPlain / float64(events)
		layers["san.place_reads_per_event"] = float64(reads.n) / float64(events)
	}
	layers["sim.events_per_traj"] = float64(events) / float64(n)
	layers["trace.observer_overhead_ratio"] = sumObserved/sumPlain - 1
	return sumPlain, nil
}

// leaseProbe wraps the worker's HTTP transport to observe the pull
// protocol from outside: it signals every empty lease poll (the worker is
// idle), counts leased chunks and, while recording, adds spans for lease
// and complete round trips and the simulation between them.
type leaseProbe struct {
	base http.RoundTripper
	rec  *recorder
	idle chan struct{}

	chunks, emptyPolls atomic.Int64
	refused            atomic.Int64 // responses other than 2xx

	mu        sync.Mutex
	parent    uint64    // span of the operation in flight
	submitted time.Time // when it was submitted; zero after its first lease
	leasedAt  time.Time
}

func newLeaseProbe(rec *recorder) *leaseProbe {
	return &leaseProbe{base: &http.Transport{}, rec: rec, idle: make(chan struct{}, 1)}
}

func (p *leaseProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	path := req.URL.Path
	if path == cluster.PathComplete {
		p.mu.Lock()
		p.rec.record(0, p.parent, "cluster.chunk", p.leasedAt, start)
		p.mu.Unlock()
	}
	resp, err := p.base.RoundTrip(req)
	if err == nil && resp.StatusCode/100 != 2 {
		p.refused.Add(1)
	}
	if err != nil || path != cluster.PathLease && path != cluster.PathComplete {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	end := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case path == cluster.PathComplete:
		p.rec.record(0, p.parent, "cluster.complete", start, end)
	case bytes.Contains(body, []byte(`"lease"`)):
		p.chunks.Add(1)
		p.leasedAt = end
		p.rec.record(0, p.parent, "cluster.lease", start, end)
		if !p.submitted.IsZero() {
			p.rec.record(0, p.parent, "cluster.first_lease_wait", p.submitted, end)
			p.submitted = time.Time{}
		}
	default:
		p.emptyPolls.Add(1)
		select {
		case p.idle <- struct{}{}:
		default:
		}
	}
	return resp, nil
}

// awaitIdle waits for the worker's next empty poll, so a job submitted
// right after finds the worker registered and idle.
func (p *leaseProbe) awaitIdle(timeout time.Duration) error {
	select {
	case <-p.idle:
	default:
	}
	select {
	case <-p.idle:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("cluster worker not idle after %v", timeout)
	}
}

func (p *leaseProbe) begin(parent uint64, at time.Time) {
	p.mu.Lock()
	p.parent, p.submitted = parent, at
	p.mu.Unlock()
}

// clusterStack is the ahs-serve -cluster -journal-dir topology in one
// process: a journaled coordinator behind a loopback HTTP server and one
// registered worker.
type clusterStack struct {
	dir     string
	journal *cluster.Journal
	coord   *cluster.Coordinator
	srv     *http.Server
	probe   *leaseProbe
	cancel  context.CancelFunc
	done    chan error
}

func startCluster(cfg runConfig, rec *recorder, warmup *config.Scenario) (*clusterStack, error) {
	dir, err := os.MkdirTemp(cfg.WorkDir, "journal-")
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	st := &clusterStack{dir: dir, probe: newLeaseProbe(rec)}
	st.journal, err = cluster.OpenJournal(cluster.JournalConfig{Dir: dir, Telemetry: reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	st.coord = cluster.New(cluster.Config{Journal: st.journal, Telemetry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/cluster/v1/", st.coord.Handler())
	st.srv = &http.Server{Handler: mux}
	go st.srv.Serve(ln)
	worker := &cluster.Worker{
		Coordinator: "http://" + ln.Addr().String(),
		ID:          "perfbench-worker",
		SimWorkers:  cfg.Procs,
		Client:      &http.Client{Timeout: 30 * time.Second, Transport: st.probe},
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel, st.done = cancel, make(chan error, 1)
	go func() { st.done <- worker.Run(ctx) }()
	if err := st.probe.awaitIdle(10 * time.Second); err != nil {
		st.close()
		return nil, err
	}
	if _, _, err := st.coord.UnsafetyCurve(context.Background(), warmup, cfg.Procs, nil); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close stops the worker and waits for it, then the server, coordinator
// and journal, and removes the journal directory.
func (st *clusterStack) close() {
	if st.cancel != nil {
		st.cancel()
		<-st.done
	}
	if st.srv != nil {
		st.srv.Close()
	}
	st.probe.base.(*http.Transport).CloseIdleConnections()
	st.coord.Close()
	st.journal.Close()
	os.RemoveAll(st.dir)
}

func runClusterCurve(cfg runConfig) (*outcome, error) {
	order := seedOrder(cfg.Seed)
	rec := newRecorder()
	st, setup, err := repeatSetup(cfg.Sizes.SetupReps, func() (*clusterStack, error) {
		return startCluster(cfg, rec, paperScenario(cfg.Sizes.WarmupBatches, order[0]))
	}, (*clusterStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	run := newCurveRun()
	refused0 := st.probe.refused.Load()
	var ops, chunks0, empty0 atomic.Int64
	op := func(traced bool) opFunc {
		return func(_, seq int) (time.Duration, error) {
			seed := order[seq%len(order)]
			sc := paperScenario(cfg.Sizes.CurveBatches, seed)
			if err := st.probe.awaitIdle(10 * time.Second); err != nil {
				return 0, err
			}
			if traced && ops.Add(1) == 1 {
				chunks0.Store(st.probe.chunks.Load())
				empty0.Store(st.probe.emptyPolls.Load())
			}
			root := rec.id()
			start := time.Now()
			st.probe.begin(root, start)
			var progress func(done, max uint64)
			if traced {
				progress = roundSpans(rec, root, start)
			}
			curve, _, err := st.coord.UnsafetyCurve(context.Background(), sc, cfg.Procs, progress)
			d := time.Since(start)
			rec.record(root, 0, "bench.curve", start, start.Add(d))
			if err != nil {
				return d, err
			}
			return d, run.add(seed, curve, traced)
		}
	}
	phases := timedPhases(cfg, rec, 1, len(order), op)
	chunks, empty := st.probe.chunks.Load()-chunks0.Load(), st.probe.emptyPolls.Load()-empty0.Load()
	out := &outcome{Setup: setup, Layers: map[string]float64{}}
	fold(out, phases)
	if n := st.probe.refused.Load() - refused0; n > 0 {
		fmt.Fprintf(cfg.Log, "error: the coordinator refused %d worker requests\n", n)
		out.Failed += int(n)
	}

	// Every cluster curve must be bit-identical to the direct path's curve
	// for the same seed, evaluated here after the timed phase.
	for seed, curves := range run.all {
		direct, err := directCurve(paperScenario(cfg.Sizes.CurveBatches, seed), cfg.Procs, nil, 0)
		if err != nil {
			return nil, err
		}
		for _, c := range curves {
			if !sameBits(c, direct) {
				out.Failed++
				fmt.Fprintf(cfg.Log, "error: cluster curve for seed %d differs from the direct path\n", seed)
			}
		}
	}
	out.TimeToPaperCI = run.timeToPaperCI(out.Latency)
	if cfg.Traced {
		if err := curveLayers(cfg, out, rec, run, order[0]); err != nil {
			return nil, err
		}
		spans := out.Spans
		n := float64(ops.Load())
		out.Layers["cluster.first_lease_wait_ms"] = median(durations(spans, "cluster.first_lease_wait"))
		out.Layers["cluster.lease_rtt_ms"] = median(durations(spans, "cluster.lease"))
		out.Layers["cluster.complete_rtt_ms"] = median(durations(spans, "cluster.complete"))
		out.Layers["cluster.chunks"] = float64(chunks) / n
		out.Layers["cluster.empty_polls"] = float64(empty) / n
		out.Layers["mc.parallel_efficiency"] = 0 // rounds run inside the worker's chunks
	}
	return out, nil
}
