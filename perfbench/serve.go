package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ahs/internal/config"
	"ahs/internal/fleet"
	"ahs/internal/obs"
	"ahs/internal/resultstore"
	"ahs/internal/rng"
	"ahs/internal/service"
	"ahs/internal/telemetry"
)

// Stream offsets of the serve workloads' generated inputs: timed
// operations, the traced half of a traced run, set-up warm-ups and the
// warm set never share a scenario.
const (
	streamTraced = 1 << 40
	streamWarmup = 2 << 40
	streamWarm   = 3 << 40
	streamDraw   = 4 << 40 // serve-warm clients' key draws
)

// serveScenario is a small evaluation: n=2, λ=0.01/hr, trips of 0.5 and
// 1 h, a few hundred batches. The seed makes it distinct.
func serveScenario(batches, seed uint64) *config.Scenario {
	return &config.Scenario{N: 2, LambdaPerHour: 0.01, TripHours: []float64{0.5, 1}, Batches: batches, Seed: seed}
}

// scenarioFor derives the scenario of one operation from the workload seed.
func scenarioFor(cfg runConfig, stream uint64) *config.Scenario {
	s := rng.NewSource(cfg.Seed).Stream(stream).Uint64() | 1 // 0 would mean "default seed"
	return serveScenario(cfg.Sizes.ServeBatches, s)
}

// serveProbes wraps the service's seams — Config.Eval, Config.Store and
// Config.Fleet — to count evaluations and, while recording, to add spans
// under the client operation that submitted the scenario.
type serveProbes struct {
	rec         *recorder
	parents     sync.Map // scenario hash → client operation span ID
	evaluations atomic.Int64
	puts        atomic.Int64
}

func (p *serveProbes) parentOf(hash string) uint64 {
	if v, ok := p.parents.Load(hash); ok {
		return v.(uint64)
	}
	return 0
}

func (p *serveProbes) eval(base service.EvalFunc) service.EvalFunc {
	return func(ctx context.Context, sc *config.Scenario, workers int, progress func(done, max uint64)) (*service.Result, error) {
		p.evaluations.Add(1)
		if !p.rec.enabled() {
			return base(ctx, sc, workers, progress)
		}
		hash, _ := sc.Hash()
		id := p.rec.id()
		start := time.Now()
		rounds := roundSpans(p.rec, id, start)
		res, err := base(ctx, sc, workers, func(done, max uint64) {
			rounds(done, max)
			if progress != nil {
				progress(done, max)
			}
		})
		p.rec.record(id, p.parentOf(hash), "service.eval", start, time.Now())
		return res, err
	}
}

// timedStore is the result store as the service sees it, with Get timed.
type timedStore struct {
	p *serveProbes
	s *resultstore.Store
}

func (t timedStore) Get(key string, value any) (bool, error) {
	start := time.Now()
	ok, err := t.s.Get(key, value)
	t.p.rec.record(0, t.p.parentOf(key), "resultstore.get", start, time.Now())
	return ok, err
}

func (t timedStore) Put(key string, value any) error { return t.s.Put(key, value) }

// timedFleet is the fleet node as the service sees it, with claims and
// result puts timed.
type timedFleet struct {
	p *serveProbes
	n *fleet.Node
}

func (t timedFleet) TryClaim(hash string, scenario []byte) (bool, string, error) {
	start := time.Now()
	ok, url, err := t.n.TryClaim(hash, scenario)
	t.p.rec.record(0, t.p.parentOf(hash), "fleet.claim", start, time.Now())
	return ok, url, err
}

func (t timedFleet) Release(hash string) { t.n.Release(hash) }

func (t timedFleet) PutResult(hash string, value []byte) error {
	start := time.Now()
	err := t.n.PutResult(hash, value)
	t.p.puts.Add(1)
	t.p.rec.record(0, t.p.parentOf(hash), "fleet.put", start, time.Now())
	return err
}

func (t timedFleet) Role() string { return t.n.Role() }

// serveStack is ahs-serve -store-dir D -fleet with flag defaults, in one
// process: a result-store writer, a one-member fleet node, the local
// backend and the service handler on a loopback listener.
type serveStack struct {
	dir      string
	store    *resultstore.Store
	node     *fleet.Node
	mgr      *service.Manager
	srv      *http.Server
	url      string
	client   *http.Client
	stopNode context.CancelFunc
	nodeDone chan struct{}
}

// startServe opens a fresh store in a new directory under cfg.WorkDir,
// writes fill into it, and starts the stack.
func startServe(cfg runConfig, probes *serveProbes, fill map[string]*service.Result) (*serveStack, error) {
	dir, err := os.MkdirTemp(cfg.WorkDir, "store-")
	if err != nil {
		return nil, err
	}
	st := &serveStack{dir: dir}
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntime(reg)
	const owner = "perfbench-serve"
	if err := fillStore(dir, owner, fill); err != nil {
		st.close()
		return nil, err
	}
	st.store, err = resultstore.Open(resultstore.Config{Dir: dir, Owner: owner, Telemetry: reg})
	if err != nil {
		st.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.node, err = fleet.New(fleet.Config{
		Dir:       dir,
		Owner:     owner,
		URL:       st.url,
		Store:     st.store,
		Heartbeat: 500 * time.Millisecond,
		Telemetry: reg,
		Submit: func(raw json.RawMessage) {
			var sc config.Scenario
			if json.Unmarshal(raw, &sc) == nil {
				_, _ = st.mgr.Submit(&sc) // adoption cannot happen in a one-member fleet
			}
		},
	})
	if err != nil {
		ln.Close()
		st.close()
		return nil, err
	}
	tracer := obs.NewTracer(obs.Config{SampleEvery: 1, MaxTraces: 256, MaxSpans: 512, Telemetry: reg})
	st.mgr = service.NewManager(service.Config{
		Workers:    2,
		QueueSize:  64,
		CacheSize:  256,
		JobTimeout: 30 * time.Minute,
		Telemetry:  reg,
		Tracer:     tracer,
		Eval:       probes.eval(service.EvaluateInto(reg)),
		Store:      timedStore{probes, st.store},
		Fleet:      timedFleet{probes, st.node},
	})
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(st.mgr))
	mux.Handle("/fleet/v1/", st.node.Handler())
	st.srv = &http.Server{Handler: mux, ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second}
	go st.srv.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	st.stopNode, st.nodeDone = cancel, make(chan struct{})
	go func() {
		defer close(st.nodeDone)
		st.node.Run(ctx)
	}()
	st.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	return st, nil
}

// fillStore writes results into the store directory before the stack opens
// it. The fill is preparation, not the path under test, so it skips the
// per-record fsync and syncs once at the end.
func fillStore(dir, owner string, fill map[string]*service.Result) error {
	if len(fill) == 0 {
		return nil
	}
	s, err := resultstore.Open(resultstore.Config{Dir: dir, Owner: owner, NoSync: true})
	if err != nil {
		return err
	}
	for hash, res := range fill {
		if err := s.Put(hash, res); err != nil {
			s.Close()
			return err
		}
	}
	if err := s.Sync(); err != nil {
		s.Close()
		return err
	}
	return s.Close()
}

// close shuts the stack down in ahs-serve's order and removes its store.
func (st *serveStack) close() {
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := st.srv.Shutdown(ctx); err != nil {
			st.srv.Close()
		}
		cancel()
		st.client.Transport.(*http.Transport).CloseIdleConnections()
	}
	if st.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = st.mgr.Shutdown(ctx) // past the budget jobs are cancelled; nothing is kept
		cancel()
	}
	if st.stopNode != nil {
		st.stopNode()
		<-st.nodeDone
	}
	if st.node != nil {
		st.node.Close()
	}
	if st.store != nil {
		st.store.Close()
	}
	os.RemoveAll(st.dir)
}

// evaluateAck is the part of the POST /v1/evaluate answer the client reads.
type evaluateAck struct {
	Code   int    `json:"-"` // HTTP status
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
}

// submit POSTs a scenario and decodes the acknowledgement, failing on a
// status other than 2xx.
func (st *serveStack) submit(body []byte) (evaluateAck, error) {
	var ack evaluateAck
	resp, err := st.client.Post(st.url+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		return ack, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return ack, fmt.Errorf("POST /v1/evaluate: %d %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	ack.Code = resp.StatusCode
	return ack, json.NewDecoder(resp.Body).Decode(&ack)
}

// submitFresh submits a scenario no tier holds. It must be queued (202),
// or, when the job finished before the handler answered, done without a
// cache hit (200).
func (st *serveStack) submitFresh(body []byte) (evaluateAck, error) {
	ack, err := st.submit(body)
	if err == nil && ack.Code != http.StatusAccepted && (ack.Status != string(service.StatusDone) || ack.Cached) {
		err = fmt.Errorf("fresh scenario answered %d %s cached=%v", ack.Code, ack.Status, ack.Cached)
	}
	return ack, err
}

// submitStored submits a scenario the store holds: it must answer 200
// with a done job served from a cache tier.
func (st *serveStack) submitStored(body []byte) (evaluateAck, error) {
	ack, err := st.submit(body)
	if err == nil && (ack.Code != http.StatusOK || ack.Status != string(service.StatusDone) || !ack.Cached) {
		err = fmt.Errorf("stored scenario answered %d %s cached=%v", ack.Code, ack.Status, ack.Cached)
	}
	return ack, err
}

// awaitResult follows GET /v1/jobs/{id}/stream, as ahs-sweep -server does,
// until the terminal result event, and returns its data.
func (st *serveStack) awaitResult(id string) ([]byte, error) {
	resp, err := st.client.Get(st.url + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET stream %s: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "result":
			data := []byte(strings.TrimPrefix(line, "data: "))
			_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
			return data, nil
		case strings.HasPrefix(line, "data: ") && event == "status":
			return nil, fmt.Errorf("job %s ended without a result: %s", id, strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("job %s: stream ended without a result", id)
}

// fetchResult GETs /v1/results/{id}, which must answer 200.
func (st *serveStack) fetchResult(id string) ([]byte, error) {
	resp, err := st.client.Get(st.url + "/v1/results/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/results/%s: %d", id, resp.StatusCode)
	}
	return body, nil
}

// canonicalResult re-encodes a Result document compactly; float64 values
// survive JSON exactly, so equal encodings mean bit-identical results.
func canonicalResult(doc []byte) ([]byte, error) {
	var r service.Result
	if err := json.Unmarshal(doc, &r); err != nil {
		return nil, err
	}
	return json.Marshal(&r)
}

// jobSpans adds the server-side phases of a finished job to the trace: the
// queue wait and the time from the job finishing until the client saw it.
func (st *serveStack) jobSpans(rec *recorder, parent uint64, id string, seen time.Time) {
	view, err := st.mgr.Job(id)
	if err != nil {
		return
	}
	at := func(s string) time.Time {
		t, _ := time.Parse(time.RFC3339Nano, s)
		return t
	}
	if sub, start := at(view.SubmittedAt), at(view.StartedAt); !sub.IsZero() && !start.IsZero() {
		rec.record(0, parent, "service.queue", sub, start)
	}
	if fin := at(view.FinishedAt); !fin.IsZero() && view.StartedAt != "" {
		rec.record(0, parent, "service.delivery", fin, seen)
	}
}

// serveLayers fills the per-layer metrics the serve workloads share.
func serveLayers(out *outcome, rec *recorder, opSpan string) {
	spans := rec.snapshot()
	out.Spans = spans
	for name, span := range map[string]string{
		"service.submit_ms":        "service.submit",
		"service.queue_wait_ms":    "service.queue",
		"service.eval_ms":          "service.eval",
		"service.delivery_wait_ms": "service.delivery",
		"fleet.claim_ms":           "fleet.claim",
		"fleet.put_ms":             "fleet.put",
		"resultstore.get_ms":       "resultstore.get",
		"mc.round_ms":              "mc.round",
	} {
		out.Layers[name] = median(durations(spans, span))
	}
	out.Layers["bench.op_self_ms"] = selfMedian(spans, opSpan)
}

func runServeCold(cfg runConfig) (*outcome, error) {
	probes := &serveProbes{rec: newRecorder()}
	rec := probes.rec
	rep := 0
	st, setup, err := repeatSetup(cfg.Sizes.SetupReps, func() (*serveStack, error) {
		st, err := startServe(cfg, probes, nil)
		if err != nil {
			return nil, err
		}
		// Warm-up: one job through the write path.
		rep++
		body, _ := json.Marshal(scenarioFor(cfg, streamWarmup+uint64(rep)))
		ack, err := st.submitFresh(body)
		if err == nil {
			_, err = st.awaitResult(ack.ID)
		}
		if err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	}, (*serveStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	type served struct {
		sc  *config.Scenario
		doc []byte
	}
	var (
		mu        sync.Mutex
		results   []served
		ttci      []float64
		submitted atomic.Int64
	)
	evals0 := probes.evaluations.Load()
	var tracedEvals0, tracedSubmitted0 int64
	var seg0, puts0 int64
	op := func(traced bool) opFunc {
		if traced {
			tracedEvals0, tracedSubmitted0 = probes.evaluations.Load(), submitted.Load()
			seg0, puts0 = st.store.Stats().SegmentBytes, probes.puts.Load()
		}
		return func(_, seq int) (time.Duration, error) {
			stream := uint64(seq)
			if traced {
				stream += streamTraced
			}
			sc := scenarioFor(cfg, stream)
			body, err := json.Marshal(sc)
			if err != nil {
				return 0, err
			}
			root := rec.id()
			if root != 0 {
				hash, _ := sc.Hash()
				probes.parents.Store(hash, root)
			}
			start := time.Now()
			ack, err := st.submitFresh(body)
			posted := time.Now()
			rec.record(0, root, "service.submit", start, posted)
			if err != nil {
				return posted.Sub(start), err
			}
			submitted.Add(1)
			doc, err := st.awaitResult(ack.ID)
			end := time.Now()
			rec.record(root, 0, "bench.job", start, end)
			if err != nil {
				return end.Sub(start), err
			}
			if root != 0 {
				st.jobSpans(rec, root, ack.ID, end)
			}
			mu.Lock()
			results = append(results, served{sc, doc})
			if !traced {
				ttci = append(ttci, ms(end.Sub(start))/1000*rhwFactor(doc))
			}
			mu.Unlock()
			return end.Sub(start), nil
		}
	}
	phases := timedPhases(cfg, rec, cfg.Procs, 1, op)
	out := &outcome{Setup: setup, Layers: map[string]float64{}}
	fold(out, phases)

	// Exactly once: one evaluation per distinct scenario submitted.
	if evals, subs := probes.evaluations.Load()-evals0, submitted.Load(); evals != subs {
		fmt.Fprintf(cfg.Log, "error: %d evaluations for %d distinct scenarios\n", evals, subs)
		out.Failed += int(max(evals-subs, subs-evals))
	}
	// Byte for byte against a direct evaluation of each scenario.
	var verr error
	forEach(len(results), cfg.Procs, func(i int) {
		r := results[i]
		want, err := service.Evaluate(context.Background(), r.sc, 1, nil)
		var wantDoc, gotDoc []byte
		if err == nil {
			wantDoc, err = json.Marshal(want)
		}
		if err == nil {
			gotDoc, err = canonicalResult(r.doc)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil || !bytes.Equal(wantDoc, gotDoc) {
			out.Failed++
			if verr == nil {
				verr = fmt.Errorf("scenario seed %d: served result differs from direct evaluation (%v)", r.sc.Seed, err)
			}
		}
	})
	if verr != nil {
		fmt.Fprintln(cfg.Log, "error:", verr)
	}
	out.TimeToPaperCI = median(ttci)

	if cfg.Traced {
		serveLayers(out, rec, "bench.job")
		if subs := submitted.Load() - tracedSubmitted0; subs > 0 {
			out.Layers["service.evaluations_per_scenario"] = float64(probes.evaluations.Load()-tracedEvals0) / float64(subs)
		}
		if puts := probes.puts.Load() - puts0; puts > 0 {
			out.Layers["resultstore.bytes_per_put"] = float64(st.store.Stats().SegmentBytes-seg0) / float64(puts)
		}
		sc := scenarioFor(cfg, streamTraced)
		build, err := buildMs(sc)
		if err != nil {
			return nil, err
		}
		out.Layers["core.build_ms"] = build
		job, err := scenarioJob(sc)
		if err != nil {
			return nil, err
		}
		if _, err := replayLayers(out.Layers, job, int(sc.Batches)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rhwFactor is (relative half-width at the last grid point / 0.1)², the
// factor by which a result's batch budget falls short of the paper's
// precision; 0 when the document does not decode.
func rhwFactor(doc []byte) float64 {
	var r service.Result
	if json.Unmarshal(doc, &r) != nil || len(r.Unsafety) == 0 {
		return 0
	}
	i := len(r.Unsafety) - 1
	if r.Unsafety[i] == 0 {
		return 0
	}
	rhw := (r.CIHi[i] - r.CILo[i]) / 2 / r.Unsafety[i] / 0.1
	return rhw * rhw
}

// warmSet is the serve-warm working set: scenarios, their request bodies
// and the results the store is filled with.
type warmSet struct {
	bodies  [][]byte
	hashes  []string
	want    [][]byte // canonical result encodings
	factors []float64
	fill    map[string]*service.Result
}

func buildWarmSet(cfg runConfig) (*warmSet, error) {
	n := cfg.Sizes.WarmResults
	ws := &warmSet{
		bodies:  make([][]byte, n),
		hashes:  make([]string, n),
		want:    make([][]byte, n),
		factors: make([]float64, n),
		fill:    make(map[string]*service.Result, n),
	}
	results := make([]*service.Result, n)
	errs := make([]error, n)
	forEach(n, cfg.Procs, func(i int) {
		sc := scenarioFor(cfg, streamWarm+uint64(i))
		ws.bodies[i], errs[i] = json.Marshal(sc)
		if errs[i] == nil {
			ws.hashes[i], errs[i] = sc.Hash()
		}
		if errs[i] == nil {
			results[i], errs[i] = service.Evaluate(context.Background(), sc, 1, nil)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		doc, err := json.Marshal(results[i])
		if err != nil {
			return nil, err
		}
		ws.want[i] = doc
		ws.factors[i] = rhwFactor(doc)
		ws.fill[ws.hashes[i]] = results[i]
	}
	return ws, nil
}

func runServeWarm(cfg runConfig) (*outcome, error) {
	start := time.Now()
	ws, err := buildWarmSet(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Log, "inputs: %d stored results evaluated in %.3f s\n", len(ws.want), time.Since(start).Seconds())
	probes := &serveProbes{rec: newRecorder()}
	rec := probes.rec
	st, setup, err := repeatSetup(cfg.Sizes.SetupReps, func() (*serveStack, error) {
		st, err := startServe(cfg, probes, ws.fill)
		if err != nil {
			return nil, err
		}
		// Warm-up: read every stored result once through the store tier,
		// which leaves the LRU as full as the timed phase keeps it.
		for _, body := range ws.bodies {
			ack, err := st.submitStored(body)
			if err == nil {
				_, err = st.fetchResult(ack.ID)
			}
			if err != nil {
				st.close()
				return nil, err
			}
		}
		return st, nil
	}, (*serveStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	var memHits, storeHits, tracedOps atomic.Int64
	var mu sync.Mutex
	var ttci []float64
	evals0 := probes.evaluations.Load()
	op := func(traced bool) opFunc {
		// One draw stream per client, so each client's sequence of keys is
		// fixed by the workload seed. The draw is uniform: a cyclic order
		// over twice the LRU's capacity would never hit memory.
		draws := make([]*rng.Stream, cfg.Procs)
		for c := range draws {
			salt := uint64(c)
			if traced {
				salt += streamTraced
			}
			draws[c] = rng.NewSource(cfg.Seed).Stream(streamDraw + salt)
		}
		return func(client, _ int) (time.Duration, error) {
			i := draws[client].Intn(len(ws.bodies))
			root := rec.id()
			if root != 0 {
				probes.parents.Store(ws.hashes[i], root)
			}
			start := time.Now()
			ack, err := st.submitStored(ws.bodies[i])
			posted := time.Now()
			rec.record(0, root, "service.submit", start, posted)
			if err != nil {
				return posted.Sub(start), err
			}
			doc, err := st.fetchResult(ack.ID)
			end := time.Now()
			rec.record(0, root, "service.fetch", posted, end)
			rec.record(root, 0, "bench.job", start, end)
			if err != nil {
				return end.Sub(start), err
			}
			got, err := canonicalResult(doc)
			if err != nil {
				return end.Sub(start), err
			}
			if !bytes.Equal(got, ws.want[i]) {
				return end.Sub(start), fmt.Errorf("result %s differs from the stored one", ack.ID)
			}
			if root != 0 {
				tracedOps.Add(1)
				if view, err := st.mgr.Job(ack.ID); err == nil {
					switch view.CacheTier {
					case "memory":
						memHits.Add(1)
					case "store":
						storeHits.Add(1)
					}
				}
			}
			if !traced {
				mu.Lock()
				ttci = append(ttci, ms(end.Sub(start))/1000*ws.factors[i])
				mu.Unlock()
			}
			return end.Sub(start), nil
		}
	}
	phases := timedPhases(cfg, rec, cfg.Procs, 1, op)
	out := &outcome{Setup: setup, Layers: map[string]float64{}}
	fold(out, phases)
	if evals := probes.evaluations.Load() - evals0; evals != 0 {
		fmt.Fprintf(cfg.Log, "error: %d evaluations on the read path\n", evals)
		out.Failed += int(evals)
	}
	out.TimeToPaperCI = median(ttci)
	if cfg.Traced {
		serveLayers(out, rec, "bench.job")
		if n := tracedOps.Load(); n > 0 {
			out.Layers["service.memory_hit_ratio"] = float64(memHits.Load()) / float64(n)
			out.Layers["service.store_hit_ratio"] = float64(storeHits.Load()) / float64(n)
			fmt.Fprintf(cfg.Log, "cache tiers: %d memory + %d store hits of %d traced requests\n", memHits.Load(), storeHits.Load(), n)
		}
	}
	return out, nil
}
