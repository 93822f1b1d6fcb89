// Package sim executes Stochastic Activity Network trajectories.
//
// All timed activities in the paper's models are exponentially distributed
// (§4.1), so the executor uses race semantics with memoryless resampling:
// in each marking it computes the enabled activities' rates, samples the
// holding time from the total rate and picks the completing activity
// proportionally to its rate. This is stochastically identical to
// maintaining per-activity residual clocks for exponential activities, and
// it makes importance sampling exact: biasing an activity's rate by a
// constant factor yields a per-step likelihood ratio
//
//	(λ_k/λ'_k) · exp((Λ' − Λ)·τ)
//
// where λ_k is the completing activity's rate, Λ the total enabled rate,
// primes denote biased quantities and τ the sampled holding time. The
// executor accumulates the log likelihood ratio along the trajectory so
// rare-event measures (the paper's unsafety at λ = 1e-6/hr and below) can
// be estimated without the astronomically many batches naive simulation
// would need.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/telemetry"
)

// ErrLivelock is returned when instantaneous activities keep firing without
// reaching a stable marking.
var ErrLivelock = errors.New("sim: instantaneous activity livelock")

// ErrStepLimit is returned when a trajectory exceeds Options.MaxSteps.
var ErrStepLimit = errors.New("sim: step limit exceeded")

// Observer receives trajectory events. Implementations must not retain the
// marking across calls and must not mutate it.
type Observer interface {
	// OnEvent is called after each activity completion with the simulation
	// time, the completed activity's name and the resulting marking.
	OnEvent(t float64, activity string, mk *san.Marking)
}

// FactorFn returns a marking-dependent bias multiplier. It must return
// strictly positive finite values; returning 1 leaves the rate unchanged.
// Like san.Predicate and san.RateFn it must be a pure function of the
// marking, read only through the marking's accessors: the Runner reuses a
// factor until a place it read is written.
type FactorFn func(mk *san.Marking) float64

// Bias specifies importance-sampling rate multipliers per timed activity,
// either constant or marking-dependent (adaptive forcing, e.g. "force
// failures only while fewer than two are active"). The zero value (or nil
// pointer) means no biasing.
//
// Marking-dependent factors are sound because the executor recomputes both
// the original and the biased total rate in every visited marking and
// accumulates the per-step likelihood ratio accordingly.
type Bias struct {
	factors map[int]float64  // timed activity index -> constant multiplier
	fns     map[int]FactorFn // timed activity index -> adaptive multiplier
}

// NewBias returns an empty bias specification.
func NewBias() *Bias {
	return &Bias{factors: make(map[int]float64), fns: make(map[int]FactorFn)}
}

// SetByName sets the multiplier for the named timed activity. It returns an
// error if the activity does not exist in the model or the factor is not
// strictly positive and finite.
func (b *Bias) SetByName(m *san.Model, name string, factor float64) error {
	idx := m.TimedIndex(name)
	if idx < 0 {
		return fmt.Errorf("sim: no timed activity %q", name)
	}
	return b.Set(idx, factor)
}

// Set sets the multiplier for the timed activity with the given index.
func (b *Bias) Set(index int, factor float64) error {
	if !(factor > 0) || math.IsInf(factor, 1) {
		return fmt.Errorf("sim: invalid bias factor %v", factor)
	}
	b.factors[index] = factor
	delete(b.fns, index)
	return nil
}

// SetFn installs a marking-dependent multiplier for the timed activity with
// the given index, replacing any constant factor.
func (b *Bias) SetFn(index int, fn FactorFn) error {
	if fn == nil {
		return fmt.Errorf("sim: nil bias factor function")
	}
	b.fns[index] = fn
	delete(b.factors, index)
	return nil
}

// SetFnByName installs a marking-dependent multiplier for the named timed
// activity.
func (b *Bias) SetFnByName(m *san.Model, name string, fn FactorFn) error {
	idx := m.TimedIndex(name)
	if idx < 0 {
		return fmt.Errorf("sim: no timed activity %q", name)
	}
	return b.SetFn(idx, fn)
}

// Factor returns the constant multiplier for a timed activity index
// (1 by default or when the activity uses an adaptive factor).
func (b *Bias) Factor(index int) float64 {
	if b == nil || b.factors == nil {
		return 1
	}
	if f, ok := b.factors[index]; ok {
		return f
	}
	return 1
}

// FactorIn returns the multiplier for a timed activity in a marking.
func (b *Bias) FactorIn(index int, mk *san.Marking) (float64, error) {
	if b == nil {
		return 1, nil
	}
	if fn, ok := b.fns[index]; ok {
		f := fn(mk)
		if !(f > 0) || math.IsInf(f, 1) {
			return 0, fmt.Errorf("sim: adaptive bias factor %v for activity %d", f, index)
		}
		return f, nil
	}
	if f, ok := b.factors[index]; ok {
		return f, nil
	}
	return 1, nil
}

// IsNeutral reports whether the bias can be statically proven to change no
// rates (adaptive factors are conservatively treated as non-neutral).
func (b *Bias) IsNeutral() bool {
	if b == nil {
		return true
	}
	if len(b.fns) > 0 {
		return false
	}
	for _, f := range b.factors {
		if f != 1 {
			return false
		}
	}
	return true
}

// Probe samples a marking-valued function at fixed time points along a
// trajectory. After Run, Values[i] holds the sampled value at Times[i] and
// Weights[i] the trajectory's likelihood ratio there (1 without biasing).
type Probe struct {
	// Times are the sampling instants; they must be sorted ascending and
	// non-negative.
	Times []float64
	// Value evaluates the measured quantity in a marking.
	Value func(mk *san.Marking) float64
	// Values and Weights are outputs, (re)allocated by Run.
	Values  []float64
	Weights []float64
}

// Options configures trajectory execution.
type Options struct {
	// MaxTime ends the trajectory (required, > 0).
	MaxTime float64
	// MaxSteps guards against runaway models; 0 means 50 million.
	MaxSteps uint64
	// MaxInstantFirings guards against instantaneous livelock per event
	// epoch; 0 means 100000.
	MaxInstantFirings int
	// Stop, when non-nil, ends the trajectory as soon as the predicate
	// holds (checked after initialisation and after every completion).
	// Probe times not yet reached are then filled with the value of the
	// stopped marking and the likelihood ratio frozen at the stopping
	// time; this is the standard unbiased first-passage estimator for
	// absorbing measures.
	Stop san.Predicate
	// Bias applies importance sampling to timed-activity rates.
	Bias *Bias
	// Observer, when non-nil, receives every completion event.
	Observer Observer
	// Sink, when non-nil, counts every timed-activity completion under
	// telemetry.MetricActivityFirings. Unlike Observer it sees only the
	// activity name, which keeps the disabled path to a single nil check
	// and the enabled path allocation-free.
	Sink telemetry.Sink
}

// Result summarises one executed trajectory.
type Result struct {
	// End is the time at which execution stopped (MaxTime, the stop
	// predicate instant, or the deadlock instant).
	End float64
	// Steps counts timed-activity completions.
	Steps uint64
	// InstantFirings counts instantaneous-activity completions.
	InstantFirings uint64
	// Stopped reports whether the stop predicate ended the run.
	Stopped bool
	// StopTime is the first-passage time (valid when Stopped).
	StopTime float64
	// StopWeight is the likelihood ratio at StopTime (1 without biasing).
	StopWeight float64
	// Deadlocked reports that no timed activity was enabled before MaxTime.
	Deadlocked bool
}

// instantEngine fires enabled instantaneous activities in priority order,
// shared by the race-semantics Runner and the event-queue GeneralRunner.
type instantEngine struct {
	model      *san.Model
	order      []int // instantaneous activity indices sorted by priority
	maxFirings int
	weights    []float64
}

func newInstantEngine(model *san.Model, maxFirings int) *instantEngine {
	e := &instantEngine{model: model, maxFirings: maxFirings}
	e.order = make([]int, model.NumInstant())
	for i := range e.order {
		e.order[i] = i
	}
	sort.SliceStable(e.order, func(a, b int) bool {
		return model.Instant(e.order[a]).Priority < model.Instant(e.order[b]).Priority
	})
	return e
}

// fireAll fires enabled instantaneous activities until none is enabled.
func (e *instantEngine) fireAll(mk *san.Marking, stream *rng.Stream, res *Result) error {
	firings := 0
	for {
		fired := false
		for _, idx := range e.order {
			act := e.model.Instant(idx)
			if !act.EnabledIn(mk) {
				continue
			}
			caseIdx, err := e.chooseCase(act.Name, act.Cases, mk, stream)
			if err != nil {
				return err
			}
			san.FireInstant(act, caseIdx, mk)
			res.InstantFirings++
			firings++
			if firings > e.maxFirings {
				return fmt.Errorf("%w after %d firings (last %q)", ErrLivelock, firings, act.Name)
			}
			fired = true
			break // restart the priority scan from the top
		}
		if !fired {
			return nil
		}
	}
}

func (e *instantEngine) chooseCase(activity string, cases []san.Case, mk *san.Marking, stream *rng.Stream) (int, error) {
	ws, err := san.CaseWeightsFor(activity, cases, mk, e.weights)
	if err != nil {
		return 0, err
	}
	e.weights = ws
	if len(ws) == 1 {
		return 0, nil
	}
	return stream.Choice(ws), nil
}

// Runner executes trajectories of one model. A Runner is not safe for
// concurrent use; create one per goroutine.
//
// Enabling is incremental: each timed activity's gate, rate and bias factor
// are evaluated under a san.Tracker scope, which records the places they
// read. After an event, scanTimed re-evaluates only the activities whose
// read places were written and reuses the cached rates of the rest. Since
// the cached values are exactly what a fresh evaluation would return (see
// san.Tracker), trajectories are bit-identical to re-evaluating everything.
type Runner struct {
	_ [128]byte // keep neighbours' writes off enabled's cache line

	model    *san.Model
	opts     Options
	instants *instantEngine
	marking  *san.Marking
	initial  *san.Marking

	track    *san.Tracker
	tracking bool
	// rates and biased hold each timed activity's last evaluated original
	// and biased rate, 0 while the activity is disabled; enabled counts the
	// activities with a positive rate. rateSums and biasedSums are their
	// running sums in index order, so the last entries are the totals.
	rates      []float64
	biased     []float64
	rateSums   []float64
	biasedSums []float64
	enabled    int

	_ [128]byte
}

// NewRunner validates options and returns a Runner for the model.
func NewRunner(model *san.Model, opts Options) (*Runner, error) {
	if !(opts.MaxTime > 0) {
		return nil, fmt.Errorf("sim: MaxTime must be positive, got %v", opts.MaxTime)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 50_000_000
	}
	if opts.MaxInstantFirings == 0 {
		opts.MaxInstantFirings = 100_000
	}
	for i := 0; i < model.NumTimed(); i++ {
		if act := model.Timed(i); !act.Exponential() {
			return nil, fmt.Errorf("sim: activity %q has a general delay distribution; use NewGeneralRunner", act.Name)
		}
	}
	n := model.NumTimed()
	// Pad the cached rates like the tracker's bitsets: they change on
	// every event, and runners on other cores must not share their lines.
	const pad = 16
	buf := make([]float64, 4*n+2*pad)[pad : pad+4*n]
	r := &Runner{
		model:      model,
		opts:       opts,
		initial:    model.InitialMarking(),
		instants:   newInstantEngine(model, opts.MaxInstantFirings),
		track:      san.NewTracker(model, n),
		tracking:   true,
		rates:      buf[:n:n],
		biased:     buf[n : 2*n : 2*n],
		rateSums:   buf[2*n : 3*n : 3*n],
		biasedSums: buf[3*n : 4*n : 4*n],
	}
	r.marking = r.initial.Clone()
	r.marking.SetTracker(r.track)
	return r, nil
}

// SetTracking switches incremental enabling on (the default) or off. Off,
// every scan re-evaluates every timed activity: the reference the
// incremental scan must match bit for bit.
func (r *Runner) SetTracking(on bool) {
	r.tracking = on
	if on {
		r.marking.SetTracker(r.track)
	} else {
		r.marking.SetTracker(nil)
		r.track.MarkAll()
	}
}

// Model returns the model being executed.
func (r *Runner) Model() *san.Model { return r.model }

// scanTimed brings the cached rates up to date with the current marking,
// re-evaluating the stale activities in ascending index order, and returns
// the original and biased total rates.
//
// The totals are running sums over all activities in index order. A
// disabled activity adds +0, which leaves a float sum unchanged, so each
// running sum equals the sum over the enabled activities alone, the order
// a full scan adds them in. Entries below the lowest changed activity
// depend only on unchanged inputs and keep their bits; the rest are
// re-summed.
func (r *Runner) scanTimed() (total, biasedTotal float64, err error) {
	if !r.tracking {
		r.track.MarkAll()
	}
	n := len(r.rates)
	lo := n // lowest activity whose cached rates changed
	stale := r.track.Stale()
	for w, word := range stale {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			changed, err := r.evaluate(i)
			if err != nil {
				r.track.MarkAll() // the failed evaluation left its cache stale
				r.resum(lo)
				return 0, 0, err
			}
			if changed && lo == n {
				lo = i
			}
		}
		stale[w] = 0
	}
	r.resum(lo)
	if n > 0 {
		total, biasedTotal = r.rateSums[n-1], r.biasedSums[n-1]
	}
	if crossCheck {
		r.checkScan(total, biasedTotal)
	}
	return total, biasedTotal, nil
}

// resum recomputes the running sums from activity lo on.
func (r *Runner) resum(lo int) {
	var acc, bacc float64
	if lo > 0 {
		acc, bacc = r.rateSums[lo-1], r.biasedSums[lo-1]
	}
	n := len(r.rates)
	rates, biased, sums, bsums := r.rates[:n], r.biased[:n], r.rateSums[:n], r.biasedSums[:n]
	for i := lo; i < n; i++ {
		acc += rates[i]
		bacc += biased[i]
		sums[i], bsums[i] = acc, bacc
	}
}

// evaluate re-runs timed activity i's gate, rate and bias factor, with the
// reads attributed to i, caches the result and reports whether it changed.
func (r *Runner) evaluate(i int) (changed bool, err error) {
	act := r.model.Timed(i)
	r.track.Begin(i)
	rate, b, err := r.rateOf(i, act)
	r.track.End()
	if err != nil {
		return false, err
	}
	if was := r.rates[i] > 0; was != (rate > 0) {
		if was {
			r.enabled--
		} else {
			r.enabled++
		}
	}
	changed = math.Float64bits(rate) != math.Float64bits(r.rates[i]) ||
		math.Float64bits(b) != math.Float64bits(r.biased[i])
	r.rates[i], r.biased[i] = rate, b
	return changed, nil
}

// pick draws the completing activity under the biased measure, returning
// exactly what stream.Choice(r.biased) would from the same draw. Choice
// picks the first positive weight whose running sum exceeds u; a zero
// weight repeats the previous sum, so that is the first index whose
// running sum exceeds u, found here by bisection instead of two linear
// passes.
func (r *Runner) pick(stream *rng.Stream, biasedTotal float64) int {
	var want int
	if crossCheck {
		want = stream.Clone().Choice(r.biased)
	}
	u := stream.Float64() * biasedTotal
	sums := r.biasedSums
	lo, hi := 0, len(sums)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if u < sums[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(sums) {
		// Rounding put u at the total: like Choice, take the last
		// activity with a positive weight.
		for lo--; lo > 0 && !(r.biased[lo] > 0); lo-- {
		}
	}
	if crossCheck && lo != want {
		panic(fmt.Sprintf("sim: simcheck: picked activity %d, Choice picks %d", lo, want))
	}
	return lo
}

// rateOf returns timed activity i's original and biased rate in the current
// marking, both 0 when it is disabled.
func (r *Runner) rateOf(i int, act *san.TimedActivity) (rate, biased float64, err error) {
	if !act.EnabledIn(r.marking) {
		return 0, 0, nil
	}
	rate, err = act.RateIn(r.marking)
	if err != nil {
		return 0, 0, err
	}
	factor, err := r.opts.Bias.FactorIn(i, r.marking)
	if err != nil {
		return 0, 0, err
	}
	return rate, rate * factor, nil
}

// Run executes one trajectory from the model's initial marking using the
// given random stream, filling the probes' Values/Weights.
func (r *Runner) Run(stream *rng.Stream, probes ...*Probe) (Result, error) {
	return r.RunFrom(nil, 0, stream, probes...)
}

// Marking returns the runner's current marking — the final state of the
// most recent Run/RunFrom. The returned marking aliases runner state; clone
// it before the next run if it must be retained (rare-event splitting uses
// this to capture level-entry states).
func (r *Runner) Marking() *san.Marking { return r.marking }

// RunFrom executes one trajectory starting from the given marking at time
// t0 (start == nil means the model's initial marking; t0 must be in
// [0, MaxTime)). Because every activity is exponential, restarting from a
// captured marking is distribution-exact. Probe times earlier than t0 are
// left at their defaults (value 0, weight 1).
func (r *Runner) RunFrom(start *san.Marking, t0 float64, stream *rng.Stream, probes ...*Probe) (Result, error) {
	var res Result
	if t0 < 0 || t0 >= r.opts.MaxTime {
		return res, fmt.Errorf("sim: start time %v outside [0, MaxTime)", t0)
	}
	if start == nil {
		r.marking.CopyFrom(r.initial)
	} else {
		r.marking.CopyFrom(start)
	}
	for _, p := range probes {
		if err := p.reset(); err != nil {
			return res, err
		}
		if n := len(p.Times); n > 0 && p.Times[n-1] > r.opts.MaxTime {
			return res, fmt.Errorf("sim: probe time %v beyond MaxTime %v", p.Times[n-1], r.opts.MaxTime)
		}
	}
	next := make([]int, len(probes)) // next unfilled time index per probe

	t := t0
	logLR := 0.0

	if err := r.instants.fireAll(r.marking, stream, &res); err != nil {
		return res, err
	}
	if r.opts.Stop != nil && r.opts.Stop(r.marking) {
		r.finishStopped(&res, t, logLR, probes, next)
		return res, nil
	}

	for {
		total, biasedTotal, err := r.scanTimed()
		if err != nil {
			return res, err
		}
		if r.enabled == 0 {
			// Deadlock: the marking no longer changes; sample all
			// remaining probe points from it. With no enabled activities
			// the original and biased survival probabilities both equal
			// one, so the likelihood ratio stays frozen.
			r.fillProbes(probes, next, r.opts.MaxTime, true, t, logLR, 0, 0)
			res.End = t
			res.Deadlocked = true
			return res, nil
		}

		tau := stream.Exp(biasedTotal)
		tNext := t + tau

		if tNext >= r.opts.MaxTime {
			// No further completion before the horizon: every remaining
			// probe point sees the current marking, with the survival
			// correction applied up to its own instant.
			r.fillProbes(probes, next, r.opts.MaxTime, true, t, logLR, total, biasedTotal)
			res.End = r.opts.MaxTime
			return res, nil
		}

		// Record probe points passed strictly before the next completion.
		r.fillProbes(probes, next, tNext, false, t, logLR, total, biasedTotal)

		// Choose the completing activity under the biased measure.
		k := r.pick(stream, biasedTotal)
		logLR += math.Log(r.rates[k]/r.biased[k]) + (biasedTotal-total)*tau

		t = tNext
		act := r.model.Timed(k)
		caseIdx, err := r.instants.chooseCase(act.Name, act.Cases, r.marking, stream)
		if err != nil {
			return res, err
		}
		san.FireTimed(act, caseIdx, r.marking)
		res.Steps++
		if r.opts.Sink != nil {
			r.opts.Sink.Count(telemetry.MetricActivityFirings, act.Name) //ahsvet:ignore locklabel activity names are fixed at model build time
		}
		if r.opts.Observer != nil {
			r.opts.Observer.OnEvent(t, act.Name, r.marking)
		}
		if err := r.instants.fireAll(r.marking, stream, &res); err != nil {
			return res, err
		}
		if r.opts.Stop != nil && r.opts.Stop(r.marking) {
			r.finishStopped(&res, t, logLR, probes, next)
			return res, nil
		}
		if res.Steps >= r.opts.MaxSteps {
			return res, fmt.Errorf("%w (%d steps at t=%v)", ErrStepLimit, res.Steps, t)
		}
	}
}

// fillProbes records every unsampled probe time in [t, horizon) — or
// [t, horizon] when inclusive — against the current marking. The weight at
// an intermediate time is the event-sequence LR times the survival
// correction exp((Λ'−Λ)·(tp−t)).
func (r *Runner) fillProbes(probes []*Probe, next []int, horizon float64, inclusive bool, t, logLR, total, biasedTotal float64) {
	for pi, p := range probes {
		for next[pi] < len(p.Times) {
			tp := p.Times[next[pi]]
			if tp > horizon || (tp == horizon && !inclusive) { //ahsvet:ignore floateq probe grid deliberately matches the horizon bit-for-bit
				break
			}
			if tp >= t {
				w := math.Exp(logLR + (biasedTotal-total)*(tp-t))
				p.Values[next[pi]] = p.Value(r.marking)
				p.Weights[next[pi]] = w
			}
			next[pi]++
		}
	}
}

// finishStopped handles stop-predicate termination: freeze the likelihood
// ratio at the stopping time and evaluate all outstanding probe points on
// the stopped marking.
func (r *Runner) finishStopped(res *Result, t, logLR float64, probes []*Probe, next []int) {
	w := math.Exp(logLR)
	res.Stopped = true
	res.StopTime = t
	res.StopWeight = w
	res.End = t
	for pi, p := range probes {
		v := p.Value(r.marking)
		for ; next[pi] < len(p.Times); next[pi]++ {
			p.Values[next[pi]] = v
			p.Weights[next[pi]] = w
		}
	}
}

func (p *Probe) reset() error {
	if p.Value == nil {
		return errors.New("sim: probe without Value function")
	}
	for i := 1; i < len(p.Times); i++ {
		if p.Times[i] < p.Times[i-1] {
			return fmt.Errorf("sim: probe times not sorted at index %d", i)
		}
	}
	if len(p.Times) > 0 && p.Times[0] < 0 {
		return errors.New("sim: negative probe time")
	}
	if cap(p.Values) < len(p.Times) {
		p.Values = make([]float64, len(p.Times))
		p.Weights = make([]float64, len(p.Times))
	} else {
		p.Values = p.Values[:len(p.Times)]
		p.Weights = p.Weights[:len(p.Times)]
	}
	for i := range p.Values {
		p.Values[i] = 0
		p.Weights[i] = 1
	}
	return nil
}

// TraceEvent is one entry of a recorded trajectory.
type TraceEvent struct {
	Time     float64
	Activity string
}

// Trace is an Observer that records every completion event.
type Trace struct {
	Events []TraceEvent
}

var _ Observer = (*Trace)(nil)

// OnEvent implements Observer.
func (tr *Trace) OnEvent(t float64, activity string, _ *san.Marking) {
	tr.Events = append(tr.Events, TraceEvent{Time: t, Activity: activity})
}

// Reset clears recorded events, retaining capacity.
func (tr *Trace) Reset() { tr.Events = tr.Events[:0] }
