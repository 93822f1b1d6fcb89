package structural

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ahs/internal/ctmc"
	"ahs/internal/san"
)

// probeObs is the san.AccessObserver installed during the probe walk.
// Writes always accumulate into the global write set; reads accumulate
// into the currently scoped per-predicate read set, and are discarded
// outside predicate evaluation (effect and rate reads are irrelevant to
// gate constancy).
type probeObs struct {
	writeP, writeE []bool
	readP, readE   []bool
}

func (o *probeObs) scope(readP, readE []bool) { o.readP, o.readE = readP, readE }

func (o *probeObs) ReadPlace(p san.PlaceID) {
	if o.readP != nil {
		o.readP[p] = true
	}
}

func (o *probeObs) ReadExtPlace(p san.ExtPlaceID) {
	if o.readE != nil {
		o.readE[p] = true
	}
}

func (o *probeObs) WritePlace(p san.PlaceID)       { o.writeP[p] = true }
func (o *probeObs) WriteExtPlace(p san.ExtPlaceID) { o.writeE[p] = true }

// column is one observed incidence column: the marking delta (over the
// simple places followed by the ext-place length pseudo-places) of one
// (activity, case) firing. An activity case observed with several distinct
// deltas yields several columns, numbered by variant in discovery order.
type column struct {
	activity string
	caseIdx  int
	variant  int
	delta    []int
}

// rateRange tracks the observed rate extremes of one exponential activity.
type rateRange struct{ min, max float64 }

type prober struct {
	model *san.Model
	opts  Options

	obs      *probeObs
	dims     int
	dimNames []string
	initVec  []int

	timedReadP, timedReadE [][]bool
	instReadP, instReadE   [][]bool
	timedEvaluated         []bool
	instEvaluated          []bool

	seen      map[string]struct{}
	queue     []*san.Marking
	truncated bool

	statesProbed int
	observedMax  []int

	cols     []column
	colIdx   map[string]int
	variants map[string]int
	fired    map[string]bool
	onTimed  []bool
	onInst   []bool

	rates map[string]*rateRange

	rep *replicaTracker
}

func newProber(model *san.Model, opts Options) *prober {
	np, ne := model.NumPlaces(), model.NumExtPlaces()
	p := &prober{
		model: model,
		opts:  opts,
		obs: &probeObs{
			writeP: make([]bool, np),
			writeE: make([]bool, ne),
		},
		dims:           np + ne,
		seen:           make(map[string]struct{}),
		colIdx:         make(map[string]int),
		variants:       make(map[string]int),
		fired:          make(map[string]bool),
		onTimed:        make([]bool, model.NumTimed()),
		onInst:         make([]bool, model.NumInstant()),
		timedEvaluated: make([]bool, model.NumTimed()),
		instEvaluated:  make([]bool, model.NumInstant()),
		rates:          make(map[string]*rateRange),
	}
	p.dimNames = make([]string, p.dims)
	for i := 0; i < np; i++ {
		p.dimNames[i] = model.PlaceName(san.PlaceID(i))
	}
	for i := 0; i < ne; i++ {
		p.dimNames[np+i] = "len(" + model.ExtPlaceName(san.ExtPlaceID(i)) + ")"
	}
	p.observedMax = make([]int, p.dims)
	p.timedReadP = make([][]bool, model.NumTimed())
	p.timedReadE = make([][]bool, model.NumTimed())
	for i := range p.timedReadP {
		p.timedReadP[i] = make([]bool, np)
		p.timedReadE[i] = make([]bool, ne)
	}
	p.instReadP = make([][]bool, model.NumInstant())
	p.instReadE = make([][]bool, model.NumInstant())
	for i := range p.instReadP {
		p.instReadP[i] = make([]bool, np)
		p.instReadE[i] = make([]bool, ne)
	}
	p.rep = newReplicaTracker(p.dimNames)
	return p
}

// vec snapshots the marking onto the analysis dimensions (token counts,
// then ext-place lengths), with the observer detached so bookkeeping reads
// never pollute the access sets.
func (p *prober) vec(mk *san.Marking) []int {
	mk.SetObserver(nil)
	v := make([]int, p.dims)
	np := p.model.NumPlaces()
	for i := 0; i < np; i++ {
		v[i] = mk.Tokens(san.PlaceID(i))
	}
	for i := 0; i < p.model.NumExtPlaces(); i++ {
		v[np+i] = mk.ExtLen(san.ExtPlaceID(i))
	}
	mk.SetObserver(p.obs)
	return v
}

// guard runs fn, converting a model-function panic into an error. The
// structural analyzer refuses to derive facts from a defective model;
// sanlint exists to diagnose those.
func (p *prober) guard(what, activity string, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s %q panicked during probe: %v (run sanlint to diagnose)", what, activity, r)
		}
	}()
	fn()
	return nil
}

func (p *prober) timedEnabled(i int, act *san.TimedActivity, mk *san.Marking) (bool, error) {
	if act.Enabled == nil {
		return true, nil
	}
	p.timedEvaluated[i] = true
	p.obs.scope(p.timedReadP[i], p.timedReadE[i])
	defer p.obs.scope(nil, nil)
	var on bool
	err := p.guard("enabling predicate of", act.Name, func() { on = act.EnabledIn(mk) })
	return on, err
}

func (p *prober) instEnabled(i int, act *san.InstantActivity, mk *san.Marking) (bool, error) {
	p.instEvaluated[i] = true
	p.obs.scope(p.instReadP[i], p.instReadE[i])
	defer p.obs.scope(nil, nil)
	var on bool
	err := p.guard("enabling predicate of", act.Name, func() { on = act.EnabledIn(mk) })
	return on, err
}

// observeRate records the rate of an enabled activity for the
// stiffness report.
func (p *prober) observeRate(act *san.TimedActivity, mk *san.Marking) error {
	var (
		r    float64
		rerr error
	)
	if err := p.guard("rate function of", act.Name, func() { r, rerr = act.RateIn(mk) }); err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}
	rr := p.rates[act.Name]
	if rr == nil {
		p.rates[act.Name] = &rateRange{min: r, max: r}
		return nil
	}
	if r < rr.min {
		rr.min = r
	}
	if r > rr.max {
		rr.max = r
	}
	return nil
}

func (p *prober) caseWeights(name string, cases []san.Case, mk *san.Marking) ([]float64, error) {
	if len(cases) == 0 {
		return nil, nil
	}
	var (
		ws   []float64
		werr error
	)
	if err := p.guard("case weights of", name, func() { ws, werr = san.CaseWeightsFor(name, cases, mk, nil) }); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}
	return ws, nil
}

// recordColumn registers the delta of one atomic firing as an incidence
// column. Zero deltas record the firing (for dead-arc facts) but add no
// column: they constrain no invariant.
func (p *prober) recordColumn(activity string, caseIdx int, before, after []int) {
	ac := activity + "|" + strconv.Itoa(caseIdx)
	p.fired[ac] = true
	delta := make([]int, p.dims)
	zero := true
	for i := range delta {
		delta[i] = after[i] - before[i]
		if delta[i] != 0 {
			zero = false
		}
	}
	if zero {
		return
	}
	var b strings.Builder
	b.WriteString(ac)
	for _, d := range delta {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(d))
	}
	key := b.String()
	if _, ok := p.colIdx[key]; ok {
		return
	}
	variant := p.variants[ac]
	p.variants[ac] = variant + 1
	p.colIdx[key] = len(p.cols)
	p.cols = append(p.cols, column{activity: activity, caseIdx: caseIdx, variant: variant, delta: delta})
}

// intern registers a stable marking, reporting whether it was fresh and
// whether it is absorbing. Freshly interned markings are measured
// (observed maxima, replica projections).
func (p *prober) intern(mk *san.Marking) (fresh, absorbing bool) {
	mk.SetObserver(nil)
	key := ctmc.MarkingKey(mk)
	if p.opts.Absorb != nil && p.opts.Absorb(mk) {
		absorbing = true
	}
	mk.SetObserver(p.obs)
	if _, ok := p.seen[key]; ok {
		return false, absorbing
	}
	if len(p.seen) >= p.opts.MaxStates {
		p.truncated = true
		return false, absorbing
	}
	p.seen[key] = struct{}{}
	p.statesProbed++
	v := p.vec(mk)
	for i, x := range v {
		if x > p.observedMax[i] {
			p.observedMax[i] = x
		}
	}
	if p.rep != nil {
		p.rep.project(v)
	}
	return true, absorbing
}

// stabilize resolves the instantaneous closure of mk into the stable
// markings reachable through zero-time firings, recording each atomic
// instantaneous firing as an incidence column. Priority ties are resolved
// deterministically by registration order, exactly as the executors do.
func (p *prober) stabilize(mk *san.Marking) ([]*san.Marking, error) {
	var out []*san.Marking
	var walk func(m *san.Marking, depth int) error
	walk = func(m *san.Marking, depth int) error {
		if depth > p.opts.MaxInstantDepth {
			return fmt.Errorf("instantaneous closure exceeded depth %d (livelock; run sanlint to diagnose)", p.opts.MaxInstantDepth)
		}
		best := -1
		for i := 0; i < p.model.NumInstant(); i++ {
			act := p.model.Instant(i)
			on, err := p.instEnabled(i, act, m)
			if err != nil {
				return err
			}
			if !on {
				continue
			}
			p.onInst[i] = true
			if best < 0 || act.Priority < p.model.Instant(best).Priority {
				best = i
			}
		}
		if best < 0 {
			out = append(out, m)
			return nil
		}
		act := p.model.Instant(best)
		ws, err := p.caseWeights(act.Name, act.Cases, m)
		if err != nil {
			return err
		}
		ncases := len(act.Cases)
		if ncases == 0 {
			ncases = 1
		}
		before := p.vec(m)
		for ci := 0; ci < ncases; ci++ {
			if ws != nil && ci < len(ws) && ws[ci] == 0 {
				continue
			}
			next := m.Clone()
			if err := p.guard("effect of", act.Name, func() { san.FireInstant(act, ci, next) }); err != nil {
				return err
			}
			p.recordColumn(act.Name, ci, before, p.vec(next))
			if err := walk(next, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(mk, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// walk runs the deterministic bounded BFS over the stable marking graph.
func (p *prober) walk() error {
	init := p.model.InitialMarking()
	init.SetObserver(p.obs)
	p.initVec = p.vec(init)

	stable, err := p.stabilize(init)
	if err != nil {
		return err
	}
	for _, st := range stable {
		if fresh, absorbing := p.intern(st); fresh && !absorbing {
			p.queue = append(p.queue, st)
		}
	}

	for len(p.queue) > 0 {
		mk := p.queue[0]
		p.queue = p.queue[1:]
		for i := 0; i < p.model.NumTimed(); i++ {
			act := p.model.Timed(i)
			on, err := p.timedEnabled(i, act, mk)
			if err != nil {
				return err
			}
			if !on {
				continue
			}
			p.onTimed[i] = true
			if err := p.observeRate(act, mk); err != nil {
				return err
			}
			ws, err := p.caseWeights(act.Name, act.Cases, mk)
			if err != nil {
				return err
			}
			ncases := len(act.Cases)
			if ncases == 0 {
				ncases = 1
			}
			before := p.vec(mk)
			for ci := 0; ci < ncases; ci++ {
				if ws != nil && ci < len(ws) && ws[ci] == 0 {
					continue
				}
				succ := mk.Clone()
				if err := p.guard("effect of", act.Name, func() { san.FireTimed(act, ci, succ) }); err != nil {
					return err
				}
				p.recordColumn(act.Name, ci, before, p.vec(succ))
				stable, err := p.stabilize(succ)
				if err != nil {
					return err
				}
				for _, st := range stable {
					if fresh, absorbing := p.intern(st); fresh && !absorbing {
						p.queue = append(p.queue, st)
					}
				}
			}
		}
	}
	return nil
}

// colLabel names a column for T-semiflow terms: "activity/case", plus a
// "#variant" suffix when the case was observed with several deltas.
func (p *prober) colLabel(c column) string {
	label := c.activity + "/" + strconv.Itoa(c.caseIdx)
	if p.variants[c.activity+"|"+strconv.Itoa(c.caseIdx)] > 1 {
		label += "#" + strconv.Itoa(c.variant)
	}
	return label
}

// facts assembles the ModelFacts artifact from the finished walk.
func (p *prober) facts() *ModelFacts {
	exhaustive := !p.truncated
	f := &ModelFacts{
		Model:             p.model.Name(),
		Exhaustive:        exhaustive,
		StatesProbed:      p.statesProbed,
		TransitionColumns: len(p.cols),
		StateSpaceBound:   "unknown",
	}
	if exhaustive {
		f.StateSpaceBound = strconv.Itoa(p.statesProbed)
	}

	semis := pSemiflows(p.cols, p.dims, p.opts)
	bounds := semiflowBounds(semis, p.initVec, p.dims)
	f.Invariants = renderInvariants(semis, p.initVec, p.dimNames, p.opts.MaxSemiflows)
	f.TSemiflows = tSemiflowFacts(p, p.opts)

	f.Places = make([]PlaceFact, p.dims)
	for i := 0; i < p.dims; i++ {
		// Only an exhaustive walk certifies anything: the observed
		// supremum is then exact, and the semiflow bound (complete
		// incidence columns) can only confirm it.
		certified := -1
		if exhaustive {
			certified = p.observedMax[i]
			if b := bounds[i]; b >= 0 && b < certified {
				certified = b
			}
		}
		f.Places[i] = PlaceFact{
			Name:           p.dimNames[i],
			Initial:        p.initVec[i],
			ObservedMax:    p.observedMax[i],
			CertifiedBound: certified,
			InvariantBound: bounds[i],
		}
	}

	f.Stiffness = p.stiffness()
	f.Replicas = p.rep.facts(p, exhaustive)
	if exhaustive {
		f.ConstantGates = p.constantGates()
		f.DeadArcs = p.deadArcs()
	}
	return f
}

func (p *prober) stiffness() StiffnessFact {
	var s StiffnessFact
	names := make([]string, 0, len(p.rates))
	for name := range p.rates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rr := p.rates[name]
		if s.MinActivity == "" || rr.min < s.MinRate {
			s.MinRate, s.MinActivity = rr.min, name
		}
		if s.MaxActivity == "" || rr.max > s.MaxRate {
			s.MaxRate, s.MaxActivity = rr.max, name
		}
	}
	if s.MinActivity != "" && s.MinRate > 0 {
		s.Spread = s.MaxRate / s.MinRate
		s.Flagged = s.Spread > p.opts.StiffnessThreshold
	}
	return s
}

// constantGates reports every enabling predicate whose accumulated read
// set is disjoint from the global effect write set. On an exhaustive walk
// the read set covers every reachable evaluation and the write set every
// reachable effect, so the predicate's value provably never changes from
// its initial evaluation.
func (p *prober) constantGates() []GateFact {
	disjoint := func(readP, readE []bool) bool {
		for i, r := range readP {
			if r && p.obs.writeP[i] {
				return false
			}
		}
		for i, r := range readE {
			if r && p.obs.writeE[i] {
				return false
			}
		}
		return true
	}
	init := p.model.InitialMarking()
	var out []GateFact
	for i := 0; i < p.model.NumTimed(); i++ {
		act := p.model.Timed(i)
		if act.Enabled == nil || !p.timedEvaluated[i] || !disjoint(p.timedReadP[i], p.timedReadE[i]) {
			continue
		}
		var on bool
		if p.guard("enabling predicate of", act.Name, func() { on = act.EnabledIn(init) }) != nil {
			continue
		}
		out = append(out, GateFact{Activity: act.Name, Kind: "timed", Enabled: on})
	}
	for i := 0; i < p.model.NumInstant(); i++ {
		act := p.model.Instant(i)
		if !p.instEvaluated[i] || !disjoint(p.instReadP[i], p.instReadE[i]) {
			continue
		}
		var on bool
		if p.guard("enabling predicate of", act.Name, func() { on = act.EnabledIn(init) }) != nil {
			continue
		}
		out = append(out, GateFact{Activity: act.Name, Kind: "instant", Enabled: on})
	}
	return out
}

// deadArcs reports activity cases that never fired during the exhaustive
// walk. Case -1 covers a whole activity that was never enabled.
func (p *prober) deadArcs() []DeadArcFact {
	var out []DeadArcFact
	perActivity := func(name string, ncases int, enabled bool, kind string) {
		if !enabled {
			out = append(out, DeadArcFact{
				Activity: name,
				Case:     -1,
				Reason:   kind + " activity is enabled in no reachable marking",
			})
			return
		}
		if ncases == 0 {
			ncases = 1
		}
		for ci := 0; ci < ncases; ci++ {
			if !p.fired[name+"|"+strconv.Itoa(ci)] {
				out = append(out, DeadArcFact{
					Activity: name,
					Case:     ci,
					Reason:   "case has zero weight in every reachable marking where the activity is enabled",
				})
			}
		}
	}
	for i := 0; i < p.model.NumTimed(); i++ {
		act := p.model.Timed(i)
		perActivity(act.Name, len(act.Cases), p.onTimed[i], "timed")
	}
	for i := 0; i < p.model.NumInstant(); i++ {
		act := p.model.Instant(i)
		perActivity(act.Name, len(act.Cases), p.onInst[i], "instantaneous")
	}
	return out
}
