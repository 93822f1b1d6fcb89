package sanlint

import (
	"fmt"
	"math"

	"ahs/internal/ctmc"
	"ahs/internal/san"
)

// recorder accumulates which places the model's own functions read and
// write, via san.AccessObserver. Key computation and goal checks detach the
// observer first, so only predicate/rate/weight/effect accesses count.
type recorder struct {
	readP, writeP []bool
	readE, writeE []bool
}

func newRecorder(m *san.Model) *recorder {
	return &recorder{
		readP:  make([]bool, m.NumPlaces()),
		writeP: make([]bool, m.NumPlaces()),
		readE:  make([]bool, m.NumExtPlaces()),
		writeE: make([]bool, m.NumExtPlaces()),
	}
}

func (r *recorder) ReadPlace(p san.PlaceID)        { r.readP[p] = true }
func (r *recorder) WritePlace(p san.PlaceID)       { r.writeP[p] = true }
func (r *recorder) ReadExtPlace(p san.ExtPlaceID)  { r.readE[p] = true }
func (r *recorder) WriteExtPlace(p san.ExtPlaceID) { r.writeE[p] = true }

// weightRecord tracks the case-weight vectors observed for one activity, to
// decide whether the weights are (observably) constant.
type weightRecord struct {
	first  []float64
	varies bool
	evals  int
}

type linter struct {
	model  *san.Model
	cfg    Config
	report *Report

	rec      *recorder
	observed map[san.PlaceID]bool

	goals       []san.PlaceID
	goalReached []bool

	seen  map[string]struct{}
	queue []*san.Marking
	dedup map[string]struct{}

	enabledTimed   []bool
	enabledInstant []bool

	weight map[string]*weightRecord

	facts *resolvedFacts
}

// diag records a finding once per (check, object) pair.
func (l *linter) diag(check CheckID, sev Severity, object, marking, format string, args ...interface{}) {
	key := string(check) + "|" + object
	if _, dup := l.dedup[key]; dup {
		return
	}
	l.dedup[key] = struct{}{}
	l.report.Diagnostics = append(l.report.Diagnostics, Diagnostic{
		Check:    check,
		Severity: sev,
		Object:   object,
		Message:  fmt.Sprintf(format, args...),
		Marking:  marking,
	})
}

// quiet runs fn on mk with the access observer detached, so bookkeeping
// reads (interning keys, goal checks, witness summaries) do not count as
// model accesses.
func (l *linter) quiet(mk *san.Marking, fn func()) {
	mk.SetObserver(nil)
	fn()
	mk.SetObserver(l.rec)
}

// intern registers a stable marking, returning whether it was new and
// whether it is absorbing (a goal place is marked).
func (l *linter) intern(mk *san.Marking) (fresh, absorbing bool) {
	var key string
	l.quiet(mk, func() {
		key = ctmc.MarkingKey(mk)
		for gi, g := range l.goals {
			if mk.Tokens(g) > 0 {
				l.goalReached[gi] = true
				absorbing = true
			}
		}
	})
	if _, ok := l.seen[key]; ok {
		return false, absorbing
	}
	if len(l.seen) >= l.cfg.MaxStates {
		l.report.Truncated = true
		return false, absorbing
	}
	l.seen[key] = struct{}{}
	if l.facts != nil {
		l.quiet(mk, func() { l.factsChecks(mk) })
	}
	return true, absorbing
}

// explore walks the bounded marking graph breadth-first from the initial
// marking, mirroring the exact solver's reachability analysis but collecting
// diagnostics instead of failing on the first defect.
func (l *linter) explore() {
	model := l.model
	l.enabledTimed = make([]bool, model.NumTimed())
	l.enabledInstant = make([]bool, model.NumInstant())

	init := model.InitialMarking()
	init.SetObserver(l.rec)
	for _, st := range l.stabilize(init) {
		if fresh, absorbing := l.intern(st); fresh && !absorbing {
			l.queue = append(l.queue, st)
		}
	}

	for len(l.queue) > 0 {
		mk := l.queue[0]
		l.queue = l.queue[1:]
		for i := 0; i < model.NumTimed(); i++ {
			act := model.Timed(i)
			if !l.safeEnabledTimed(act, mk) {
				continue
			}
			l.enabledTimed[i] = true
			l.checkRate(act, mk)
			ws := l.caseWeights(act.Name, act.Cases, mk)
			ncases := len(act.Cases)
			if ncases == 0 {
				ncases = 1
			}
			for ci := 0; ci < ncases; ci++ {
				if ws != nil && weightIsZero(ws, ci) {
					continue
				}
				succ := mk.Clone()
				if !l.safeApply(act.Name, succ, func() { san.FireTimed(act, ci, succ) }) {
					continue
				}
				for _, st := range l.stabilize(succ) {
					if fresh, absorbing := l.intern(st); fresh && !absorbing {
						l.queue = append(l.queue, st)
					}
				}
			}
		}
	}
}

// weightIsZero reports whether case ci carries zero weight (treating an
// out-of-range index defensively as non-zero so the branch still fires).
func weightIsZero(ws []float64, ci int) bool {
	return ci < len(ws) && ws[ci] == 0
}

// stabilize resolves the instantaneous closure of mk into the stable
// markings reachable through zero-time firings, branching over every
// positive-weight case. Conflicting equal-priority activations are reported
// (SAN006) and resolved deterministically by registration order.
func (l *linter) stabilize(mk *san.Marking) []*san.Marking {
	var out []*san.Marking
	var walk func(m *san.Marking, depth int)
	walk = func(m *san.Marking, depth int) {
		if depth > l.cfg.MaxInstantDepth {
			var witness string
			l.quiet(m, func() { witness = m.Summary() })
			l.diag(CheckInstantLivelock, SeverityError, "", witness,
				"instantaneous closure exceeded depth %d; instantaneous activities likely re-enable forever", l.cfg.MaxInstantDepth)
			return
		}
		best := -1
		var tied []int
		for i := 0; i < l.model.NumInstant(); i++ {
			act := l.model.Instant(i)
			if !l.safeEnabledInstant(act, m) {
				continue
			}
			l.enabledInstant[i] = true
			switch {
			case best < 0 || act.Priority < l.model.Instant(best).Priority:
				best = i
				tied = tied[:0]
			case act.Priority == l.model.Instant(best).Priority:
				tied = append(tied, i)
			}
		}
		if best < 0 {
			out = append(out, m)
			return
		}
		for _, other := range tied {
			a, b := l.model.Instant(best).Name, l.model.Instant(other).Name
			var witness string
			l.quiet(m, func() { witness = m.Summary() })
			l.diag(CheckInstantConflict, SeverityError, a+" / "+b, witness,
				"instantaneous activities %q and %q are enabled together with equal priority %d; their firing order is undefined",
				a, b, l.model.Instant(best).Priority)
		}
		act := l.model.Instant(best)
		ws := l.caseWeights(act.Name, act.Cases, m)
		ncases := len(act.Cases)
		if ncases == 0 {
			ncases = 1
		}
		for ci := 0; ci < ncases; ci++ {
			if ws != nil && weightIsZero(ws, ci) {
				continue
			}
			next := m.Clone()
			if !l.safeApply(act.Name, next, func() { san.FireInstant(act, ci, next) }) {
				continue
			}
			walk(next, depth+1)
		}
	}
	walk(mk, 0)
	return out
}

// safeEnabledTimed evaluates the enabling predicate, converting a panic
// into a SAN008 diagnostic (and treating the activity as disabled there).
func (l *linter) safeEnabledTimed(act *san.TimedActivity, mk *san.Marking) (enabled bool) {
	defer l.recoverPanic("enabling predicate of", act.Name, mk)
	return act.EnabledIn(mk)
}

func (l *linter) safeEnabledInstant(act *san.InstantActivity, mk *san.Marking) (enabled bool) {
	defer l.recoverPanic("enabling predicate of", act.Name, mk)
	return act.EnabledIn(mk)
}

// safeApply runs an effect application, converting a panic (negative
// marking, extended-place index out of range) into a SAN008 diagnostic.
// It reports whether the effect completed.
func (l *linter) safeApply(activity string, mk *san.Marking, fire func()) (ok bool) {
	defer l.recoverPanic("effect of", activity, mk)
	fire()
	return true
}

func (l *linter) recoverPanic(what, activity string, mk *san.Marking) {
	if r := recover(); r != nil {
		var witness string
		l.quiet(mk, func() { witness = mk.Summary() })
		l.diag(CheckPanic, SeverityError, activity, witness,
			"%s %q panicked: %v", what, activity, r)
	}
}

// checkRate validates the rate of an enabled activity (SAN009).
func (l *linter) checkRate(act *san.TimedActivity, mk *san.Marking) {
	defer l.recoverPanic("rate function of", act.Name, mk)
	if _, err := act.RateIn(mk); err != nil {
		var witness string
		l.quiet(mk, func() { witness = mk.Summary() })
		l.diag(CheckInvalidRate, SeverityError, act.Name, witness, "%v", err)
	}
}

// caseWeights evaluates an activity's case weights, recording the vector
// for the normalization check and reporting invalid weights (SAN001). It
// returns nil when the weights are unusable; callers then explore every
// case so coverage does not collapse behind the defect.
func (l *linter) caseWeights(activity string, cases []san.Case, mk *san.Marking) []float64 {
	if len(cases) == 0 {
		return nil
	}
	var (
		ws  []float64
		err error
	)
	if !l.safeApply(activity, mk, func() { ws, err = san.CaseWeightsFor(activity, cases, mk, nil) }) {
		return nil
	}
	if err != nil {
		var witness string
		l.quiet(mk, func() { witness = mk.Summary() })
		l.diag(CheckCaseWeights, SeverityError, activity, witness, "%v", err)
		return nil
	}
	if len(cases) >= 2 {
		rec := l.weight[activity]
		if rec == nil {
			rec = &weightRecord{first: append([]float64(nil), ws...)}
			l.weight[activity] = rec
		} else if !rec.varies {
			for i, w := range ws {
				if math.Float64bits(w) != math.Float64bits(rec.first[i]) {
					rec.varies = true
					break
				}
			}
		}
		rec.evals++
	}
	return ws
}

// absenceChecks applies the whole-model checks that assert something never
// happened during exploration. They are meaningless on a truncated graph,
// so truncation suppresses them behind a single SAN010 finding.
func (l *linter) absenceChecks() {
	if l.report.Truncated {
		l.diag(CheckTruncated, SeverityWarning, "", "",
			"exploration stopped at MaxStates=%d; suppressed checks: %s (dead place), %s (stuck place), %s (never enabled), %s (goal unreachable)",
			l.cfg.MaxStates, CheckDeadPlace, CheckStuckPlace, CheckNeverEnabled, CheckGoalUnreachable)
		return
	}
	m := l.model
	for p := 0; p < m.NumPlaces(); p++ {
		id := san.PlaceID(p)
		if !l.rec.readP[p] && !l.observed[id] && !l.isGoal(id) {
			l.diag(CheckDeadPlace, SeverityWarning, m.PlaceName(id), "",
				"place is never read by any predicate, rate, weight or effect (declare it Observed if it is a measure-only counter)")
		}
		if !l.rec.writeP[p] {
			l.diag(CheckStuckPlace, SeverityWarning, m.PlaceName(id), "",
				"place is never written by any effect; it is stuck at its initial marking %d", m.PlaceInitial(id))
		}
	}
	for p := 0; p < m.NumExtPlaces(); p++ {
		id := san.ExtPlaceID(p)
		if !l.rec.readE[p] {
			l.diag(CheckDeadPlace, SeverityWarning, m.ExtPlaceName(id), "",
				"extended place is never read by any predicate, rate, weight or effect")
		}
		if !l.rec.writeE[p] {
			l.diag(CheckStuckPlace, SeverityWarning, m.ExtPlaceName(id), "",
				"extended place is never written by any effect; it is stuck at its initial contents %v", m.ExtPlaceInitial(id))
		}
	}
	for i := 0; i < m.NumTimed(); i++ {
		if !l.enabledTimed[i] {
			l.diag(CheckNeverEnabled, SeverityWarning, m.Timed(i).Name, "",
				"timed activity is enabled in no reachable marking (within %d states)", len(l.seen))
		}
	}
	for i := 0; i < m.NumInstant(); i++ {
		if !l.enabledInstant[i] {
			l.diag(CheckNeverEnabled, SeverityWarning, m.Instant(i).Name, "",
				"instantaneous activity is enabled in no reachable marking (within %d states)", len(l.seen))
		}
	}
	for gi, g := range l.goals {
		if !l.goalReached[gi] {
			l.diag(CheckGoalUnreachable, SeverityError, m.PlaceName(g), "",
				"goal place is marked in no reachable marking (within %d states); the measure defined on it is identically zero", len(l.seen))
		}
	}
}

func (l *linter) isGoal(p san.PlaceID) bool {
	for _, g := range l.goals {
		if g == p {
			return true
		}
	}
	return false
}

// normalizationChecks flags activities whose multi-case weights were
// observably constant yet do not sum to 1 (SAN002). The simulator
// normalises weights, so such models run — but the modeller almost
// certainly meant probabilities, and a missing branch silently rescales the
// others.
func (l *linter) normalizationChecks() {
	for activity, rec := range l.weight {
		if rec.varies || rec.evals == 0 {
			continue
		}
		sum := 0.0
		for _, w := range rec.first {
			sum += w
		}
		if math.Abs(sum-1) > 1e-6 {
			l.diag(CheckWeightNormalization, SeverityWarning, activity, "",
				"case weights %v are constant across all %d observed markings but sum to %v, not 1; if these are probabilities a case is missing or misweighted",
				rec.first, rec.evals, sum)
		}
	}
}
