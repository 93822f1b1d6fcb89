// Package san implements Stochastic Activity Networks (SAN), the modeling
// formalism of Sanders & Meyer used by the paper (via the Möbius tool) to
// describe the Automated Highway System safety model.
//
// A SAN is a stochastic extension of Petri nets consisting of:
//
//   - places holding integer token counts, plus extended places holding
//     ordered integer arrays (used by the paper for platoon composition and
//     the per-class maneuver lists of the Severity submodel);
//   - timed activities with marking-dependent exponential firing rates;
//   - instantaneous activities that fire as soon as they are enabled, with
//     integer priorities resolving simultaneity;
//   - input gates (enabling predicate + marking-change function) and output
//     gates (marking-change function), generalising plain arcs;
//   - cases: probabilistic branches on activity completion.
//
// Models are built with a Builder, optionally through the Rep and Join
// composition helpers mirroring the Möbius Rep/Join operators used in
// Figure 9 of the paper. Execution lives in internal/sim; exact numerical
// solution lives in internal/ctmc.
package san

import (
	"fmt"
	"math"
	"strings"
)

// PlaceID identifies a simple (integer-marked) place within a Model.
type PlaceID int

// ExtPlaceID identifies an extended place (ordered int array) within a Model.
type ExtPlaceID int

// Predicate decides whether an activity is enabled in a marking.
//
// Predicates, like RateFn and sim.FactorFn, must be pure functions of the
// marking: read it only through Marking's accessors, capture no mutable
// state, never write to the marking, and never write through the slice Ext
// returns. sim.Runner relies on this to skip re-evaluating an activity
// whose read places were not written since its last evaluation (see
// Tracker); a function that breaks the contract can see its stale value
// reused.
type Predicate func(m *Marking) bool

// Effect applies a marking change (an input- or output-gate function).
type Effect func(m *Marking)

// RateFn returns the instantaneous firing rate of a timed activity in a
// marking. It is only consulted while the activity is enabled and must
// return a strictly positive, finite value there. It must be pure in the
// sense of Predicate.
type RateFn func(m *Marking) float64

// WeightFn returns the (unnormalised) weight of a case in a marking.
type WeightFn func(m *Marking) float64

// Case is one probabilistic branch of an activity. On completion, a case is
// selected with probability proportional to Weight and its Output effect is
// applied after the activity's input effect.
type Case struct {
	// Weight is the unnormalised selection weight; nil means constant 1.
	Weight WeightFn
	// Output applies the case's marking change; nil means no change.
	Output Effect
}

// TimedActivity completes after an exponentially distributed delay.
//
// Rate is required. Exponential delays are a contract of the package, not
// a convenience: the simulator's importance-sampling likelihood ratios,
// uniformization in internal/ctmc and mid-trajectory chunk restarts all
// rely on the activity being memoryless.
type TimedActivity struct {
	Name string
	// Enabled gates the activity; nil means always enabled.
	Enabled Predicate
	// Rate is the exponential completion rate (marking-dependent allowed).
	Rate RateFn
	// Input is applied on completion before the selected case's Output;
	// nil means no change.
	Input Effect
	// Cases are the completion branches; empty means a single unit case.
	Cases []Case
}

// InstantActivity completes in zero time as soon as it is enabled.
// Lower Priority values fire first when several are enabled simultaneously.
type InstantActivity struct {
	Name     string
	Priority int
	// Enabled gates the activity; required (an always-enabled instantaneous
	// activity would loop forever).
	Enabled Predicate
	Input   Effect
	Cases   []Case
}

// Model is an immutable SAN structure shared by all markings/trajectories.
type Model struct {
	name       string
	places     []placeDef
	extPlaces  []extPlaceDef
	timed      []TimedActivity
	instants   []InstantActivity
	placeIdx   map[string]PlaceID
	extIdx     map[string]ExtPlaceID
	activities map[string]bool
}

type placeDef struct {
	name    string
	initial int
}

type extPlaceDef struct {
	name    string
	initial []int
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// NumPlaces returns the number of simple places.
func (m *Model) NumPlaces() int { return len(m.places) }

// NumExtPlaces returns the number of extended places.
func (m *Model) NumExtPlaces() int { return len(m.extPlaces) }

// NumTimed returns the number of timed activities.
func (m *Model) NumTimed() int { return len(m.timed) }

// NumInstant returns the number of instantaneous activities.
func (m *Model) NumInstant() int { return len(m.instants) }

// Timed returns the timed activity with index i.
func (m *Model) Timed(i int) *TimedActivity { return &m.timed[i] }

// Instant returns the instantaneous activity with index i.
func (m *Model) Instant(i int) *InstantActivity { return &m.instants[i] }

// TimedIndex returns the index of the named timed activity, or -1.
func (m *Model) TimedIndex(name string) int {
	for i := range m.timed {
		if m.timed[i].Name == name {
			return i
		}
	}
	return -1
}

// PlaceByName returns the id of the named simple place.
func (m *Model) PlaceByName(name string) (PlaceID, bool) {
	id, ok := m.placeIdx[name]
	return id, ok
}

// ExtPlaceByName returns the id of the named extended place.
func (m *Model) ExtPlaceByName(name string) (ExtPlaceID, bool) {
	id, ok := m.extIdx[name]
	return id, ok
}

// PlaceName returns the name of a simple place.
func (m *Model) PlaceName(p PlaceID) string { return m.places[p].name }

// ExtPlaceName returns the name of an extended place.
func (m *Model) ExtPlaceName(p ExtPlaceID) string { return m.extPlaces[p].name }

// PlaceInitial returns the initial token count of a simple place.
func (m *Model) PlaceInitial(p PlaceID) int { return m.places[p].initial }

// ExtPlaceInitial returns a copy of an extended place's initial contents.
func (m *Model) ExtPlaceInitial(p ExtPlaceID) []int {
	return append([]int(nil), m.extPlaces[p].initial...)
}

// InitialMarking returns a fresh marking holding every place's initial value.
func (m *Model) InitialMarking() *Marking {
	mk := &Marking{
		model:  m,
		tokens: make([]int, len(m.places)),
		ext:    make([][]int, len(m.extPlaces)),
	}
	for i, p := range m.places {
		mk.tokens[i] = p.initial
	}
	for i, p := range m.extPlaces {
		mk.ext[i] = append([]int(nil), p.initial...)
	}
	return mk
}

// AccessObserver receives a notification for every place-level read and
// write performed through a Marking's accessor methods. It is the
// introspection hook behind static model analysis: internal/sanlint uses it
// to discover which places each predicate, rate, weight and effect actually
// touches, without parsing any code. Simulation leaves the observer nil.
// The observer is independent of the marking's Tracker: both see every
// access.
//
// Observer callbacks must not mutate the marking.
type AccessObserver interface {
	ReadPlace(p PlaceID)
	WritePlace(p PlaceID)
	ReadExtPlace(p ExtPlaceID)
	WriteExtPlace(p ExtPlaceID)
}

// Marking is the complete state of a SAN: token counts for simple places and
// ordered arrays for extended places. Markings are mutated in place by
// activity effects; Clone produces independent copies for parallel batches.
type Marking struct {
	model  *Model
	tokens []int
	ext    [][]int
	obs    AccessObserver
	trk    *Tracker
}

// Model returns the model this marking belongs to.
func (mk *Marking) Model() *Model { return mk.model }

// SetObserver attaches (or with nil detaches) an access observer. The
// observer is inherited by Clone so that analysis code sees accesses on
// derived markings too.
func (mk *Marking) SetObserver(o AccessObserver) { mk.obs = o }

// SetTracker attaches (or with nil detaches) a dependency tracker and marks
// all of its evaluations stale, since the tracker knows nothing of this
// marking's contents. Unlike the observer, the tracker is not inherited by
// Clone: a clone is changed independently, so its writes must not mark the
// owner's evaluations stale.
func (mk *Marking) SetTracker(t *Tracker) {
	mk.trk = t
	if t != nil {
		t.MarkAll()
	}
}

// Clone returns a deep copy of the marking, sharing the observer, if any,
// but not the tracker.
func (mk *Marking) Clone() *Marking {
	cp := &Marking{
		model:  mk.model,
		tokens: append([]int(nil), mk.tokens...),
		ext:    make([][]int, len(mk.ext)),
		obs:    mk.obs,
	}
	for i, e := range mk.ext {
		cp.ext[i] = append([]int(nil), e...)
	}
	return cp
}

// CopyFrom overwrites mk with the contents of src (same model required).
// It reuses mk's storage where possible, avoiding allocation in batch loops.
// It writes every place, so it marks all of mk's tracked evaluations stale.
func (mk *Marking) CopyFrom(src *Marking) {
	if mk.model != src.model {
		panic("san: CopyFrom across models")
	}
	if mk.trk != nil {
		mk.trk.MarkAll()
	}
	copy(mk.tokens, src.tokens)
	for i, e := range src.ext {
		mk.ext[i] = append(mk.ext[i][:0], e...)
	}
}

// Equal reports whether two markings of the same model are identical.
func (mk *Marking) Equal(o *Marking) bool {
	if mk.model != o.model {
		return false
	}
	for i, t := range mk.tokens {
		if o.tokens[i] != t {
			return false
		}
	}
	for i, e := range mk.ext {
		if len(e) != len(o.ext[i]) {
			return false
		}
		for j, v := range e {
			if o.ext[i][j] != v {
				return false
			}
		}
	}
	return true
}

// The accessors test both hooks inline and leave the calls to these, which
// keeps the unobserved, untracked accessors within the inlining budget.

func (mk *Marking) noteRead(p PlaceID) {
	if mk.obs != nil {
		mk.obs.ReadPlace(p)
	}
	if mk.trk != nil {
		mk.trk.readPlace(p)
	}
}

func (mk *Marking) noteWrite(p PlaceID) {
	if mk.obs != nil {
		mk.obs.WritePlace(p)
	}
	if mk.trk != nil {
		mk.trk.writePlace(p)
	}
}

func (mk *Marking) noteExtRead(p ExtPlaceID) {
	if mk.obs != nil {
		mk.obs.ReadExtPlace(p)
	}
	if mk.trk != nil {
		mk.trk.readExtPlace(p)
	}
}

func (mk *Marking) noteExtWrite(p ExtPlaceID) {
	if mk.obs != nil {
		mk.obs.WriteExtPlace(p)
	}
	if mk.trk != nil {
		mk.trk.writeExtPlace(p)
	}
}

// Tokens returns the token count of a simple place.
func (mk *Marking) Tokens(p PlaceID) int {
	if mk.obs != nil || mk.trk != nil {
		mk.noteRead(p)
	}
	return mk.tokens[p]
}

// SetTokens sets the token count of a simple place. Negative counts panic:
// they indicate a modeling error (an effect firing while its predicate is
// false).
func (mk *Marking) SetTokens(p PlaceID, n int) {
	if mk.obs != nil || mk.trk != nil {
		mk.noteWrite(p)
	}
	if n < 0 {
		panic(fmt.Sprintf("san: negative marking %d for place %q", n, mk.model.places[p].name))
	}
	mk.tokens[p] = n
}

// Add adjusts the token count of a simple place by delta (panics if the
// result would be negative).
func (mk *Marking) Add(p PlaceID, delta int) {
	mk.SetTokens(p, mk.Tokens(p)+delta)
}

// Ext returns the contents of an extended place. The returned slice aliases
// the marking; callers must not retain it across effects, and must not
// write through it (use ExtSet and the other writers, which the observer
// and tracker see).
func (mk *Marking) Ext(p ExtPlaceID) []int {
	if mk.obs != nil || mk.trk != nil {
		mk.noteExtRead(p)
	}
	return mk.ext[p]
}

// ExtLen returns the length of an extended place's array.
func (mk *Marking) ExtLen(p ExtPlaceID) int {
	if mk.obs != nil || mk.trk != nil {
		mk.noteExtRead(p)
	}
	return len(mk.ext[p])
}

// ExtAppend appends v to an extended place's array.
func (mk *Marking) ExtAppend(p ExtPlaceID, v int) {
	if mk.obs != nil || mk.trk != nil {
		mk.noteExtWrite(p)
	}
	mk.ext[p] = append(mk.ext[p], v)
}

// ExtAt returns element i of an extended place's array.
func (mk *Marking) ExtAt(p ExtPlaceID, i int) int {
	if mk.obs != nil || mk.trk != nil {
		mk.noteExtRead(p)
	}
	return mk.ext[p][i]
}

// ExtSet sets element i of an extended place's array.
func (mk *Marking) ExtSet(p ExtPlaceID, i, v int) {
	if mk.obs != nil || mk.trk != nil {
		mk.noteExtWrite(p)
	}
	mk.ext[p][i] = v
}

// ExtRemoveAt removes element i, preserving the order of the remainder
// (platoon positions are ordered, so removal must not reshuffle).
func (mk *Marking) ExtRemoveAt(p ExtPlaceID, i int) {
	if mk.obs != nil || mk.trk != nil {
		mk.noteExtWrite(p)
	}
	arr := mk.ext[p]
	mk.ext[p] = append(arr[:i], arr[i+1:]...)
}

// ExtIndexOf returns the first index of v in the extended place, or -1.
func (mk *Marking) ExtIndexOf(p ExtPlaceID, v int) int {
	if mk.obs != nil || mk.trk != nil {
		mk.noteExtRead(p)
	}
	for i, x := range mk.ext[p] {
		if x == v {
			return i
		}
	}
	return -1
}

// ExtClear empties an extended place.
func (mk *Marking) ExtClear(p ExtPlaceID) {
	if mk.obs != nil || mk.trk != nil {
		mk.noteExtWrite(p)
	}
	mk.ext[p] = mk.ext[p][:0]
}

// ExtInsertAt inserts v at position i (0 <= i <= len).
func (mk *Marking) ExtInsertAt(p ExtPlaceID, i, v int) {
	if mk.obs != nil || mk.trk != nil {
		mk.noteExtWrite(p)
	}
	arr := mk.ext[p]
	arr = append(arr, 0)
	copy(arr[i+1:], arr[i:])
	arr[i] = v
	mk.ext[p] = arr
}

// Summary returns a compact human-readable description of the marking:
// every non-zero simple place and non-empty extended place, in model order.
// It reads the marking directly (no observer notifications), so diagnostics
// never pollute access traces.
func (mk *Marking) Summary() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	sep := func() {
		if !first {
			b.WriteString(", ")
		}
		first = false
	}
	for i, n := range mk.tokens {
		if n == 0 {
			continue
		}
		sep()
		fmt.Fprintf(&b, "%s=%d", mk.model.places[i].name, n)
	}
	for i, e := range mk.ext {
		if len(e) == 0 {
			continue
		}
		sep()
		fmt.Fprintf(&b, "%s=%v", mk.model.extPlaces[i].name, e)
	}
	if first {
		b.WriteString("empty")
	}
	b.WriteByte('}')
	return b.String()
}

// enabled reports whether a timed activity is enabled (nil predicate =>
// always enabled).
func (a *TimedActivity) enabled(mk *Marking) bool {
	return a.Enabled == nil || a.Enabled(mk)
}

// EnabledIn reports whether the timed activity is enabled in mk.
func (a *TimedActivity) EnabledIn(mk *Marking) bool { return a.enabled(mk) }

// RateIn returns the activity's rate in mk, validating positivity.
func (a *TimedActivity) RateIn(mk *Marking) (float64, error) {
	r := a.Rate(mk)
	if !(r > 0) || math.IsInf(r, 1) {
		return 0, fmt.Errorf("san: activity %q has invalid rate %v while enabled", a.Name, r)
	}
	return r, nil
}

// EnabledIn reports whether the instantaneous activity is enabled in mk.
func (a *InstantActivity) EnabledIn(mk *Marking) bool { return a.Enabled(mk) }

// Fire applies an activity completion to mk: input effect, then the chosen
// case's output effect. caseIdx must be valid for the activity.
func fire(input Effect, cases []Case, caseIdx int, mk *Marking) {
	if input != nil {
		input(mk)
	}
	if len(cases) > 0 {
		if out := cases[caseIdx].Output; out != nil {
			out(mk)
		}
	}
}

// FireTimed applies completion of timed activity a with the chosen case.
func FireTimed(a *TimedActivity, caseIdx int, mk *Marking) {
	fire(a.Input, a.Cases, caseIdx, mk)
}

// FireInstant applies completion of instantaneous activity a with the chosen
// case.
func FireInstant(a *InstantActivity, caseIdx int, mk *Marking) {
	fire(a.Input, a.Cases, caseIdx, mk)
}

// CaseWeightError reports an invalid case-weight evaluation. It names the
// activity and describes the marking it was evaluated in, so both the
// simulator and the model linter (internal/sanlint) can surface actionable
// diagnostics instead of a bare "invalid weight" string.
type CaseWeightError struct {
	// Activity is the offending activity's qualified name (empty when the
	// caller did not know it).
	Activity string
	// Case is the index of the offending case, or -1 when the total over
	// all cases is at fault.
	Case int
	// Weight is the offending weight value (the total when Case == -1).
	Weight float64
	// Marking is the compact summary (Marking.Summary) of the marking the
	// weights were evaluated in.
	Marking string
}

func (e *CaseWeightError) Error() string {
	who := "case weights"
	if e.Activity != "" {
		who = fmt.Sprintf("activity %q", e.Activity)
	}
	if e.Case >= 0 {
		return fmt.Sprintf("san: %s: invalid weight %v for case %d in marking %s",
			who, e.Weight, e.Case, e.Marking)
	}
	return fmt.Sprintf("san: %s: case weights sum to %v in marking %s",
		who, e.Weight, e.Marking)
}

// CaseWeights fills weights with each case's weight in mk. A nil or empty
// case list yields the single implicit unit case. It returns a
// *CaseWeightError if any weight is negative or NaN, or the total weight is
// not positive. Callers that know the activity should prefer CaseWeightsFor,
// which produces a named diagnostic.
func CaseWeights(cases []Case, mk *Marking, weights []float64) ([]float64, error) {
	return CaseWeightsFor("", cases, mk, weights)
}

// CaseWeightsFor is CaseWeights with the owning activity's name attached to
// any error (see CaseWeightError).
func CaseWeightsFor(activity string, cases []Case, mk *Marking, weights []float64) ([]float64, error) {
	if len(cases) == 0 {
		return append(weights[:0], 1), nil
	}
	weights = weights[:0]
	total := 0.0
	for i, c := range cases {
		w := 1.0
		if c.Weight != nil {
			w = c.Weight(mk)
		}
		if w < 0 || math.IsNaN(w) {
			return nil, &CaseWeightError{Activity: activity, Case: i, Weight: w, Marking: mk.Summary()}
		}
		total += w
		weights = append(weights, w)
	}
	if total <= 0 {
		return nil, &CaseWeightError{Activity: activity, Case: -1, Weight: total, Marking: mk.Summary()}
	}
	return weights, nil
}
