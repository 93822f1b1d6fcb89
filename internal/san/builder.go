package san

import (
	"errors"
	"fmt"
	"strings"
)

// Builder assembles a Model incrementally. Submodels are composed by
// building into scoped child builders (see Scope, Rep and Join), which
// namespace place and activity names exactly like the Möbius composition
// tree namespaces replicas; places created on a parent scope and referenced
// from children act as the shared ("common") places of the Join operator.
type Builder struct {
	root   *builderState
	prefix string
}

type builderState struct {
	name     string
	model    Model
	errs     []error
	names    map[string]string // qualified name -> kind ("place", ...)
	finished bool
}

// NewBuilder returns a builder for a model with the given name.
func NewBuilder(name string) *Builder {
	st := &builderState{
		name:  name,
		names: make(map[string]string),
	}
	st.model.name = name
	st.model.placeIdx = make(map[string]PlaceID)
	st.model.extIdx = make(map[string]ExtPlaceID)
	st.model.activities = make(map[string]bool)
	return &Builder{root: st}
}

// Scope returns a child builder whose names are prefixed with name + ".".
// Scopes share the underlying model: places made in any scope are usable
// from any other, which is how shared places are expressed.
func (b *Builder) Scope(name string) *Builder {
	return &Builder{root: b.root, prefix: b.qualify(name) + "."}
}

func (b *Builder) qualify(name string) string { return b.prefix + name }

func (b *Builder) fail(format string, args ...interface{}) {
	b.root.errs = append(b.root.errs, fmt.Errorf(format, args...))
}

func (b *Builder) claim(name, kind string) bool {
	if name == "" || strings.ContainsAny(name, " \t\n") {
		b.fail("san: invalid %s name %q", kind, name)
		return false
	}
	if prev, dup := b.root.names[name]; dup {
		b.fail("san: %s %q conflicts with existing %s", kind, name, prev)
		return false
	}
	b.root.names[name] = kind
	return true
}

// Place declares a simple place with an initial token count and returns its
// id. Declaring a duplicate name records an error surfaced by Build.
func (b *Builder) Place(name string, initial int) PlaceID {
	qn := b.qualify(name)
	if initial < 0 {
		b.fail("san: place %q has negative initial marking %d", qn, initial)
		initial = 0
	}
	if !b.claim(qn, "place") {
		// Return the existing id if the clash is with a place, so callers
		// can keep going; Build will still report the error.
		if id, ok := b.root.model.placeIdx[qn]; ok {
			return id
		}
	}
	id := PlaceID(len(b.root.model.places))
	b.root.model.places = append(b.root.model.places, placeDef{name: qn, initial: initial})
	b.root.model.placeIdx[qn] = id
	return id
}

// ExtPlace declares an extended place with initial array contents.
func (b *Builder) ExtPlace(name string, initial []int) ExtPlaceID {
	qn := b.qualify(name)
	if !b.claim(qn, "extended place") {
		if id, ok := b.root.model.extIdx[qn]; ok {
			return id
		}
	}
	id := ExtPlaceID(len(b.root.model.extPlaces))
	b.root.model.extPlaces = append(b.root.model.extPlaces,
		extPlaceDef{name: qn, initial: append([]int(nil), initial...)})
	b.root.model.extIdx[qn] = id
	return id
}

// Timed registers a timed activity. The activity's Name is qualified with
// the builder's scope.
func (b *Builder) Timed(a TimedActivity) {
	a.Name = b.qualify(a.Name)
	if !b.claim(a.Name, "timed activity") {
		return
	}
	if a.Rate == nil {
		b.fail("san: timed activity %q has no rate", a.Name)
		return
	}
	b.root.model.timed = append(b.root.model.timed, a)
	b.root.model.activities[a.Name] = true
}

// Instant registers an instantaneous activity.
func (b *Builder) Instant(a InstantActivity) {
	a.Name = b.qualify(a.Name)
	if !b.claim(a.Name, "instantaneous activity") {
		return
	}
	if a.Enabled == nil {
		b.fail("san: instantaneous activity %q has no enabling predicate", a.Name)
		return
	}
	b.root.model.instants = append(b.root.model.instants, a)
	b.root.model.activities[a.Name] = true
}

// Rep composes n replicas of a submodel, mirroring the Möbius Rep operator:
// sub is invoked once per replica with a scoped builder ("name[i]") and the
// replica index. State shared between replicas lives in places created
// outside the replica scopes.
func (b *Builder) Rep(name string, n int, sub func(rb *Builder, i int)) {
	if n <= 0 {
		b.fail("san: Rep %q with non-positive count %d", b.qualify(name), n)
		return
	}
	for i := 0; i < n; i++ {
		sub(b.Scope(fmt.Sprintf("%s[%d]", name, i)), i)
	}
}

// Join composes several named submodels, mirroring the Möbius Join operator.
// Each submodel builds into its own scope; sharing happens through places
// owned by b (or any ancestor scope).
func (b *Builder) Join(subs map[string]func(jb *Builder)) {
	// Deterministic order: sort keys.
	names := make([]string, 0, len(subs))
	for name := range subs {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		subs[name](b.Scope(name))
	}
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Build finalises and validates the model. The builder must not be reused
// afterwards.
//
// Beyond the incremental checks recorded while building (duplicate or
// invalid names, negative initial markings, missing rates), Build probes
// every enabling predicate against the initial marking: a gate that
// references an unknown place — a stale or out-of-range PlaceID, typically
// captured from another model — is rejected here at build time instead of
// panicking deep inside a simulation run. Predicates are read-only by
// contract, so probing them is safe; effects are deliberately not probed
// (firing a disabled activity's effect may legitimately panic).
func (b *Builder) Build() (*Model, error) {
	st := b.root
	if st.finished {
		return nil, errors.New("san: Build called twice")
	}
	st.finished = true
	if len(st.errs) > 0 {
		return nil, errors.Join(st.errs...)
	}
	if len(st.model.timed)+len(st.model.instants) == 0 {
		return nil, fmt.Errorf("san: model %q has no activities", st.name)
	}
	init := st.model.InitialMarking()
	for i := range st.model.timed {
		a := &st.model.timed[i]
		if err := probePredicate("timed activity", a.Name, a.Enabled, init); err != nil {
			st.errs = append(st.errs, err)
		}
	}
	for i := range st.model.instants {
		a := &st.model.instants[i]
		if err := probePredicate("instantaneous activity", a.Name, a.Enabled, init); err != nil {
			st.errs = append(st.errs, err)
		}
	}
	if len(st.errs) > 0 {
		return nil, errors.Join(st.errs...)
	}
	return &st.model, nil
}

// probePredicate evaluates pred on mk, converting a panic (out-of-range or
// foreign place id, unguarded extended-place index) into a build error.
func probePredicate(kind, name string, pred Predicate, mk *Marking) (err error) {
	if pred == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("san: %s %q: enabling predicate failed on the initial marking (gate referencing an unknown place?): %v", kind, name, r)
		}
	}()
	pred(mk)
	return nil
}

// MustBuild is Build for static models known to be valid; it panics on error.
func (b *Builder) MustBuild() *Model {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// --- Standard arc combinators -------------------------------------------
//
// SANs generalise arcs with gates; these helpers express the common
// plain-arc patterns as predicates/effects so models stay readable.

// HasTokens returns a predicate true when place p holds at least k tokens.
func HasTokens(p PlaceID, k int) Predicate {
	return func(m *Marking) bool { return m.Tokens(p) >= k }
}

// Consume returns an effect removing k tokens from p.
func Consume(p PlaceID, k int) Effect {
	return func(m *Marking) { m.Add(p, -k) }
}

// Produce returns an effect adding k tokens to p.
func Produce(p PlaceID, k int) Effect {
	return func(m *Marking) { m.Add(p, k) }
}

// Move returns an effect moving k tokens from src to dst.
func Move(src, dst PlaceID, k int) Effect {
	return func(m *Marking) {
		m.Add(src, -k)
		m.Add(dst, k)
	}
}

// AllOf combines predicates conjunctively.
func AllOf(ps ...Predicate) Predicate {
	return func(m *Marking) bool {
		for _, p := range ps {
			if !p(m) {
				return false
			}
		}
		return true
	}
}

// AnyOf combines predicates disjunctively.
func AnyOf(ps ...Predicate) Predicate {
	return func(m *Marking) bool {
		for _, p := range ps {
			if p(m) {
				return true
			}
		}
		return false
	}
}

// Not negates a predicate.
func Not(p Predicate) Predicate {
	return func(m *Marking) bool { return !p(m) }
}

// Seq combines effects sequentially.
func Seq(es ...Effect) Effect {
	return func(m *Marking) {
		for _, e := range es {
			if e != nil {
				e(m)
			}
		}
	}
}

// ConstRate returns a marking-independent rate function.
func ConstRate(r float64) RateFn {
	return func(*Marking) float64 { return r }
}

// ConstWeight returns a marking-independent case weight.
func ConstWeight(w float64) WeightFn {
	return func(*Marking) float64 { return w }
}
