package san

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildMM1K returns a tiny birth-death SAN used across tests: arrivals into
// a bounded queue place, departures out of it.
func buildMM1K(k int, lambda, mu float64) (*Model, PlaceID) {
	b := NewBuilder("mm1k")
	q := b.Place("queue", 0)
	b.Timed(TimedActivity{
		Name:    "arrive",
		Enabled: func(m *Marking) bool { return m.Tokens(q) < k },
		Rate:    ConstRate(lambda),
		Input:   Produce(q, 1),
	})
	b.Timed(TimedActivity{
		Name:    "depart",
		Enabled: HasTokens(q, 1),
		Rate:    ConstRate(mu),
		Input:   Consume(q, 1),
	})
	return b.MustBuild(), q
}

func TestBuilderBasicModel(t *testing.T) {
	m, q := buildMM1K(5, 1, 2)
	if m.Name() != "mm1k" {
		t.Fatalf("name %q", m.Name())
	}
	if m.NumPlaces() != 1 || m.NumTimed() != 2 || m.NumInstant() != 0 {
		t.Fatalf("unexpected structure: %d places, %d timed, %d instant",
			m.NumPlaces(), m.NumTimed(), m.NumInstant())
	}
	mk := m.InitialMarking()
	if mk.Tokens(q) != 0 {
		t.Fatalf("initial marking %d", mk.Tokens(q))
	}
	if id, ok := m.PlaceByName("queue"); !ok || id != q {
		t.Fatal("PlaceByName lookup failed")
	}
	if m.PlaceName(q) != "queue" {
		t.Fatalf("PlaceName %q", m.PlaceName(q))
	}
}

func TestBuilderDuplicatePlaceFails(t *testing.T) {
	b := NewBuilder("dup")
	b.Place("p", 0)
	b.Place("p", 1)
	b.Timed(TimedActivity{Name: "a", Rate: ConstRate(1)})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate-place error")
	}
}

func TestBuilderCrossKindNameClash(t *testing.T) {
	b := NewBuilder("clash")
	b.Place("x", 0)
	b.Timed(TimedActivity{Name: "x", Rate: ConstRate(1)})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected cross-kind name clash error")
	}
}

func TestBuilderRequiresRate(t *testing.T) {
	b := NewBuilder("norate")
	b.Timed(TimedActivity{Name: "brake"})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), `"brake" has no rate`) {
		t.Fatalf("expected missing-rate error naming the activity, got %v", err)
	}
}

func TestBuilderRequiresInstantPredicate(t *testing.T) {
	b := NewBuilder("nopred")
	b.Instant(InstantActivity{Name: "a"})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "enabling predicate") {
		t.Fatal("expected missing-predicate error")
	}
}

func TestBuilderEmptyModelFails(t *testing.T) {
	b := NewBuilder("empty")
	b.Place("p", 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected no-activities error")
	}
}

func TestBuilderNegativeInitialMarking(t *testing.T) {
	b := NewBuilder("neg")
	b.Place("p", -1)
	b.Timed(TimedActivity{Name: "a", Rate: ConstRate(1)})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected negative-initial-marking error")
	}
}

func TestBuilderBuildTwice(t *testing.T) {
	b := NewBuilder("twice")
	b.Timed(TimedActivity{Name: "a", Rate: ConstRate(1)})
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error on second Build")
	}
}

func TestScopeNamespacing(t *testing.T) {
	b := NewBuilder("scoped")
	shared := b.Place("shared", 1)
	sub := b.Scope("veh")
	local := sub.Place("cc", 1)
	sub.Timed(TimedActivity{
		Name:    "fail",
		Enabled: AllOf(HasTokens(local, 1), HasTokens(shared, 1)),
		Rate:    ConstRate(1),
		Input:   Seq(Consume(local, 1), Consume(shared, 1)),
	})
	m := b.MustBuild()
	if _, ok := m.PlaceByName("veh.cc"); !ok {
		t.Fatal("scoped place not namespaced as veh.cc")
	}
	if m.TimedIndex("veh.fail") < 0 {
		t.Fatal("scoped activity not namespaced as veh.fail")
	}
}

func TestRepCreatesReplicas(t *testing.T) {
	b := NewBuilder("rep")
	shared := b.Place("pool", 3)
	b.Rep("v", 3, func(rb *Builder, i int) {
		p := rb.Place("mine", 0)
		rb.Timed(TimedActivity{
			Name:    "grab",
			Enabled: HasTokens(shared, 1),
			Rate:    ConstRate(float64(i + 1)),
			Input:   Move(shared, p, 1),
		})
	})
	m := b.MustBuild()
	if m.NumTimed() != 3 || m.NumPlaces() != 4 {
		t.Fatalf("rep structure: %d timed, %d places", m.NumTimed(), m.NumPlaces())
	}
	for _, name := range []string{"v[0].grab", "v[1].grab", "v[2].grab"} {
		if m.TimedIndex(name) < 0 {
			t.Fatalf("missing replica activity %q", name)
		}
	}
}

func TestRepRejectsNonPositiveCount(t *testing.T) {
	b := NewBuilder("rep0")
	b.Rep("v", 0, func(rb *Builder, i int) {})
	b.Timed(TimedActivity{Name: "a", Rate: ConstRate(1)})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected Rep count error")
	}
}

func TestJoinComposesSubmodels(t *testing.T) {
	b := NewBuilder("join")
	shared := b.Place("bus", 0)
	b.Join(map[string]func(*Builder){
		"producer": func(jb *Builder) {
			jb.Timed(TimedActivity{Name: "put", Rate: ConstRate(1), Input: Produce(shared, 1)})
		},
		"consumer": func(jb *Builder) {
			jb.Timed(TimedActivity{
				Name: "get", Enabled: HasTokens(shared, 1),
				Rate: ConstRate(1), Input: Consume(shared, 1),
			})
		},
	})
	m := b.MustBuild()
	if m.TimedIndex("producer.put") < 0 || m.TimedIndex("consumer.get") < 0 {
		t.Fatal("join submodels not namespaced")
	}
}

func TestMarkingCloneIndependence(t *testing.T) {
	m, q := buildMM1K(5, 1, 1)
	a := m.InitialMarking()
	bm := a.Clone()
	a.Add(q, 3)
	if bm.Tokens(q) != 0 {
		t.Fatal("clone aliased original storage")
	}
	if a.Equal(bm) {
		t.Fatal("Equal failed to detect difference")
	}
	bm.Add(q, 3)
	if !a.Equal(bm) {
		t.Fatal("Equal failed on identical markings")
	}
}

func TestMarkingCopyFrom(t *testing.T) {
	m, q := buildMM1K(5, 1, 1)
	a := m.InitialMarking()
	a.Add(q, 2)
	bm := m.InitialMarking()
	bm.CopyFrom(a)
	if bm.Tokens(q) != 2 {
		t.Fatal("CopyFrom missed token state")
	}
	a.Add(q, 1)
	if bm.Tokens(q) != 2 {
		t.Fatal("CopyFrom aliased storage")
	}
}

func TestMarkingNegativePanics(t *testing.T) {
	m, q := buildMM1K(5, 1, 1)
	mk := m.InitialMarking()
	defer func() {
		if recover() == nil {
			t.Fatal("negative marking did not panic")
		}
	}()
	mk.Add(q, -1)
}

func TestExtendedPlaceOperations(t *testing.T) {
	b := NewBuilder("ext")
	e := b.ExtPlace("platoon", []int{10, 20, 30})
	b.Timed(TimedActivity{Name: "noop", Rate: ConstRate(1)})
	m := b.MustBuild()
	mk := m.InitialMarking()

	if mk.ExtLen(e) != 3 || mk.ExtAt(e, 1) != 20 {
		t.Fatalf("initial ext contents %v", mk.Ext(e))
	}
	if got := mk.ExtIndexOf(e, 30); got != 2 {
		t.Fatalf("ExtIndexOf(30) = %d", got)
	}
	if got := mk.ExtIndexOf(e, 99); got != -1 {
		t.Fatalf("ExtIndexOf(99) = %d", got)
	}
	mk.ExtAppend(e, 40)
	mk.ExtRemoveAt(e, 0)
	want := []int{20, 30, 40}
	for i, v := range want {
		if mk.ExtAt(e, i) != v {
			t.Fatalf("after ops, ext = %v, want %v", mk.Ext(e), want)
		}
	}
	mk.ExtInsertAt(e, 1, 25)
	if mk.ExtAt(e, 1) != 25 || mk.ExtLen(e) != 4 {
		t.Fatalf("after insert, ext = %v", mk.Ext(e))
	}
	mk.ExtSet(e, 0, 21)
	if mk.ExtAt(e, 0) != 21 {
		t.Fatal("ExtSet failed")
	}
	mk.ExtClear(e)
	if mk.ExtLen(e) != 0 {
		t.Fatal("ExtClear failed")
	}
	// Initial marking must be unaffected by mutations (deep copy).
	if fresh := m.InitialMarking(); fresh.ExtLen(e) != 3 {
		t.Fatal("mutations leaked into the model's initial extended marking")
	}
}

func TestExtCloneDeepCopies(t *testing.T) {
	b := NewBuilder("extclone")
	e := b.ExtPlace("arr", []int{1})
	b.Timed(TimedActivity{Name: "noop", Rate: ConstRate(1)})
	m := b.MustBuild()
	a := m.InitialMarking()
	cp := a.Clone()
	a.ExtSet(e, 0, 99)
	if cp.ExtAt(e, 0) != 1 {
		t.Fatal("Clone aliased extended place storage")
	}
}

func TestPredicateCombinators(t *testing.T) {
	m, q := buildMM1K(5, 1, 1)
	mk := m.InitialMarking()
	mk.Add(q, 2)
	if !AllOf(HasTokens(q, 1), HasTokens(q, 2))(mk) {
		t.Fatal("AllOf failed")
	}
	if AllOf(HasTokens(q, 1), HasTokens(q, 3))(mk) {
		t.Fatal("AllOf false positive")
	}
	if !AnyOf(HasTokens(q, 9), HasTokens(q, 1))(mk) {
		t.Fatal("AnyOf failed")
	}
	if AnyOf(HasTokens(q, 9), HasTokens(q, 8))(mk) {
		t.Fatal("AnyOf false positive")
	}
	if Not(HasTokens(q, 1))(mk) {
		t.Fatal("Not failed")
	}
}

func TestEffectCombinators(t *testing.T) {
	b := NewBuilder("fx")
	p1 := b.Place("a", 5)
	p2 := b.Place("b", 0)
	b.Timed(TimedActivity{Name: "noop", Rate: ConstRate(1)})
	m := b.MustBuild()
	mk := m.InitialMarking()
	Seq(Move(p1, p2, 2), Produce(p2, 1), nil)(mk)
	if mk.Tokens(p1) != 3 || mk.Tokens(p2) != 3 {
		t.Fatalf("after Seq: a=%d b=%d", mk.Tokens(p1), mk.Tokens(p2))
	}
}

func TestCaseWeights(t *testing.T) {
	m, q := buildMM1K(5, 1, 1)
	mk := m.InitialMarking()
	cases := []Case{
		{Weight: ConstWeight(1)},
		{}, // nil weight = 1
		{Weight: func(mm *Marking) float64 { return float64(mm.Tokens(q)) }},
	}
	ws, err := CaseWeights(cases, mk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 || ws[0] != 1 || ws[1] != 1 || ws[2] != 0 {
		t.Fatalf("weights %v", ws)
	}
	// Implicit unit case for empty case lists.
	ws, err = CaseWeights(nil, mk, ws)
	if err != nil || len(ws) != 1 || ws[0] != 1 {
		t.Fatalf("implicit case weights %v, %v", ws, err)
	}
}

func TestCaseWeightsErrors(t *testing.T) {
	m, _ := buildMM1K(5, 1, 1)
	mk := m.InitialMarking()
	if _, err := CaseWeights([]Case{{Weight: ConstWeight(-1)}}, mk, nil); err == nil {
		t.Fatal("expected negative-weight error")
	}
	if _, err := CaseWeights([]Case{{Weight: ConstWeight(0)}}, mk, nil); err == nil {
		t.Fatal("expected zero-total error")
	}
}

func TestRateValidation(t *testing.T) {
	m, _ := buildMM1K(5, 1, 1)
	mk := m.InitialMarking()
	bad := TimedActivity{Name: "bad", Rate: ConstRate(0)}
	if _, err := bad.RateIn(mk); err == nil {
		t.Fatal("expected invalid-rate error for zero rate")
	}
	good := TimedActivity{Name: "good", Rate: ConstRate(2.5)}
	r, err := good.RateIn(mk)
	if err != nil || r != 2.5 {
		t.Fatalf("RateIn = %v, %v", r, err)
	}
}

func TestFireTimedAppliesInputThenCase(t *testing.T) {
	b := NewBuilder("order")
	p := b.Place("p", 1)
	trace := []string{}
	act := TimedActivity{
		Name: "a",
		Rate: ConstRate(1),
		Input: func(m *Marking) {
			trace = append(trace, "input")
			m.Add(p, -1)
		},
		Cases: []Case{
			{Output: func(m *Marking) { trace = append(trace, "case0") }},
			{Output: func(m *Marking) { trace = append(trace, "case1") }},
		},
	}
	b.Timed(act)
	m := b.MustBuild()
	mk := m.InitialMarking()
	FireTimed(m.Timed(0), 1, mk)
	if len(trace) != 2 || trace[0] != "input" || trace[1] != "case1" {
		t.Fatalf("firing order %v", trace)
	}
	if mk.Tokens(p) != 0 {
		t.Fatal("input effect not applied")
	}
}

func TestMarkingEqualAcrossModels(t *testing.T) {
	m1, _ := buildMM1K(5, 1, 1)
	m2, _ := buildMM1K(5, 1, 1)
	if m1.InitialMarking().Equal(m2.InitialMarking()) {
		t.Fatal("markings of distinct models must not compare equal")
	}
}

func TestExtInsertRemovePreservesOrderProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewBuilder("prop")
		e := b.ExtPlace("arr", nil)
		b.Timed(TimedActivity{Name: "noop", Rate: ConstRate(1)})
		m := b.MustBuild()
		mk := m.InitialMarking()
		var ref []int
		for n, op := range ops {
			if len(ref) == 0 || op%2 == 0 {
				pos := 0
				if len(ref) > 0 {
					pos = int(op) % (len(ref) + 1)
				}
				mk.ExtInsertAt(e, pos, n)
				ref = append(ref, 0)
				copy(ref[pos+1:], ref[pos:])
				ref[pos] = n
			} else {
				pos := int(op) % len(ref)
				mk.ExtRemoveAt(e, pos)
				ref = append(ref[:pos], ref[pos+1:]...)
			}
		}
		if mk.ExtLen(e) != len(ref) {
			return false
		}
		for i, v := range ref {
			if mk.ExtAt(e, i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelAccessors(t *testing.T) {
	b := NewBuilder("acc")
	p := b.Place("p", 1)
	e := b.ExtPlace("arr", []int{5})
	b.Timed(TimedActivity{Name: "t", Rate: ConstRate(1)})
	b.Instant(InstantActivity{Name: "i", Enabled: HasTokens(p, 99)})
	m := b.MustBuild()

	if m.NumExtPlaces() != 1 {
		t.Fatalf("NumExtPlaces %d", m.NumExtPlaces())
	}
	if id, ok := m.ExtPlaceByName("arr"); !ok || id != e {
		t.Fatal("ExtPlaceByName failed")
	}
	if _, ok := m.ExtPlaceByName("nope"); ok {
		t.Fatal("ExtPlaceByName false positive")
	}
	if m.ExtPlaceName(e) != "arr" {
		t.Fatalf("ExtPlaceName %q", m.ExtPlaceName(e))
	}
	if m.Instant(0).Name != "i" {
		t.Fatalf("Instant(0).Name %q", m.Instant(0).Name)
	}
	if m.TimedIndex("missing") != -1 {
		t.Fatal("TimedIndex for missing activity must be -1")
	}
	mk := m.InitialMarking()
	if mk.Model() != m {
		t.Fatal("Marking.Model mismatch")
	}
	if got := mk.Ext(e); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Ext contents %v", got)
	}
	// Timed activity with nil predicate is always enabled.
	if !m.Timed(0).EnabledIn(mk) {
		t.Fatal("nil-predicate activity must be enabled")
	}
	if m.Instant(0).EnabledIn(mk) {
		t.Fatal("instant with unmet predicate must be disabled")
	}
	// FireInstant applies input + case like FireTimed.
	fired := 0
	act := InstantActivity{
		Name:    "x",
		Enabled: func(*Marking) bool { return true },
		Input:   func(*Marking) { fired++ },
	}
	FireInstant(&act, 0, mk)
	if fired != 1 {
		t.Fatal("FireInstant did not apply input effect")
	}
}

func TestMarkingEqualDiffersOnExt(t *testing.T) {
	b := NewBuilder("eqext")
	e := b.ExtPlace("arr", []int{1, 2})
	b.Timed(TimedActivity{Name: "t", Rate: ConstRate(1)})
	m := b.MustBuild()
	x, y := m.InitialMarking(), m.InitialMarking()
	if !x.Equal(y) {
		t.Fatal("identical markings must compare equal")
	}
	y.ExtSet(e, 1, 99)
	if x.Equal(y) {
		t.Fatal("ext difference not detected")
	}
	y.ExtSet(e, 1, 2)
	y.ExtAppend(e, 3)
	if x.Equal(y) {
		t.Fatal("ext length difference not detected")
	}
	x.CopyFrom(y)
	if !x.Equal(y) {
		t.Fatal("CopyFrom did not reproduce ext state")
	}
}
