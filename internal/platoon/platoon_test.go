package platoon

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTable1Taxonomy(t *testing.T) {
	cases := []struct {
		fm   FailureMode
		sev  Severity
		cls  Class
		man  Maneuver
		mult float64
	}{
		{FM1, SeverityA3, ClassA, AS, 1},
		{FM2, SeverityA2, ClassA, CS, 2},
		{FM3, SeverityA1, ClassA, GS, 2},
		{FM4, SeverityB2, ClassB, TIEE, 2},
		{FM5, SeverityB1, ClassB, TIE, 3},
		{FM6, SeverityC, ClassC, TIEN, 4},
	}
	for _, c := range cases {
		if c.fm.Severity() != c.sev {
			t.Errorf("%v severity %v, want %v", c.fm, c.fm.Severity(), c.sev)
		}
		if c.fm.Class() != c.cls {
			t.Errorf("%v class %v, want %v", c.fm, c.fm.Class(), c.cls)
		}
		if c.fm.Maneuver() != c.man {
			t.Errorf("%v maneuver %v, want %v", c.fm, c.fm.Maneuver(), c.man)
		}
		if c.fm.RateMultiplier() != c.mult {
			t.Errorf("%v rate multiplier %v, want %v", c.fm, c.fm.RateMultiplier(), c.mult)
		}
		if !c.fm.Valid() {
			t.Errorf("%v must be valid", c.fm)
		}
	}
	if FailureMode(0).Valid() || FailureMode(7).Valid() {
		t.Error("out-of-range failure modes must be invalid")
	}
	if len(AllFailureModes()) != 6 {
		t.Error("AllFailureModes must list six modes")
	}
}

func TestManeuverPriorityOrdering(t *testing.T) {
	// §2.1.1: AS > CS > GS (class A); B1 = B2; C lowest.
	if !(AS.PriorityLevel() > CS.PriorityLevel()) {
		t.Error("AS must outrank CS")
	}
	if !(CS.PriorityLevel() > GS.PriorityLevel()) {
		t.Error("CS must outrank GS")
	}
	if !(GS.PriorityLevel() > TIE.PriorityLevel()) {
		t.Error("class A must outrank class B")
	}
	if TIE.PriorityLevel() != TIEE.PriorityLevel() {
		t.Error("TIE and TIE-E share priority (B1 = B2)")
	}
	if !(TIE.PriorityLevel() > TIEN.PriorityLevel()) {
		t.Error("class B must outrank class C")
	}
	if Maneuver(0).PriorityLevel() != 0 {
		t.Error("invalid maneuver must have level 0")
	}
}

func TestEscalationChain(t *testing.T) {
	// FM6 escalates stepwise to FM1, then terminates (v_KO).
	want := []FailureMode{FM5, FM4, FM3, FM2, FM1}
	f := FM6
	for _, w := range want {
		next, ok := f.Escalate()
		if !ok || next != w {
			t.Fatalf("escalate(%v) = %v,%v; want %v,true", f, next, ok, w)
		}
		f = next
	}
	if _, ok := FM1.Escalate(); ok {
		t.Fatal("FM1 must not escalate (v_KO)")
	}
}

func TestEscalationStrictlyIncreasesPriority(t *testing.T) {
	for _, f := range AllFailureModes() {
		next, ok := f.Escalate()
		if !ok {
			continue
		}
		if next.Maneuver().PriorityLevel() < f.Maneuver().PriorityLevel() {
			t.Errorf("escalation %v -> %v decreases maneuver priority", f, next)
		}
	}
}

func TestModeForManeuverLevel(t *testing.T) {
	// FM6 refused until class-A level 4 must escalate to FM2 (CS).
	got := ModeForManeuverLevel(FM6, CS.PriorityLevel())
	if got != FM2 {
		t.Fatalf("ModeForManeuverLevel(FM6, CS) = %v, want FM2", got)
	}
	// Already sufficient: unchanged.
	if got := ModeForManeuverLevel(FM1, 1); got != FM1 {
		t.Fatalf("FM1 at level 1 = %v", got)
	}
	// Level above AS: saturates at FM1.
	if got := ModeForManeuverLevel(FM6, 99); got != FM1 {
		t.Fatalf("saturation = %v, want FM1", got)
	}
	// TIE (B1, FM5) refused at level 2 stays: equal priority is accepted.
	if got := ModeForManeuverLevel(FM5, 2); got != FM5 {
		t.Fatalf("equal level must be accepted, got %v", got)
	}
}

func TestManeuverForMode(t *testing.T) {
	cases := []struct {
		fm    FailureMode
		floor int
		want  Maneuver
	}{
		{FM6, 0, TIEN}, // no refusal: natural maneuver
		{FM6, 1, TIEN}, // equal priority accepted
		{FM6, 2, TIE},  // pushed to class B: unassisted exit
		{FM4, 2, TIEE}, // FM4 keeps its escorted exit
		{FM6, 3, GS},   // pushed to class A
		{FM5, 4, CS},   //
		{FM6, 5, AS},   // top of the chain
		{FM1, 3, AS},   // natural already above the floor
		{FM3, 2, GS},   // natural GS outranks floor 2
		{FM4, 99, AS},  // floor saturates at AS
	}
	for _, c := range cases {
		if got := ManeuverForMode(c.fm, c.floor); got != c.want {
			t.Errorf("ManeuverForMode(%v, %d) = %v, want %v", c.fm, c.floor, got, c.want)
		}
	}
}

func TestManeuverForModeNeverBelowNatural(t *testing.T) {
	for _, f := range AllFailureModes() {
		for floor := 0; floor <= 6; floor++ {
			got := ManeuverForMode(f, floor)
			if got.PriorityLevel() < f.Maneuver().PriorityLevel() {
				t.Errorf("ManeuverForMode(%v, %d) = %v below natural %v", f, floor, got, f.Maneuver())
			}
			if floor <= 5 && got.PriorityLevel() < floor {
				t.Errorf("ManeuverForMode(%v, %d) = %v below floor", f, floor, got)
			}
		}
	}
}

func TestClassifySituationTable2(t *testing.T) {
	cases := []struct {
		nA, nB, nC int
		want       Situation
	}{
		{0, 0, 0, SituationNone},
		{1, 0, 0, SituationNone},
		{2, 0, 0, ST1},
		{3, 1, 1, ST1},
		{1, 2, 0, ST2},
		{1, 1, 1, ST2},
		{1, 0, 3, ST2},
		{1, 1, 0, SituationNone},
		{1, 0, 2, SituationNone},
		{0, 4, 0, ST3},
		{0, 2, 2, ST3},
		{0, 0, 4, ST3},
		{0, 3, 0, SituationNone},
		{0, 1, 2, SituationNone},
	}
	for _, c := range cases {
		got := ClassifySituation(c.nA, c.nB, c.nC)
		if got != c.want {
			t.Errorf("ClassifySituation(%d,%d,%d) = %v, want %v", c.nA, c.nB, c.nC, got, c.want)
		}
		if Catastrophic(c.nA, c.nB, c.nC) != (c.want != SituationNone) {
			t.Errorf("Catastrophic(%d,%d,%d) inconsistent with classification", c.nA, c.nB, c.nC)
		}
	}
}

func TestCatastrophicMonotoneProperty(t *testing.T) {
	// Adding failures can never make a catastrophic combination safe.
	f := func(a, b, c, da, db, dc uint8) bool {
		nA, nB, nC := int(a%4), int(b%6), int(c%6)
		if !Catastrophic(nA, nB, nC) {
			return true
		}
		return Catastrophic(nA+int(da%3), nB+int(db%3), nC+int(dc%3))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyCodes(t *testing.T) {
	if DD.String() != "DD" || DC.String() != "DC" || CD.String() != "CD" || CC.String() != "CC" {
		t.Fatalf("strategy codes: %v %v %v %v", DD, DC, CD, CC)
	}
	for _, code := range []string{"DD", "dc", "Cd", "CC"} {
		s, err := ParseStrategy(code)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", code, err)
		}
		if len(AllStrategies()) != 4 {
			t.Fatal("AllStrategies must have 4 entries")
		}
		_ = s
	}
	for _, code := range []string{"", "D", "DDD", "XX", "D1"} {
		if _, err := ParseStrategy(code); err == nil {
			t.Errorf("ParseStrategy(%q) should fail", code)
		}
	}
	rt, err := ParseStrategy("CD")
	if err != nil || rt != CD {
		t.Fatalf("round trip CD got %v, %v", rt, err)
	}
}

// testView builds a View over two platoons where the given ids are degraded.
func testView(p1, p2 []int, degraded ...int) View {
	bad := make(map[int]bool, len(degraded))
	for _, id := range degraded {
		bad[id] = true
	}
	return View{
		Platoons:    [][]int{p1, p2},
		Operational: func(id int) bool { return !bad[id] },
	}
}

func sortedParticipants(t *testing.T, v View, vehicle int, m Maneuver, s Strategy) []int {
	t.Helper()
	got, err := Participants(v, vehicle, m, s)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	return got
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLocateAndLeader(t *testing.T) {
	v := testView([]int{10, 11, 12}, []int{20})
	pi, pos, ok := v.Locate(11)
	if !ok || pi != 0 || pos != 1 {
		t.Fatalf("Locate(11) = %d,%d,%v", pi, pos, ok)
	}
	if _, _, ok := v.Locate(99); ok {
		t.Fatal("Locate of absent vehicle must fail")
	}
	if l, ok := v.Leader(0); !ok || l != 10 {
		t.Fatalf("Leader(0) = %d,%v", l, ok)
	}
	empty := testView(nil, []int{20})
	if _, ok := empty.Leader(0); ok {
		t.Fatal("Leader of empty platoon must fail")
	}
}

func TestParticipantsTIEEMatchesPaper(t *testing.T) {
	// §2.2.1's explicit example. Platoon: 10(leader) 11 12(faulty) 13 14.
	// Neighbour platoon: 20(leader) 21.
	v := testView([]int{10, 11, 12, 13, 14}, []int{20, 21})

	// Centralized inter: all vehicles in front (incl. leader) + vehicle
	// behind + neighbouring leader.
	got := sortedParticipants(t, v, 12, TIEE, CD)
	want := []int{10, 11, 13, 20}
	if !equalInts(got, want) {
		t.Fatalf("centralized TIE-E participants %v, want %v", got, want)
	}

	// Decentralized inter: the two leaders + immediate front and back.
	got = sortedParticipants(t, v, 12, TIEE, DD)
	want = []int{10, 11, 13, 20}
	// For position 2 the vehicle ahead (11) plus leader (10): same as
	// centralized in this tiny case; use a longer platoon to discriminate.
	if !equalInts(got, want) {
		t.Fatalf("decentralized TIE-E participants %v, want %v", got, want)
	}

	// Faulty vehicle further back discriminates the strategies.
	v = testView([]int{10, 11, 12, 13, 14, 15}, []int{20, 21})
	gotC := sortedParticipants(t, v, 14, TIEE, CC)
	wantC := []int{10, 11, 12, 13, 15, 20}
	if !equalInts(gotC, wantC) {
		t.Fatalf("centralized TIE-E (deep) %v, want %v", gotC, wantC)
	}
	gotD := sortedParticipants(t, v, 14, TIEE, DD)
	wantD := []int{10, 13, 15, 20}
	if !equalInts(gotD, wantD) {
		t.Fatalf("decentralized TIE-E (deep) %v, want %v", gotD, wantD)
	}
	if len(gotC) <= len(gotD) {
		t.Fatal("centralized inter must involve more vehicles than decentralized")
	}
}

func TestParticipantsStopManeuversUseIntraStrategy(t *testing.T) {
	v := testView([]int{10, 11, 12, 13, 14}, []int{20})
	// CS (emergency stop): only the vehicle behind (plus leader if intra
	// is centralized).
	got := sortedParticipants(t, v, 12, CS, DD)
	if !equalInts(got, []int{13}) {
		t.Fatalf("DD CS participants %v", got)
	}
	got = sortedParticipants(t, v, 12, CS, DC)
	if !equalInts(got, []int{10, 13}) {
		t.Fatalf("DC CS participants %v", got)
	}
	// AS/GS: the vehicle immediately ahead cooperates (for AS it performs
	// the stop).
	got = sortedParticipants(t, v, 12, AS, DD)
	if !equalInts(got, []int{11, 13}) {
		t.Fatalf("DD AS participants %v", got)
	}
	got = sortedParticipants(t, v, 12, GS, DC)
	if !equalInts(got, []int{10, 11, 13}) {
		t.Fatalf("DC GS participants %v", got)
	}
	// Inter strategy is irrelevant for stops.
	if !equalInts(sortedParticipants(t, v, 12, CS, CD), sortedParticipants(t, v, 12, CS, DD)) {
		t.Fatal("CS participants must not depend on the inter strategy")
	}
}

func TestParticipantsExitManeuversUseInterStrategy(t *testing.T) {
	v := testView([]int{10, 11, 12, 13, 14}, []int{20, 21})
	// Decentralized inter: TIE involves only the physical split partners.
	got := sortedParticipants(t, v, 12, TIE, DD)
	if !equalInts(got, []int{11, 13}) {
		t.Fatalf("DD TIE participants %v", got)
	}
	// Centralized intra adds the own leader, who coordinates the split
	// (§2.2.2).
	got = sortedParticipants(t, v, 12, TIE, DC)
	if !equalInts(got, []int{10, 11, 13}) {
		t.Fatalf("DC TIE participants %v", got)
	}
	// Centralized inter: the SAP arbitration adds both platoon leaders.
	got = sortedParticipants(t, v, 12, TIE, CD)
	if !equalInts(got, []int{10, 11, 13, 20}) {
		t.Fatalf("CD TIE participants %v", got)
	}
	// TIE-N: no vehicle ahead is needed.
	got = sortedParticipants(t, v, 12, TIEN, DD)
	if !equalInts(got, []int{13}) {
		t.Fatalf("DD TIE-N participants %v", got)
	}
	got = sortedParticipants(t, v, 12, TIEN, CC)
	if !equalInts(got, []int{10, 13, 20}) {
		t.Fatalf("CC TIE-N participants %v", got)
	}
}

func TestParticipantsCentralizedSupersetProperty(t *testing.T) {
	// For every maneuver and position, the centralized participant set
	// contains the decentralized one — the structural reason centralized
	// coordination is less safe (§2.2.1, Figures 14/15).
	p1 := []int{10, 11, 12, 13, 14, 15}
	p2 := []int{20, 21, 22}
	v := testView(p1, p2)
	for _, vehicle := range p1 {
		for _, m := range AllManeuvers() {
			dec, err := Participants(v, vehicle, m, DD)
			if err != nil {
				t.Fatal(err)
			}
			cen, err := Participants(v, vehicle, m, CC)
			if err != nil {
				t.Fatal(err)
			}
			cenSet := make(map[int]bool, len(cen))
			for _, id := range cen {
				cenSet[id] = true
			}
			for _, id := range dec {
				if !cenSet[id] {
					t.Errorf("vehicle %d maneuver %v: decentralized participant %d missing from centralized set",
						vehicle, m, id)
				}
			}
		}
	}
}

func TestParticipantsExcludeSelfAndExist(t *testing.T) {
	p1 := []int{10, 11, 12}
	p2 := []int{20}
	v := testView(p1, p2)
	known := map[int]bool{10: true, 11: true, 12: true, 20: true}
	for _, vehicle := range p1 {
		for _, m := range AllManeuvers() {
			for _, s := range AllStrategies() {
				parts, err := Participants(v, vehicle, m, s)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[int]bool{}
				for _, id := range parts {
					if id == vehicle {
						t.Fatalf("vehicle %d is its own participant for %v/%v", vehicle, m, s)
					}
					if !known[id] {
						t.Fatalf("participant %d does not exist", id)
					}
					if seen[id] {
						t.Fatalf("duplicate participant %d", id)
					}
					seen[id] = true
				}
			}
		}
	}
}

func TestParticipantsLeaderFaultUsesSuccessor(t *testing.T) {
	v := testView([]int{10, 11, 12}, []int{20})
	// Faulty leader: the would-be new leader (11) coordinates under
	// centralized intra.
	got := sortedParticipants(t, v, 10, CS, DC)
	if !equalInts(got, []int{11}) {
		t.Fatalf("leader-fault CS participants %v, want [11]", got)
	}
	// TIE-E by the leader, decentralized: successor + behind + neighbour
	// leader.
	got = sortedParticipants(t, v, 10, TIEE, DD)
	if !equalInts(got, []int{11, 20}) {
		t.Fatalf("leader-fault TIE-E participants %v, want [11 20]", got)
	}
}

func TestParticipantsEdgeSingletons(t *testing.T) {
	// A free agent (single-vehicle platoon) has no intra participants.
	v := testView([]int{10}, []int{20, 21})
	got := sortedParticipants(t, v, 10, AS, CC)
	if len(got) != 0 {
		t.Fatalf("free agent AS participants %v, want none", got)
	}
	// Its TIE-E still involves the neighbouring leader.
	got = sortedParticipants(t, v, 10, TIEE, DD)
	if !equalInts(got, []int{20}) {
		t.Fatalf("free agent TIE-E participants %v, want [20]", got)
	}
	// Empty neighbour platoon: no neighbour leader to involve.
	v = testView([]int{10, 11}, nil)
	got = sortedParticipants(t, v, 11, TIEE, CC)
	if !equalInts(got, []int{10}) {
		t.Fatalf("no-neighbour TIE-E participants %v, want [10]", got)
	}
}

func TestParticipantsErrors(t *testing.T) {
	v := testView([]int{10}, nil)
	if _, err := Participants(v, 99, TIE, DD); err == nil {
		t.Fatal("expected error for unknown vehicle")
	}
	if _, err := Participants(v, 10, Maneuver(0), DD); err == nil {
		t.Fatal("expected error for invalid maneuver")
	}
}

func TestStringMethods(t *testing.T) {
	if FM3.String() != "FM3" || FailureMode(9).String() == "FM9" {
		t.Error("FailureMode.String")
	}
	if SeverityA3.String() != "A3" || SeverityB1.String() != "B1" || SeverityC.String() != "C" {
		t.Error("Severity.String")
	}
	if ClassA.String() != "A" || ClassB.String() != "B" || ClassC.String() != "C" {
		t.Error("Class.String")
	}
	if TIEE.String() != "TIE-E" || AS.String() != "AS" {
		t.Error("Maneuver.String")
	}
	if Centralized.String() != "centralized" || Decentralized.String() != "decentralized" {
		t.Error("Coordination.String")
	}
	if ST1.String() != "ST1" || SituationNone.String() != "none" {
		t.Error("Situation.String")
	}
}
