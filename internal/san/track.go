package san

// padWords is the padding, in 8-byte words, put on both sides of a
// tracker's storage: two 64-byte cache lines, because adjacent-line
// prefetch moves lines in pairs. Parallel runners each own a tracker whose
// words change on nearly every access; without the padding two runners'
// small arrays can share a line and every write invalidates the other
// core's copy.
const padWords = 16

// Tracker records which places a set of numbered evaluations read, and
// marks an evaluation stale when one of those places is written. sim.Runner
// numbers its timed activities 0..n-1 and evaluates each one's gate, rate
// and bias factor between Begin(i) and End; after every event it redoes
// only the stale ones.
//
// The record is sound for evaluations that are pure functions of the
// marking, reached only through Marking's accessors (see Predicate). Such
// an evaluation, re-run in a marking where none of the places it read has
// changed, reads the same places and returns the same value. Between two
// MarkAll calls reader sets only grow, so a place read in any earlier
// evaluation keeps marking the evaluation stale: that is conservative,
// never wrong. Every write through an accessor counts, even one that
// stores the old value; CopyFrom marks everything stale.
//
// A tracker serves one marking at a time (Marking.SetTracker) and is not
// safe for concurrent use. Clone does not copy it.
type Tracker struct {
	_ [padWords * 8]byte

	n     int // evaluations tracked
	words int // bitset words per row: ceil(n/64), at least 1

	// scopeW and scopeB locate the bit of the evaluation in scope. Outside
	// Begin/End scopeB is 0, so recording a read ORs in nothing and needs
	// no branch.
	scopeW int
	scopeB uint64

	stale    []uint64 // bit i: evaluation i must be redone
	reads    []uint64 // row p (words long): evaluations that read simple place p
	extReads []uint64 // row p: evaluations that read extended place p

	_ [padWords * 8]byte
}

// NewTracker returns a tracker for n evaluations over the places of m, with
// every evaluation stale.
func NewTracker(m *Model, n int) *Tracker {
	words := max(1, (n+63)/64) // one word even for n = 0 keeps reads in bounds
	ns, nr := words, words*len(m.places)
	buf := padded(ns + nr + words*len(m.extPlaces))
	t := &Tracker{
		n:        n,
		words:    words,
		stale:    buf[:ns:ns],
		reads:    buf[ns : ns+nr : ns+nr],
		extReads: buf[ns+nr:],
	}
	t.MarkAll()
	return t
}

// padded returns n zeroed words with padWords of unused memory on each side.
func padded(n int) []uint64 {
	return make([]uint64, n+2*padWords)[padWords : padWords+n : padWords+n]
}

// Begin attributes the reads that follow, until End, to evaluation i.
func (t *Tracker) Begin(i int) {
	t.scopeW, t.scopeB = i>>6, 1<<(uint(i)&63)
}

// End closes the scope opened by Begin.
func (t *Tracker) End() { t.scopeW, t.scopeB = 0, 0 }

// Stale returns the stale set as a bitset: bit i%64 of word i/64 is set
// when evaluation i must be redone. The caller clears the bits of the
// evaluations it redoes.
func (t *Tracker) Stale() []uint64 { return t.stale }

// MarkAll marks every evaluation stale and forgets every recorded read:
// with nothing cached, no read needs to be remembered, and every
// evaluation records its reads afresh when it is redone. Reader sets thus
// only grow between two MarkAll calls, which keeps them close to what the
// current trajectory reads.
func (t *Tracker) MarkAll() {
	clear(t.reads)
	clear(t.extReads)
	for w := range t.stale {
		switch left := t.n - 64*w; {
		case left >= 64:
			t.stale[w] = ^uint64(0)
		case left <= 0:
			t.stale[w] = 0
		default:
			t.stale[w] = 1<<left - 1
		}
	}
}

func (t *Tracker) readPlace(p PlaceID) {
	t.reads[int(p)*t.words+t.scopeW] |= t.scopeB
}

func (t *Tracker) readExtPlace(p ExtPlaceID) {
	t.extReads[int(p)*t.words+t.scopeW] |= t.scopeB
}

func (t *Tracker) writePlace(p PlaceID) {
	t.wrote(t.reads[int(p)*t.words:][:t.words])
}

func (t *Tracker) writeExtPlace(p ExtPlaceID) {
	t.wrote(t.extReads[int(p)*t.words:][:t.words])
}

// wrote marks every reader of a written place stale.
func (t *Tracker) wrote(readers []uint64) {
	stale := t.stale[:len(readers)]
	for w, r := range readers {
		stale[w] |= r
	}
}
