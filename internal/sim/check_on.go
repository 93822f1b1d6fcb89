//go:build simcheck

package sim

import (
	"fmt"
	"math"
)

// crossCheck is true under the simcheck build tag: every incremental scan
// is followed by a full one, and any difference panics.
const crossCheck = true

// checkScan re-evaluates every timed activity from scratch, outside any
// tracker scope so it records nothing, and panics unless the enabled set
// and every original and biased rate match the incremental scan's cache bit
// for bit, as do the totals summed over the enabled activities only.
func (r *Runner) checkScan(total, biasedTotal float64) {
	var wantTotal, wantBiased float64
	enabled := 0
	for i := range r.rates {
		act := r.model.Timed(i)
		rate, b, err := r.rateOf(i, act)
		if err != nil {
			panic(fmt.Sprintf("sim: simcheck: full scan of %q failed where the incremental scan did not: %v", act.Name, err))
		}
		if rate > 0 {
			enabled++
			wantTotal += rate
			wantBiased += b
		}
		if math.Float64bits(rate) != math.Float64bits(r.rates[i]) ||
			math.Float64bits(b) != math.Float64bits(r.biased[i]) {
			panic(fmt.Sprintf("sim: simcheck: activity %q: incremental rate %b biased %b, full scan %b biased %b, in marking %s",
				act.Name, r.rates[i], r.biased[i], rate, b, r.marking.Summary()))
		}
	}
	if enabled != r.enabled ||
		math.Float64bits(wantTotal) != math.Float64bits(total) ||
		math.Float64bits(wantBiased) != math.Float64bits(biasedTotal) {
		panic(fmt.Sprintf("sim: simcheck: %d enabled with totals %b/%b, full scan %d with %b/%b",
			r.enabled, total, biasedTotal, enabled, wantTotal, wantBiased))
	}
}
