//go:build !simcheck

package sim

// crossCheck is false in normal builds; build with -tags simcheck to check
// every incremental scan against a full one (see check_on.go).
const crossCheck = false

func (r *Runner) checkScan(total, biasedTotal float64) {}
