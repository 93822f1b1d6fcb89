package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded at a layer boundary. Spans of one
// operation share the root's ID through their Parent chain.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the recorder's epoch
	End    int64  `json:"endNs"`
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// or disabled recorder records nothing and hands out ID 0.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	on    bool
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// enable switches recording on or off; the untraced half of a traced run
// records nothing.
func (r *recorder) enable(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

func (r *recorder) enabled() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

// id allocates a run-scoped span ID, so a parent can be named before it
// ends; 0 when not recording.
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return 0
	}
	r.next++
	return r.next
}

// record stores a finished span under a preallocated ID (0 allocates one)
// and returns that ID.
func (r *recorder) record(id, parent uint64, name string, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return 0
	}
	if id == 0 {
		r.next++
		id = r.next
	}
	r.spans = append(r.spans, span{
		ID:     id,
		Parent: parent,
		Name:   name,
		Start:  start.Sub(r.epoch).Nanoseconds(),
		End:    end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by at least one child. Overlapping children count
// once, and the parts of children outside the parent are ignored.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered measures the union of the intervals clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// spanStat summarises all spans sharing a name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	P50Ms   float64 `json:"p50Ms"`
	SelfP50 float64 `json:"selfP50Ms"`
	SelfSum float64 `json:"selfSumMs"`
}

// summarize groups spans by name with duration and self-time medians,
// ordered by total self time, largest first.
func summarize(spans []span) []spanStat {
	self := selfTimes(spans)
	dur := map[string][]float64{}
	selfMs := map[string][]float64{}
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e6)
		selfMs[s.Name] = append(selfMs[s.Name], float64(self[s.ID])/1e6)
	}
	out := make([]spanStat, 0, len(dur))
	for name, d := range dur {
		st := spanStat{Name: name, Count: len(d), P50Ms: median(d), SelfP50: median(selfMs[name])}
		for _, v := range selfMs[name] {
			st.SelfSum += v
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfSum != out[j].SelfSum {
			return out[i].SelfSum > out[j].SelfSum
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// selfMedian is the median self time in milliseconds of the spans named
// name (0 when there are none).
func selfMedian(spans []span, name string) float64 {
	self := selfTimes(spans)
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(self[s.ID])/1e6)
		}
	}
	return median(xs)
}

// durations returns the durations in milliseconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/1e6)
		}
	}
	return xs
}

// writeTrace writes the spans and their per-name summary as JSON.
func writeTrace(path string, context map[string]any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(map[string]any{"context": context, "summary": summarize(spans), "spans": spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printSummary writes the per-name span table of a traced run.
func printSummary(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-28s %7s %12s %12s %12s\n", "span", "count", "p50_ms", "self_p50_ms", "self_sum_ms")
	for _, st := range summarize(spans) {
		fmt.Fprintf(w, "%-28s %7d %12.3f %12.3f %12.1f\n", st.Name, st.Count, st.P50Ms, st.SelfP50, st.SelfSum)
	}
}
