package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proxygraph/internal/service"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Times are offsets from the tracer's epoch.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Op     int           `json:"op"`     // -1 outside any op
}

// layer is the span name's first dot-separated component.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, ID: id, Parent: parent, Op: op})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setOp relabels a span's op once it is known (a service job id is assigned
// inside Submit, after the submit span opened).
func (t *tracer) setOp(id, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Op = op
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover (overlapping children are counted once), indexed by span id.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		covered := time.Duration(0)
		cur0, cur1 := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > cur1 {
				covered += cur1 - cur0
				cur0, cur1 = lo, hi
			} else if hi > cur1 {
				cur1 = hi
			}
		}
		covered += cur1 - cur0
		self[s.ID] = s.dur() - covered
	}
	return self
}

// timedJournal wraps a service.Journal and, while a tracer is attached,
// records one span per Append. It sees only the record, so spans carry the
// job id as their op; the parent is resolved after the run (see
// attachJournalSpans).
type timedJournal struct {
	inner service.Journal
	tr    atomic.Pointer[tracer]
}

func (j *timedJournal) Append(r service.Record) (uint64, error) {
	tr := j.tr.Load()
	id := tr.begin("service.journal_append", -1, r.ID)
	seq, err := j.inner.Append(r)
	tr.end(id)
	if r.Kind == service.RecordSubmit {
		// A submit record's own sequence number becomes the job id.
		tr.setOp(id, int(seq))
	}
	return seq, err
}

func (j *timedJournal) Close() error { return j.inner.Close() }

// attachJournalSpans parents each journal span to the span of the same job
// that contains it: the submit span for the records Submit writes, the op
// span for the ones the workers write.
func attachJournalSpans(spans []span) {
	byOp := map[int][]int{}
	for i, s := range spans {
		if s.Name == "service.submit" || s.Name == "op" {
			byOp[s.Op] = append(byOp[s.Op], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != "service.journal_append" {
			continue
		}
		best := -1
		for _, k := range byOp[s.Op] {
			c := spans[k]
			if c.Start <= s.Start && s.End <= c.End && (best < 0 || c.dur() < spans[best].dur()) {
				best = k
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	total time.Duration
	durs  []float64 // seconds
}

func byName(spans []span) map[string]*spanStats {
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.total += s.dur()
		st.durs = append(st.durs, s.dur().Seconds())
	}
	return out
}

// p50ms is the median duration of the named spans in ms (0 when absent).
func p50ms(stats map[string]*spanStats, name string) float64 {
	st := stats[name]
	if st == nil {
		return 0
	}
	return quantile(st.durs, 0.5) * 1e3
}

// totalMs is the summed duration of the named spans in ms.
func totalMs(stats map[string]*spanStats, name string) float64 {
	st := stats[name]
	if st == nil {
		return 0
	}
	return st.total.Seconds() * 1e3
}

// selfPerOp sums, per layer, the self time of the spans that belong to an op
// and divides by the op count, in ms.
func selfPerOp(spans []span, ops int, layers []string) map[string]float64 {
	self := selfTimes(spans)
	sum := map[string]time.Duration{}
	for _, s := range spans {
		if s.Op >= 0 && s.Name != "op" {
			sum[s.layer()] += self[s.ID]
		}
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		v := 0.0
		if ops > 0 {
			v = sum[l].Seconds() * 1e3 / float64(ops)
		}
		out[l+".self_ms_per_op"] = v
	}
	return out
}
