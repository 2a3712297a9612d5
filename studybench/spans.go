package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer: name, interval, the span that
// caused it, and the study it belongs to. Times are offsets from the
// tracer's origin.
type Span struct {
	ID     int64
	Parent int64 // 0 for a root
	Name   string
	Study  string
	Start  time.Duration
	End    time.Duration
}

func (s Span) dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so the untraced path runs the same code with tracing
// off.
type Tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// newID reserves a span id, for a span whose interval is recorded later
// but whose children must name it now.
func (t *Tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *Tracer) offset(tm time.Time) time.Duration { return tm.Sub(t.origin) }

// begin opens a span under parent; calling the returned function closes
// and records it.
func (t *Tracer) begin(parent int64, study, name string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.newID()
	start := time.Since(t.origin)
	return id, func() {
		t.record(Span{ID: id, Parent: parent, Name: name, Study: study, Start: start, End: time.Since(t.origin)})
	}
}

// record adds a span with explicit times; an id of 0 is assigned.
func (t *Tracer) record(s Span) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

func (t *Tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// unionLen returns the length of the union of the intervals, clipped
// to [lo, hi]. Parallel children overlap, so their durations cannot
// simply be summed.
func unionLen(lo, hi time.Duration, iv [][2]time.Duration) time.Duration {
	var clipped [][2]time.Duration
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range clipped {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - unionLen(s.Start, s.End, children[s.ID])
	}
	return out
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID].Seconds()
	}
	return out
}

// countByName counts spans per name.
func countByName(spans []Span) map[string]int {
	out := map[string]int{}
	for _, s := range spans {
		out[s.Name]++
	}
	return out
}

// coverage returns the share of the root spans' wall time (spans named
// root) during which at least one descendant layer span is open.
// Container spans, which only group work, do not count as attribution.
// What is left is time the trace cannot attribute to any layer.
func coverage(spans []Span, root string, containers map[string]bool) float64 {
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s Span) (int64, bool) {
		for i := 0; i < 64 && s.Parent != 0; i++ {
			p, ok := byID[s.Parent]
			if !ok {
				return 0, false
			}
			if p.Name == root {
				return p.ID, true
			}
			s = p
		}
		return 0, false
	}
	layer := map[int64][][2]time.Duration{}
	for _, s := range spans {
		if s.Name == root || containers[s.Name] {
			continue
		}
		if r, ok := rootOf(s); ok {
			layer[r] = append(layer[r], [2]time.Duration{s.Start, s.End})
		}
	}
	var covered, total time.Duration
	for _, s := range spans {
		if s.Name != root {
			continue
		}
		total += s.dur()
		covered += unionLen(s.Start, s.End, layer[s.ID])
	}
	if total <= 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// inheritStudies gives every span without a study id its nearest
// ancestor's, so server-side spans linked by header join their caller's
// study.
func inheritStudies(spans []Span) {
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	for i := range spans {
		if spans[i].Study != "" {
			continue
		}
		p := spans[i].Parent
		for hop := 0; hop < 64 && p != 0; hop++ {
			j, ok := idx[p]
			if !ok {
				break
			}
			if spans[j].Study != "" {
				spans[i].Study = spans[j].Study
				break
			}
			p = spans[j].Parent
		}
	}
}

// chromeEvent is one Chrome trace-event record ("X" complete events
// plus "M" thread-name metadata), the format Perfetto and
// chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON. Each
// study gets its own block of tracks; a span shares its parent's track
// when it nests inside everything open there, so concurrent farm jobs
// and HTTP calls spread over sibling tracks instead of overlapping.
func writeChromeTrace(w io.Writer, spans []Span) error {
	ordered := append([]Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Study != ordered[j].Study {
			return ordered[i].Study < ordered[j].Study
		}
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].dur() > ordered[j].dur()
	})
	type lane struct {
		tid  int
		open []time.Duration // end times of spans still open, innermost last
	}
	events := []chromeEvent{}
	laneOf := map[int64]*lane{}
	var lanes []*lane
	study := "\x00"
	nextTid := 0
	fits := func(l *lane, s Span) bool {
		for len(l.open) > 0 && l.open[len(l.open)-1] <= s.Start {
			l.open = l.open[:len(l.open)-1]
		}
		return len(l.open) == 0 || l.open[len(l.open)-1] >= s.End
	}
	for _, s := range ordered {
		if s.Study != study {
			study = s.Study
			lanes = nil
		}
		var chosen *lane
		if p := laneOf[s.Parent]; p != nil && fits(p, s) {
			chosen = p
		}
		for _, l := range lanes {
			if chosen == nil && fits(l, s) {
				chosen = l
			}
		}
		if chosen == nil {
			nextTid++
			chosen = &lane{tid: nextTid}
			lanes = append(lanes, chosen)
			name := s.Study
			if name == "" {
				name = "process"
			}
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: chosen.tid,
				Args: map[string]any{"name": name}})
		}
		chosen.open = append(chosen.open, s.End)
		laneOf[s.ID] = chosen
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X", Pid: 1, Tid: chosen.tid,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "study": s.Study},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
