package main

import (
	"bytes"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The service runs each study on goroutines the benchmark does not
// start, so spans inside it are attributed by goroutine ancestry: Go
// stack dumps name every goroutine's creator ("created by F in
// goroutine N"). A study's job goroutine is created by the submit
// handler; the benchmark's middleware records which handler goroutine
// answered which study, and when. A connection's handler goroutine
// serves every submission of its client, one at a time, so the job it
// created is the one submission whose answer is nearest the time the
// job goroutine was first seen. Every goroutine the study fans out to
// descends from the job goroutine.

// gstack is one goroutine of a stack dump.
type gstack struct {
	id, parent int64
	creator    string   // function that created the goroutine
	funcs      []string // frames, innermost first
}

// parseStacks parses runtime.Stack output.
func parseStacks(b []byte) []gstack {
	var out []gstack
	for _, block := range bytes.Split(b, []byte("\n\n")) {
		lines := strings.Split(strings.TrimSpace(string(block)), "\n")
		if len(lines) == 0 || !strings.HasPrefix(lines[0], "goroutine ") {
			continue
		}
		var g gstack
		fields := strings.Fields(lines[0])
		if len(fields) < 2 {
			continue
		}
		g.id, _ = strconv.ParseInt(fields[1], 10, 64)
		for _, ln := range lines[1:] {
			if strings.HasPrefix(ln, "\t") {
				continue
			}
			if rest, ok := strings.CutPrefix(ln, "created by "); ok {
				fn, gid, found := strings.Cut(rest, " in goroutine ")
				g.creator = fn
				if found {
					g.parent, _ = strconv.ParseInt(strings.TrimSpace(gid), 10, 64)
				}
				continue
			}
			if i := strings.LastIndexByte(ln, '('); i > 0 {
				g.funcs = append(g.funcs, ln[:i])
			}
		}
		out = append(out, g)
	}
	return out
}

// selfStack parses the calling goroutine's own stack.
func selfStack() gstack {
	buf := make([]byte, 16<<10)
	n := runtime.Stack(buf, false)
	if gs := parseStacks(buf[:n]); len(gs) == 1 {
		return gs[0]
	}
	return gstack{}
}

// allStacks dumps every goroutine.
func allStacks(buf []byte) ([]byte, int) {
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return buf, n
}

// ancestry maps goroutines to studies.
type ancestry struct {
	rootCreator string // the creator function of a study's job goroutine

	mu        sync.Mutex
	parent    map[int64]int64
	creator   map[int64]string
	firstSeen map[int64]time.Duration
	submits   []submitAnswer
}

// submitAnswer is one accepted submission: the handler goroutine that
// answered it, the study id, and when.
type submitAnswer struct {
	handler int64
	study   string
	at      time.Duration
}

func newAncestry(rootCreator string) *ancestry {
	return &ancestry{rootCreator: rootCreator, parent: map[int64]int64{},
		creator: map[int64]string{}, firstSeen: map[int64]time.Duration{}}
}

// note records a goroutine seen at the given time.
func (a *ancestry) note(g gstack, at time.Duration) {
	if g.id == 0 || g.creator == "" {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.parent[g.id] = g.parent
	a.creator[g.id] = g.creator
	if _, ok := a.firstSeen[g.id]; !ok {
		a.firstSeen[g.id] = at
	}
}

func (a *ancestry) noteSubmit(handler int64, study string, at time.Duration) {
	a.mu.Lock()
	a.submits = append(a.submits, submitAnswer{handler, study, at})
	a.mu.Unlock()
}

// studyOf walks creator links up to the job goroutine; "" when the
// goroutine does not descend from a study (health probes, say).
func (a *ancestry) studyOf(goid int64) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	for hop := 0; hop < 64 && goid != 0; hop++ {
		if a.creator[goid] == a.rootCreator {
			return a.jobStudyLocked(goid)
		}
		goid = a.parent[goid]
	}
	return ""
}

// jobStudyLocked picks, among the submissions its handler goroutine
// answered, the one answered nearest the job goroutine's first sighting.
func (a *ancestry) jobStudyLocked(job int64) string {
	seen, ok := a.firstSeen[job]
	if !ok {
		return ""
	}
	best, bestGap := "", time.Duration(math.MaxInt64)
	for _, s := range a.submits {
		if s.handler != a.parent[job] {
			continue
		}
		gap := s.at - seen
		if gap < 0 {
			gap = -gap
		}
		if gap < bestGap {
			best, bestGap = s.study, gap
		}
	}
	return best
}

// sampleTarget names the span a sampled frame stands for.
type sampleTarget struct{ fn, span string }

// serviceTargets are the exported layer functions the service calls on
// a study's behalf, sampled because no wrapper can reach inside it.
var serviceTargets = []sampleTarget{
	{"repro/internal/harness.RecordEncodeCtx", "codec.capture"},
	{"repro/internal/trace.(*Trace).Hash", "trace.hash"},
	{"repro/internal/harness.FilterGeometryL1", "trace.filter"},
	{"repro/internal/memo.(*Cache).Get", "memo.get"},
	{"repro/internal/memo.(*Cache).Put", "memo.put"},
	{"repro/internal/harness.GeometrySweepReport", "harness.render"},
}

// sampledSpan is a run of consecutive samples that found one goroutine
// inside one target function.
type sampledSpan struct {
	goid        int64
	name        string
	first, last time.Duration
	tick        int
}

// sampler takes a stack dump of every goroutine each period and turns
// consecutive hits on a target function into spans. Its resolution is
// the period: calls much shorter than it are mostly missed.
type sampler struct {
	tr      *Tracer
	anc     *ancestry
	period  time.Duration
	targets []sampleTarget

	stop chan struct{}
	done chan struct{}

	open   map[[2]any]*sampledSpan
	closed []sampledSpan
	ticks  int
	cost   time.Duration // time spent taking and parsing dumps
}

func startSampler(tr *Tracer, anc *ancestry, period time.Duration, targets []sampleTarget) *sampler {
	s := &sampler{tr: tr, anc: anc, period: period, targets: targets,
		stop: make(chan struct{}), done: make(chan struct{}), open: map[[2]any]*sampledSpan{}}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	buf := make([]byte, 1<<20)
	tick := time.NewTicker(s.period)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			for _, o := range s.open {
				s.closed = append(s.closed, *o)
			}
			s.open = nil
			return
		case <-tick.C:
		}
		t0 := time.Now()
		var n int
		buf, n = allStacks(buf)
		at := s.tr.offset(t0)
		s.ticks++
		for _, g := range parseStacks(buf[:n]) {
			s.anc.note(g, at)
			name := s.match(g.funcs)
			if name == "" {
				continue
			}
			key := [2]any{g.id, name}
			if o := s.open[key]; o != nil && o.tick == s.ticks-1 {
				o.last, o.tick = at, s.ticks
				continue
			}
			s.open[key] = &sampledSpan{goid: g.id, name: name, first: at, last: at, tick: s.ticks}
		}
		for key, o := range s.open {
			if o.tick != s.ticks {
				s.closed = append(s.closed, *o)
				delete(s.open, key)
			}
		}
		s.cost += time.Since(t0)
	}
}

// match returns the span name of the innermost target frame.
func (s *sampler) match(funcs []string) string {
	for _, f := range funcs {
		for _, t := range s.targets {
			if f == t.fn {
				return t.span
			}
		}
	}
	return ""
}

// finish stops the sampler and returns its spans, each widened by half
// a period on both sides (the sample marks the middle of its slice).
func (s *sampler) finish() []sampledSpan {
	close(s.stop)
	<-s.done
	out := make([]sampledSpan, len(s.closed))
	for i, c := range s.closed {
		c.first -= s.period / 2
		c.last += s.period / 2
		out[i] = c
	}
	return out
}
