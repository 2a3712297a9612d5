package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

func TestMixIsDeterministicPerSeed(t *testing.T) {
	a := buildMix(7, 2, 40, 2)
	b := buildMix(7, 2, 40, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different sequences")
	}
	if reflect.DeepEqual(a, buildMix(8, 2, 40, 2)) {
		t.Fatal("different seeds gave the same sequences")
	}
}

func TestMixShares(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for c, seq := range buildMix(seed, 2, 40, 2) {
			if len(seq) != 40 {
				t.Fatalf("seed %d client %d: %d submissions, want 40", seed, c, len(seq))
			}
			if seq[0].Kind != kindNovel {
				t.Fatalf("seed %d client %d: first submission is %s, want novel", seed, c, seq[0].Kind)
			}
			got := map[string]int{}
			earlier := map[string]bool{}
			for i, sub := range seq {
				got[sub.Kind]++
				valid := sub.Spec.Validate() == nil
				switch sub.Kind {
				case kindMalformed:
					if valid {
						t.Errorf("seed %d client %d #%d: malformed spec passes validation: %+v", seed, c, i, sub.Spec)
					}
				case kindDefect:
					if !valid {
						t.Errorf("seed %d client %d #%d: the known defect no longer passes validation", seed, c, i)
					}
				default:
					if !valid {
						t.Errorf("seed %d client %d #%d: %s spec is invalid: %v", seed, c, i, sub.Kind, sub.Spec.Validate())
					}
				}
				if sub.Kind == kindExact && !earlier[sub.key()] {
					t.Errorf("seed %d client %d #%d: exact resubmission of a spec not submitted before", seed, c, i)
				}
				earlier[sub.key()] = true
			}
			if want := mixCounts(40); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d client %d: kinds %v, want %v", seed, c, got, want)
			}
		}
	}
}

// The two clients must never share an L1 geometry, or their memo hits
// would depend on how they interleave.
func TestMixClientsAreDisjoint(t *testing.T) {
	seqs := buildMix(3, 2, 60, 2)
	l1sOf := func(seq []Submission) map[string]bool {
		out := map[string]bool{}
		for _, sub := range seq {
			if sub.Kind == kindMalformed || sub.Kind == kindDefect {
				continue
			}
			for _, e := range sub.Spec.Experiments {
				for _, l1 := range e.L1s {
					b, _ := json.Marshal(l1)
					out[string(b)] = true
				}
			}
		}
		return out
	}
	a, b := l1sOf(seqs[0]), l1sOf(seqs[1])
	for k := range a {
		if b[k] {
			t.Fatalf("both clients sweep L1 %s", k)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, to check sorting
		}
		return out
	}
	if _, _, ok := tailPercentile(seq(10), 10); ok {
		t.Fatal("10 samples cannot have 10 beyond any of them")
	}
	for _, tc := range []struct {
		xs        []float64
		value     float64
		pct       float64
		wantFound bool
	}{
		{seq(11), 1, 100.0 / 11, true},
		{seq(20), 10, 50, true},
		{seq(100), 90, 90, true},
		// Ties: 3 at 5.0; only 8 values lie above 5.0, so the answer
		// drops to the highest value with ten strictly beyond it.
		{[]float64{1, 2, 3, 4, 5, 5, 5, 6, 7, 8, 9, 10, 11, 12, 13}, 4, 4.0 / 15 * 100, true},
	} {
		v, p, ok := tailPercentile(tc.xs, 10)
		if ok != tc.wantFound || v != tc.value || math.Abs(p-tc.pct) > 1e-9 {
			t.Errorf("tailPercentile(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, v, p, ok, tc.value, tc.pct, tc.wantFound)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the spread check is defined by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{0.5, 0.7}, 0.45, 0.6, 0.75},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	// root [0,100]; two overlapping children a [10,40] and b [30,60]
	// (parallel farm jobs), c [80,90]; a has a child [15,25] and a child
	// that spills past a's end [35,50].
	spans := []Span{
		{ID: 1, Name: "study", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "farm.job", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "farm.job", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Name: "harness.render", Start: ms(80), End: ms(90)},
		{ID: 5, Parent: 2, Name: "trace.filter", Start: ms(15), End: ms(25)},
		{ID: 6, Parent: 2, Name: "trace.replay", Start: ms(35), End: ms(50)},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: ms(40), 2: ms(15), 3: ms(30), 4: ms(10), 5: ms(10), 6: ms(15)} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if got := byName["farm.job"]; math.Abs(got-0.045) > 1e-9 {
		t.Errorf("farm.job self = %v s, want 0.045", got)
	}
	// Layer spans (not the farm.job containers) cover [15,25], [35,50]
	// and [80,90] of the study: 35 of 100 ms.
	if got := coverage(spans, "study", localContainers); math.Abs(got-0.35) > 1e-9 {
		t.Errorf("coverage = %v, want 0.35", got)
	}
}

func TestParseStacks(t *testing.T) {
	dump := `goroutine 7 [running]:
repro/internal/trace.(*Trace).Hash(0xc000123)
	/src/internal/trace/wire.go:366 +0x25
repro/internal/dist.(*Coordinator).geometrySweepShards(0xc0001, {0x1, 0x2})
	/src/internal/dist/coordinator.go:400 +0x99
created by repro/internal/service.(*Server).handleSubmit in goroutine 5
	/src/internal/service/service.go:600 +0x1

goroutine 9 [select]:
repro/internal/dist.(*sweepState).runWorker(...)
	/src/internal/dist/coordinator.go:824
created by repro/internal/dist.(*Coordinator).geometrySweepShards in goroutine 7
	/src/internal/dist/coordinator.go:450 +0x2
`
	gs := parseStacks([]byte(dump))
	if len(gs) != 2 {
		t.Fatalf("parsed %d goroutines, want 2", len(gs))
	}
	if gs[0].id != 7 || gs[0].parent != 5 || gs[0].creator != jobCreator {
		t.Errorf("goroutine 7 parsed as %+v", gs[0])
	}
	if gs[0].funcs[0] != "repro/internal/trace.(*Trace).Hash" {
		t.Errorf("innermost frame %q", gs[0].funcs[0])
	}
	// Goroutine 5 (a connection's handler) answered two submissions;
	// job goroutine 7 was first seen just after the second answer.
	anc := newAncestry(jobCreator)
	anc.noteSubmit(5, "study-0001", ms(100))
	anc.noteSubmit(5, "study-0003", ms(400))
	for _, g := range gs {
		anc.note(g, ms(403))
	}
	if got := anc.studyOf(9); got != "study-0003" {
		t.Errorf("studyOf(9) = %q, want study-0003", got)
	}
	if got := anc.studyOf(42); got != "" {
		t.Errorf("studyOf(unknown) = %q, want none", got)
	}
}

// BENCHMARK.json must name exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []layerMetric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestLocalOracleJudge(t *testing.T) {
	o := &localOracle{want: "a\nb\n"}
	if bad := o.judge("a\nb\n", simTotals{Refs: 3}); bad != "" || o.totals == nil || o.totals.Refs != 3 {
		t.Fatalf("first matching study: %q, totals %+v; want it adopted as the reference", bad, o.totals)
	}
	if bad := o.judge("a\nb\n", simTotals{Refs: 3}); bad != "" {
		t.Errorf("identical study judged %q", bad)
	}
	if bad := o.judge("a\nc\n", simTotals{Refs: 3}); bad == "" {
		t.Error("a different output passed")
	}
	if bad := o.judge("a\nb\n", simTotals{Refs: 4}); bad == "" {
		t.Error("different cache totals passed")
	}
}

func TestWorkCountsDiff(t *testing.T) {
	program := workCounts{
		Usage:    harness.TraceUsage{L2Traces: 15, Replays: 90, MemoMisses: 90},
		Counters: map[string]uint64{"trace_replay_total": 15, "memo_misses_total": 90},
	}
	same := workCounts{
		Usage:    program.Usage,
		Counters: map[string]uint64{"memo_misses_total": 90, "trace_replay_total": 15},
	}
	if d := same.diff(program); d != "" {
		t.Errorf("equal work reported as %q", d)
	}
	more := same
	more.Usage.L2Traces = 30
	if d := more.diff(program); !strings.Contains(d, "L2Traces:30") {
		t.Errorf("a doubled L1 filter went unreported: %q", d)
	}
	extra := workCounts{Usage: program.Usage, Counters: map[string]uint64{"trace_replay_total": 15}}
	if d := extra.diff(program); !strings.Contains(d, "memo_misses_total 0, program 90") {
		t.Errorf("a counter only the program moved went unreported: %q", d)
	}
}

func TestCountWorkSeesCounters(t *testing.T) {
	c := obs.Default().Counter("trace_studybench_selftest_total")
	w, err := countWork(func() (harness.TraceUsage, error) {
		c.Add(3)
		return harness.TraceUsage{Replays: 2}, nil
	})
	if err != nil || w.Usage.Replays != 2 || w.Counters["trace_studybench_selftest_total"] != 3 || len(w.Counters) != 1 {
		t.Fatalf("countWork = %+v, %v; want the usage and a delta of 3 on the one counter moved", w, err)
	}
}
