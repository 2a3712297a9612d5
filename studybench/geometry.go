package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/memo"
	"repro/internal/simmem"
)

// geometry-sweep: one seeded CIF capture replayed over the default
// geometry grid crossed with all five replacement policies — 15 L1 rows
// × 6 L2 sizes = 90 cells — with a fresh memo per study, as every new
// mp4study process has. The L1 filter and the L2 replay carry most of
// the time; every memo lookup misses and then writes.
const (
	geometryFrames  = 2
	geometryNominal = 1.0
)

func geometryWorkload(seed int64) harness.Workload {
	return harness.Workload{W: 352, H: 288, Frames: geometryFrames, Seed: seed}
}

func geometryL1s() []cache.Config { return harness.ExpandPolicyAxis(nil, cache.Policies()) }

func geometryTitle() string { return harness.SweepTitle("geometry", true) }

func pointTotals(points []harness.GeometryPoint) simTotals {
	var t simTotals
	for _, p := range points {
		t.add(p.Encode.Raw)
	}
	return t
}

// geometryStudy is the study as the program runs it: one
// RunGeometrySweepPool call under a study with a fresh memo (or none,
// for the reference).
func geometryStudy(ctx context.Context, pool *farm.Pool, seed int64, withMemo bool) (string, simTotals, harness.TraceUsage, error) {
	study := harness.NewStudy(true)
	if withMemo {
		mc, err := memo.New(memo.Config{Version: harness.CodeVersion})
		if err != nil {
			return "", simTotals{}, harness.TraceUsage{}, err
		}
		study.SetMemo(mc)
	}
	points, err := harness.RunGeometrySweepPool(harness.WithStudy(ctx, study), pool, geometryWorkload(seed), geometryL1s(), nil)
	if err != nil {
		return "", simTotals{}, harness.TraceUsage{}, err
	}
	return harness.GeometrySweepReport(geometryTitle(), points), pointTotals(points), study.Usage(), nil
}

// geometryStudyTraced is the same study decomposed into the exported
// calls RunGeometrySweepPool makes — capture, hash, then per L1 row on
// the farm: memo lookups, L1 filter, L2 replay of the missing cells,
// memo writes — with a span around each, then the rendering. The usage
// it returns carries the memo hits and misses it counted itself, since
// only the program's own sweep can note them on the study. replayed
// accumulates the L2 events replayed, once per replayed cell.
func geometryStudyTraced(ctx context.Context, pool *farm.Pool, seed int64, tr *Tracer, sid string, replayed *atomic.Int64) (string, simTotals, harness.TraceUsage, error) {
	root, endRoot := tr.begin(0, sid, "study")
	defer endRoot()
	mc, err := memo.New(memo.Config{Version: harness.CodeVersion})
	if err != nil {
		return "", simTotals{}, harness.TraceUsage{}, err
	}
	study := harness.NewStudy(true)
	study.SetMemo(mc)
	ctx = harness.WithStudy(ctx, study)
	var hits, misses atomic.Uint64

	_, end := tr.begin(root, sid, "codec.capture")
	capture, err := harness.RecordEncodeCtx(ctx, simmem.NewSpace(0), geometryWorkload(seed))
	end()
	if err != nil {
		return "", simTotals{}, harness.TraceUsage{}, err
	}
	_, end = tr.begin(root, sid, "trace.hash")
	hash := capture.Enc.Hash()
	end()

	sizes := harness.GeometryL2Sizes()
	run, endRun := tr.begin(root, sid, "farm.run")
	rows, err := farm.MapLabeled(ctx, pool, geometryL1s(),
		func(i int, l1 cache.Config) string { return fmt.Sprintf("geometry/row%d", i) },
		func(ctx context.Context, env farm.Env, l1 cache.Config) ([]harness.GeometryPoint, error) {
			job, endJob := tr.begin(run, sid, "farm.job")
			defer endJob()
			points := make([]harness.GeometryPoint, len(sizes))
			var missing []int
			for i, size := range sizes {
				_, end := tr.begin(job, sid, "memo.get")
				whole, ok := mc.Get(harness.GeometryMemoKey(hash, l1, size))
				end()
				if ok {
					hits.Add(1)
					points[i] = harness.GeometryPointFromStats(l1, size, whole)
					continue
				}
				misses.Add(1)
				missing = append(missing, i)
			}
			if len(missing) == 0 {
				return points, nil
			}
			_, end := tr.begin(job, sid, "trace.filter")
			lt := harness.FilterGeometryL1(ctx, capture.Enc, l1)
			end()
			want := make([]int, len(missing))
			for j, i := range missing {
				want[j] = sizes[i]
			}
			_, end = tr.begin(job, sid, "trace.replay")
			pts, stats, err := harness.GeometryRowStatsFromL2Trace(ctx, lt, want)
			end()
			if err != nil {
				return nil, err
			}
			replayed.Add(int64(lt.Events() * len(want)))
			for j, i := range missing {
				points[i] = pts[j]
				_, end := tr.begin(job, sid, "memo.put")
				mc.Put(harness.GeometryMemoKey(hash, l1, sizes[i]), stats[j])
				end()
			}
			return points, nil
		})
	endRun()
	if err != nil {
		return "", simTotals{}, harness.TraceUsage{}, err
	}
	var points []harness.GeometryPoint
	for _, row := range rows {
		points = append(points, row...)
	}
	_, end = tr.begin(root, sid, "harness.render")
	out := harness.GeometrySweepReport(geometryTitle(), points)
	end()
	u := study.Usage()
	u.MemoHits, u.MemoMisses = hits.Load(), misses.Load()
	return out, pointTotals(points), u, nil
}

func runGeometry(rc runConfig) (*report, error) {
	ctx := context.Background()
	r := &report{frames: geometryFrames, layers: map[string]float64{}, detail: map[string]any{}}
	pool, setup, err := timeSetup(setupReps, func() (*farm.Pool, error) { return farm.New(farm.Config{}), nil }, func(*farm.Pool) {})
	if err != nil {
		return nil, err
	}
	r.setup = setup

	// Reference: the local path with the memo off.
	want, wantTotals, _, err := geometryStudy(ctx, pool, rc.seed, false)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	localDoorChecks(ctx, pool, geometryFrames, r)

	o := &localOracle{want: want, totals: &wantTotals}
	// The first study of each kind also reports the work it did, so the
	// traced copy can be held to the program's own sweep.
	var programWork, copyWork workCounts
	plainStudy := func(i int) (string, simTotals, error) {
		var out string
		var tot simTotals
		w, err := countWork(func() (u harness.TraceUsage, err error) {
			out, tot, u, err = geometryStudy(ctx, pool, rc.seed, true)
			return u, err
		})
		if i == 0 {
			programWork = w
		}
		return out, tot, err
	}

	n := studiesFor(rc.seconds, geometryNominal, 5)
	if !rc.trace {
		start := time.Now()
		r.studies = r.measure(rc.workload, n, false, o, plainStudy)
		r.window = time.Since(start)
		return r, nil
	}
	half := max(3, (n+1)/2)
	plain := r.measure(rc.workload, half, false, o, plainStudy)
	tr := newTracer()
	var usage harness.TraceUsage // summed over traced studies
	var replayed atomic.Int64
	traced := r.measure(rc.workload, half, true, o, func(i int) (string, simTotals, error) {
		var out string
		var tot simTotals
		w, err := countWork(func() (u harness.TraceUsage, err error) {
			out, tot, u, err = geometryStudyTraced(ctx, pool, rc.seed, tr, fmt.Sprintf("study-%04d", i+1), &replayed)
			return u, err
		})
		if i == 0 {
			copyWork = w
		}
		usage = addUsage(usage, w.Usage)
		return out, tot, err
	})
	if d := copyWork.diff(programWork); d != "" {
		r.mismatch("the traced study does other work than harness.RunGeometrySweepPool: %s", d)
	}
	r.detail["work_check"] = map[string]workCounts{"program": programWork, "traced": copyWork}
	r.spans = tr.snapshot()
	l := r.layers
	self := selfByName(r.spans)
	count := countByName(r.spans)
	per := 1 / float64(max(1, len(traced)))
	l["codec.capture_s"] = self["codec.capture"] * per
	l["codec.captures"] = float64(count["codec.capture"])
	l["codec.records"] = float64(usage.TraceRecords)
	l["trace.hash_s"] = self["trace.hash"] * per
	l["trace.hash_calls"] = float64(count["trace.hash"])
	l["trace.filter_s"] = self["trace.filter"] * per
	l["trace.filter_rows"] = float64(count["trace.filter"])
	l["trace.l2_events"] = float64(usage.L2Events)
	l["trace.replay_s"] = self["trace.replay"] * per
	l["trace.replay_cells"] = float64(usage.Replays)
	if s := self["trace.replay"]; s > 0 {
		l["trace.replay_events_per_s"] = float64(replayed.Load()) / s
	}
	l["memo.get_s"] = self["memo.get"] * per
	l["memo.put_s"] = self["memo.put"] * per
	l["memo.hits"] = float64(usage.MemoHits)
	l["memo.misses"] = float64(usage.MemoMisses)
	if t := usage.MemoHits + usage.MemoMisses; t > 0 {
		l["memo.hit_ratio"] = float64(usage.MemoHits) / float64(t)
	}
	l["harness.render_s"] = self["harness.render"] * per
	l["harness.cells"] = float64(usage.Replays + usage.MemoHits)
	farmLayer(l, r.spans, pool.Workers(), per)
	l["cache.sim_refs"] = float64(wantTotals.Refs)
	l["cache.sim_l1_misses"] = float64(wantTotals.L1Misses)
	l["cache.sim_l2_misses"] = float64(wantTotals.L2Misses)
	l["bench.span_coverage"] = coverage(r.spans, "study", localContainers)
	l["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1
	r.detail["untraced_study_s"] = summarize(plain)
	r.detail["traced_study_s"] = summarize(traced)
	return r, nil
}
