package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/perf"
	"repro/internal/simmem"
)

// paper-tables: Tables 2–7 (1 VO/1 layer, 3 VOs/1 layer, 3 VOs/2
// layers; encode and decode; PAL and 1024×768) on the paper's three
// machines. The codec and the inline L1 + L2 replays do nearly all the
// work; no trace is hashed, no memo consulted, no network touched.
//
// Four frames is the shortest sequence the default GOP (N=12, M=3)
// codes as I, P and B VOPs (coding order I P B B), so motion
// estimation and compensation and the reference-frame traffic of both
// predicted VOP types are in every study.
const (
	tablesFrames = 4
	// tablesNominal is the study cost the run length is sized by, in
	// seconds (measured on a 2-core Xeon).
	tablesNominal = 10.0
)

// simTotals sums the modelled machine's counters over every output
// cell of a study: a guard that a performance-only change must leave
// identical.
type simTotals struct{ Refs, L1Misses, L2Misses uint64 }

func (t *simTotals) add(s cache.Stats) {
	t.Refs += s.References()
	t.L1Misses += s.L1Misses
	t.L2Misses += s.L2Misses
}

func (t *simTotals) merge(o simTotals) {
	t.Refs += o.Refs
	t.L1Misses += o.L1Misses
	t.L2Misses += o.L2Misses
}

type tableGroup struct{ objects, layers int }

type tableCell struct {
	g   tableGroup
	res [2]int
}

type tableOut struct{ enc, dec []harness.Result }

// tablesStudy regenerates Tables 2–7 for one content seed by the same
// per-workload RunEncodeCtx/RunDecodeCtx calls harness.RunTables makes
// (which cannot take a seed): one farm job per (configuration,
// resolution) encodes once, measures the encode, and decodes and
// measures the stream. With a tracer it records a span around each
// call.
func tablesStudy(ctx context.Context, pool *farm.Pool, seed int64, frames int, tr *Tracer, sid string) (string, simTotals, harness.TraceUsage, error) {
	root, endRoot := tr.begin(0, sid, "study")
	defer endRoot()
	study := harness.NewStudy(true)
	ctx = harness.WithStudy(ctx, study)
	specs := harness.TableSpecs()
	var keys []tableCell
	seen := map[tableGroup]bool{}
	for _, s := range specs {
		g := tableGroup{s.Objects, s.Layers}
		if seen[g] {
			continue
		}
		seen[g] = true
		for _, res := range harness.TableResolutions {
			keys = append(keys, tableCell{g, res})
		}
	}
	machines := perf.PaperMachines()
	run, endRun := tr.begin(root, sid, "farm.run")
	cells, err := farm.MapLabeled(ctx, pool, keys,
		func(i int, k tableCell) string {
			return fmt.Sprintf("tables/%dobj%dlay/%dx%d", k.g.objects, k.g.layers, k.res[0], k.res[1])
		},
		func(ctx context.Context, env farm.Env, k tableCell) (tableOut, error) {
			job, endJob := tr.begin(run, sid, "farm.job")
			defer endJob()
			wl := harness.Workload{W: k.res[0], H: k.res[1], Frames: frames,
				Objects: k.g.objects, Layers: k.g.layers, Seed: seed}
			_, endEnc := tr.begin(job, sid, "harness.encode")
			enc, ss, err := harness.RunEncodeCtx(ctx, env.Space, machines, wl)
			endEnc()
			if err != nil {
				return tableOut{}, err
			}
			_, endDec := tr.begin(job, sid, "harness.decode")
			dec, err := harness.RunDecodeCtx(ctx, simmem.NewSpace(0), machines, wl, ss)
			endDec()
			return tableOut{enc: enc, dec: dec}, err
		})
	endRun()
	if err != nil {
		return "", simTotals{}, harness.TraceUsage{}, err
	}
	byKey := map[tableCell]tableOut{}
	for i, k := range keys {
		byKey[k] = cells[i]
	}

	_, endRender := tr.begin(root, sid, "harness.render")
	defer endRender()
	var sb strings.Builder
	var totals simTotals
	for _, spec := range specs {
		tab := perf.NewTable(fmt.Sprintf("Table %d. %s", spec.Num, spec.Title))
		for _, res := range harness.TableResolutions {
			c := byKey[tableCell{tableGroup{spec.Objects, spec.Layers}, res}]
			rs := c.dec
			if spec.Encode {
				rs = c.enc
			}
			wl := harness.Workload{W: res[0], H: res[1]}
			for i, r := range rs {
				tab.AddColumn(fmt.Sprintf("%s %s", wl.Label(), machines[i].Label()), r.Whole)
				totals.add(r.Whole.Raw)
			}
		}
		sb.WriteString(tab.String())
		sb.WriteString("\n")
	}
	return sb.String(), totals, study.Usage(), nil
}

// renderTables renders harness.RunTables' output the way mp4study
// prints it.
func renderTables(tabs []*perf.Table) string {
	var sb strings.Builder
	for _, t := range tabs {
		sb.WriteString(t.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

func runTables(rc runConfig) (*report, error) {
	ctx := context.Background()
	r := &report{frames: tablesFrames, layers: map[string]float64{}, detail: map[string]any{}}
	pool, setup, err := timeSetup(setupReps, func() (*farm.Pool, error) { return farm.New(farm.Config{}), nil }, func(*farm.Pool) {})
	if err != nil {
		return nil, err
	}
	r.setup = setup

	// Reference, outside every timed interval. At seed 1 it is
	// harness.RunTables itself, and the work it does is what the first
	// study's must match; at any other seed the same calls the study
	// makes, since RunTables cannot take a seed. Either way it is one
	// more study of the same work, so its peak resident set counts
	// among the studies'.
	var o localOracle
	var programWork *workCounts
	resettable := prepareStudy()
	if rc.seed == 1 {
		var out string
		w, err := countWork(func() (harness.TraceUsage, error) {
			study := harness.NewStudy(true)
			tabs, err := harness.RunTables(harness.WithStudy(ctx, study), pool, harness.TableSpecs(), tablesFrames)
			out = renderTables(tabs)
			return study.Usage(), err
		})
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		o.want, programWork = out, &w
	} else {
		out, tot, _, err := tablesStudy(ctx, pool, rc.seed, tablesFrames, nil, "")
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		o = localOracle{want: out, totals: &tot}
	}
	if resettable && !rc.trace {
		r.rss = append(r.rss, peakRSSMB())
	}
	localDoorChecks(ctx, pool, tablesFrames, r)

	n := studiesFor(rc.seconds, tablesNominal, 3)
	var usage []harness.TraceUsage // of traced studies
	studies := func(tr *Tracer) func(i int) (string, simTotals, error) {
		return func(i int) (string, simTotals, error) {
			var out string
			var tot simTotals
			w, err := countWork(func() (u harness.TraceUsage, err error) {
				out, tot, u, err = tablesStudy(ctx, pool, rc.seed, tablesFrames, tr, fmt.Sprintf("study-%04d", i+1))
				return u, err
			})
			if tr != nil {
				usage = append(usage, w.Usage)
			}
			if err == nil && programWork != nil {
				if d := w.diff(*programWork); d != "" {
					r.mismatch("study %d does other work than harness.RunTables: %s", i, d)
				}
				r.detail["work_check"] = map[string]workCounts{"program": *programWork, "study": w}
				programWork = nil // checked once
			}
			return out, tot, err
		}
	}

	if !rc.trace {
		start := time.Now()
		r.studies = r.measure(rc.workload, n, false, &o, studies(nil))
		r.window = time.Since(start)
	} else {
		half := max(2, (n+1)/2)
		plain := r.measure(rc.workload, half, false, &o, studies(nil))
		tr := newTracer()
		traced := r.measure(rc.workload, half, true, &o, studies(tr))
		r.spans = tr.snapshot()
		l := r.layers
		self := selfByName(r.spans)
		count := countByName(r.spans)
		per := 1 / float64(max(1, len(traced)))
		l["harness.encode_s"] = self["harness.encode"] * per
		l["harness.decode_s"] = self["harness.decode"] * per
		l["harness.render_s"] = self["harness.render"] * per
		l["harness.cells"] = float64(count["farm.job"])
		farmLayer(l, r.spans, pool.Workers(), per)
		for _, u := range usage {
			l["codec.captures"] += float64(u.Traces)
			l["codec.records"] += float64(u.TraceRecords)
			l["trace.filter_rows"] += float64(u.L2Traces)
			l["trace.l2_events"] += float64(u.L2Events)
			l["trace.replay_cells"] += float64(u.Replays)
		}
		if o.totals != nil {
			l["cache.sim_refs"] = float64(o.totals.Refs)
			l["cache.sim_l1_misses"] = float64(o.totals.L1Misses)
			l["cache.sim_l2_misses"] = float64(o.totals.L2Misses)
		}
		l["bench.span_coverage"] = coverage(r.spans, "study", localContainers)
		l["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1
		r.detail["untraced_study_s"] = summarize(plain)
		r.detail["traced_study_s"] = summarize(traced)
	}
	return r, nil
}

// localContainers group work without doing any themselves.
var localContainers = map[string]bool{"farm.run": true, "farm.job": true}

// farmLayer derives the farm metrics from the farm.run/farm.job spans:
// jobs run, time each job waited for a worker (per study), and the
// share of worker time spent busy.
func farmLayer(l map[string]float64, spans []Span, workers int, perStudy float64) {
	runs := map[int64]Span{}
	for _, s := range spans {
		if s.Name == "farm.run" {
			runs[s.ID] = s
		}
	}
	var wait, busy, capacity time.Duration
	jobs := 0
	for _, s := range spans {
		if s.Name != "farm.job" {
			continue
		}
		jobs++
		busy += s.dur()
		if run, ok := runs[s.Parent]; ok {
			wait += s.Start - run.Start
		}
	}
	for _, run := range runs {
		capacity += time.Duration(workers) * run.dur()
	}
	l["farm.jobs"] = float64(jobs)
	l["farm.queue_wait_s"] = wait.Seconds() * perStudy
	if capacity > 0 {
		l["farm.busy_frac"] = float64(busy) / float64(capacity)
	}
}

// studiesFor sizes a run: the number of studies whose nominal cost
// fills the requested seconds, at least min. The count depends only on
// the arguments, so every run of a workload does the same work and
// error_rate's denominator is fixed.
func studiesFor(seconds int, nominal float64, min int) int {
	return max(min, int(float64(seconds)/nominal+0.5))
}
