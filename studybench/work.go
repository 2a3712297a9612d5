package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/harness"
	"repro/internal/obs"
)

// workCounts is the program's own account of the work one study did:
// its harness.Study usage, and how far each of the trace, memo and
// harness counters in the default obs registry moved. Where the
// benchmark decomposes a study into the exported calls an entry point
// makes (tablesStudy for RunTables, geometryStudyTraced for
// RunGeometrySweepPool), comparing the two accounts is what keeps the
// per-layer figures describing the program rather than the copy.
type workCounts struct {
	Usage    harness.TraceUsage
	Counters map[string]uint64
}

// countedPrefixes name the counter families a study's work moves.
var countedPrefixes = []string{"trace_", "memo_", "harness_"}

// entryPointCounters are counted by the entry points themselves, which
// a decomposed study replaces by the calls they make, so they cannot
// agree.
var entryPointCounters = map[string]bool{"harness_geometry_sweep_total": true}

// programCounters reads the counted families from the default registry.
func programCounters() map[string]uint64 {
	out := map[string]uint64{}
	for name, v := range obs.Default().Snapshot().Counters {
		if entryPointCounters[name] {
			continue
		}
		for _, p := range countedPrefixes {
			if strings.HasPrefix(name, p) {
				out[name] = v
			}
		}
	}
	return out
}

// countWork runs study, which must be the only work in the process
// while it runs, and returns the usage it reports with the counters it
// moved.
func countWork(study func() (harness.TraceUsage, error)) (workCounts, error) {
	before := programCounters()
	u, err := study()
	w := workCounts{Usage: u, Counters: map[string]uint64{}}
	for name, v := range programCounters() {
		if d := v - before[name]; d != 0 {
			w.Counters[name] = d
		}
	}
	return w, err
}

// diff describes how the copy's work departs from the program's, or
// returns "" when they agree.
func (w workCounts) diff(program workCounts) string {
	var out []string
	if w.Usage != program.Usage {
		out = append(out, fmt.Sprintf("usage %+v, program %+v", w.Usage, program.Usage))
	}
	names := map[string]bool{}
	for n := range w.Counters {
		names[n] = true
	}
	for n := range program.Counters {
		names[n] = true
	}
	var keys []string
	for n := range names {
		if w.Counters[n] != program.Counters[n] {
			keys = append(keys, n)
		}
	}
	sort.Strings(keys)
	for _, n := range keys {
		out = append(out, fmt.Sprintf("%s %d, program %d", n, w.Counters[n], program.Counters[n]))
	}
	return strings.Join(out, "; ")
}

// addUsage sums two studies' usage.
func addUsage(a, b harness.TraceUsage) harness.TraceUsage {
	a.Traces += b.Traces
	a.TraceRecords += b.TraceRecords
	a.TraceBytes += b.TraceBytes
	a.L2Traces += b.L2Traces
	a.L2Events += b.L2Events
	a.L2Bytes += b.L2Bytes
	a.Replays += b.Replays
	a.MemoHits += b.MemoHits
	a.MemoMisses += b.MemoMisses
	return a
}
