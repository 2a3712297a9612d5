package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/farm"
	"repro/internal/harness"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

// report is what a workload run measured.
type report struct {
	setup   []float64 // seconds per set-up repetition
	studies []float64 // seconds per measured study that completed
	rss     []float64 // peak resident MB per study (or per window)
	window  time.Duration

	// phasePeaks, for workloads whose studies overlap, is the peak
	// resident MB of each measured phase, the largest of its windows in
	// rss; peak_rss_mb is then their median rather than rss's.
	phasePeaks []float64

	// attempted counts studies submitted, door checks included. errors
	// counts those that failed, were refused or mismatched (error_rate);
	// failed counts outcomes the oracle did not expect.
	attempted, errors, failed int
	notes                     []string

	frames int
	layers map[string]float64 // per-layer metrics (traced runs)
	detail map[string]any     // extra record fields
	spans  []Span             // traced runs only
}

func (r *report) mismatch(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// layerMetric is one per-layer metric. Every traced run prints all of
// them; a layer the workload does not exercise reads 0.
type layerMetric struct{ name, unit string }

var perLayerMetrics = []layerMetric{
	{"harness.encode_s", "s"}, {"harness.decode_s", "s"}, {"harness.render_s", "s"}, {"harness.cells", "count"},
	{"codec.capture_s", "s"}, {"codec.captures", "count"}, {"codec.records", "count"},
	{"farm.jobs", "count"}, {"farm.queue_wait_s", "s"}, {"farm.busy_frac", "fraction"},
	{"trace.hash_s", "s"}, {"trace.hash_calls", "count"},
	{"trace.filter_s", "s"}, {"trace.filter_rows", "count"}, {"trace.l2_events", "count"},
	{"trace.replay_s", "s"}, {"trace.replay_cells", "count"}, {"trace.replay_events_per_s", "1/s"},
	{"trace.wire_bytes", "bytes"},
	{"memo.get_s", "s"}, {"memo.put_s", "s"}, {"memo.hits", "count"}, {"memo.misses", "count"}, {"memo.hit_ratio", "fraction"},
	{"dist.uploads", "count"}, {"dist.upload_bytes", "bytes"}, {"dist.upload_s", "s"}, {"dist.head_probes", "count"},
	{"dist.uploads_deduped", "count"}, {"dist.rpcs", "count"}, {"dist.rpc_s", "s"}, {"dist.worker_busy_s", "s"},
	{"dist.http_errors", "count"},
	{"service.submit_s", "s"}, {"service.queue_wait_s", "s"}, {"service.run_s", "s"}, {"service.done_lag_s", "s"},
	{"service.rejected_invalid", "count"}, {"service.rejected_overload", "count"}, {"service.failed", "count"},
	{"cache.sim_refs", "count"}, {"cache.sim_l1_misses", "count"}, {"cache.sim_l2_misses", "count"},
	{"bench.span_coverage", "fraction"}, {"bench.trace_overhead_frac", "fraction"},
}

// endToEndUnits are the end-to-end metrics every untraced run prints.
var endToEndUnits = []layerMetric{
	{"setup_s", "s"}, {"study_s", "s"}, {"study_tail_s", "s"},
	{"studies_per_s", "1/s"}, {"peak_rss_mb", "MB"}, {"error_rate", "fraction"},
}

// timeSetup runs setup reps times and returns each duration; every
// instance but the last is torn down. Set-up is cheap and noisy, so it
// is repeated and reported as a median.
func timeSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var inst T
	var out []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := setup()
		d := time.Since(start)
		if err != nil {
			return inst, nil, err
		}
		out = append(out, d.Seconds())
		if i < reps-1 {
			teardown(v)
		} else {
			inst = v
		}
	}
	return inst, out, nil
}

// localOracle is the expected outcome of a local workload's studies:
// the reference output, and the reference cache totals (taken from the
// first study when the reference cannot report them).
type localOracle struct {
	want   string
	totals *simTotals
}

// judge describes how a study's output departs from the reference, or
// returns "" when it matches.
func (o *localOracle) judge(out string, tot simTotals) string {
	switch {
	case out != o.want:
		return "output differs from the reference: " + firstDiff(out, o.want)
	case o.totals == nil:
		o.totals = &tot
	case tot != *o.totals:
		return fmt.Sprintf("cache totals %+v differ from %+v", tot, *o.totals)
	}
	return ""
}

// measure runs count studies back to back, judges each against the
// oracle and returns the time of each that succeeded. Untraced studies
// also record their own peak resident set.
func (r *report) measure(name string, count int, traced bool, o *localOracle,
	study func(i int) (string, simTotals, error)) []float64 {
	var times []float64
	for i := 0; i < count; i++ {
		r.attempted++
		resettable := prepareStudy()
		start := time.Now()
		out, tot, err := study(i)
		d := time.Since(start)
		if resettable && !traced {
			r.rss = append(r.rss, peakRSSMB())
		}
		if err != nil {
			r.errors++
			r.mismatch("%s study %d failed: %v", name, i, err)
			continue
		}
		times = append(times, d.Seconds())
		if bad := o.judge(out, tot); bad != "" {
			r.errors++
			r.mismatch("%s study %d: %s", name, i, bad)
		}
	}
	return times
}

// localDoorChecks submits the fixed door-check share to the local
// path: malformed specs must be rejected by validation, and the known
// defect is accepted and fails at run time. It runs outside every
// timed interval and only adds to attempted and errors.
func localDoorChecks(ctx context.Context, pool *farm.Pool, frames int, r *report) {
	for _, e := range []harness.ExperimentSpec{malformedSpecs[0], malformedSpecs[3], defectSpec} {
		r.attempted++
		if e.Validate() != nil {
			continue // rejected at the door: the expected outcome
		}
		if _, err := harness.RenderExperiment(ctx, pool, e, frames); err != nil {
			r.errors++
		}
	}
}

// firstDiff describes where two outputs first differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// resetPeakRSS restarts the kernel's peak resident set counter
// (VmHWM), so the next peakRSSMB covers only what ran since. It returns
// false where /proc/self/clear_refs cannot be written.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// prepareStudy returns freed memory to the OS and restarts the peak
// counter, so a study's peak is its own and not what the reference or
// an earlier study left behind. It runs outside every timed interval.
func prepareStudy() bool {
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// rssWindows records the peak resident set of each window of the
// given length until stop is closed, for workloads whose studies
// overlap; the last window ends at stop, so together the windows cover
// the whole phase. done is closed once it has returned.
func rssWindows(window time.Duration, stop <-chan struct{}, done chan<- struct{}, out *[]float64) {
	defer close(done)
	if !resetPeakRSS() {
		return
	}
	tick := time.NewTicker(window)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			*out = append(*out, peakRSSMB())
			return
		case <-tick.C:
			*out = append(*out, peakRSSMB())
			resetPeakRSS()
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision the binary was built from, when it
// was built inside a git checkout; "-dirty" marks uncommitted changes.
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// metadata identifies the machine and inputs of a record.
func metadata(rc runConfig, r *report) map[string]any {
	return map[string]any{
		"workload":   rc.workload,
		"seed":       rc.seed,
		"seconds":    rc.seconds,
		"trace":      rc.trace,
		"frames":     r.frames,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"cpu_model":  cpuModel(),
		"model":      "unvalidated: no hardware measurements in the repository; simulated statistics carry no accuracy figure",
	}
}

// endToEnd turns a report into the end-to-end metrics and their
// distributions.
func endToEnd(r *report) (map[string]float64, map[string]any) {
	vals := map[string]float64{}
	dist := map[string]any{}
	vals["setup_s"] = median(r.setup)
	dist["setup_s"] = summarize(r.setup)
	vals["study_s"] = median(r.studies)
	dist["study_s"] = summarize(r.studies)
	tail, pct, ok := tailPercentile(r.studies, 10)
	if !ok {
		// Too few studies for any percentile to have ten beyond it:
		// the upper quartile stands in.
		_, _, tail = quartiles(r.studies)
		pct = 75
	}
	vals["study_tail_s"] = tail
	dist["study_tail_s"] = map[string]any{"percentile": pct, "n": len(r.studies), "ten_beyond": ok}
	vals["studies_per_s"] = float64(len(r.studies)) / r.window.Seconds()
	dist["studies_per_s"] = map[string]any{"completed": len(r.studies), "window_s": r.window.Seconds()}
	if len(r.rss) == 0 {
		// The peak counter could not be reset: the whole process's
		// peak stands in.
		r.rss = []float64{peakRSSMB()}
	}
	if len(r.phasePeaks) > 0 {
		vals["peak_rss_mb"] = median(r.phasePeaks)
		dist["peak_rss_mb"] = map[string]any{"phase_peaks": r.phasePeaks, "windows_s": rssWindow.Seconds(), "windows": summarize(r.rss)}
	} else {
		vals["peak_rss_mb"] = median(r.rss)
		dist["peak_rss_mb"] = summarize(r.rss)
	}
	vals["error_rate"] = float64(r.errors) / float64(max(1, r.attempted))
	dist["error_rate"] = map[string]any{"errors": r.errors, "attempted": r.attempted}
	return vals, dist
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
