// Command studybench is the repository's benchmark: it runs one study
// workload (or all of them), checks every output against a reference,
// and prints the end-to-end metrics, or with -trace 1 the per-layer
// breakdown. See README.md for the workloads, metrics and trace file.
//
//	studybench --workload geometry-sweep --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (name → value and unit).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

// setupReps is how many times each run repeats its set-up; set-up_s is
// their median.
const setupReps = 21

// watchdog bounds one workload run.
const watchdog = 170 * time.Second

var workloads = []struct {
	name string
	run  func(runConfig) (*report, error)
}{
	{"paper-tables", runTables},
	{"geometry-sweep", runGeometry},
	{"service-resubmit", runService},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("studybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "paper-tables, geometry-sweep, service-resubmit, or all")
	seed := fs.Int64("seed", 1, "workload seed: video content, or the service's spec mix and order")
	seconds := fs.Int("seconds", 10, "measured work per run, in seconds of nominal study cost")
	trace := fs.Int("trace", 0, "1 runs the traced breakdown instead of the end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for records and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "studybench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	rc := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}
	var runFn func(runConfig) (*report, error)
	for _, w := range workloads {
		if w.name == rc.workload {
			runFn = w.run
		}
	}
	if runFn == nil {
		fmt.Fprintf(stderr, "studybench: unknown workload %q\n", rc.workload)
		return 2
	}
	// The service logs each failed study; the benchmark counts them.
	obs.SetLogOutput(io.Discard)
	// A hung study must not hang the benchmark: give up, without a
	// result, well inside the time a run is allowed.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "studybench: %s: no result after %v\n", rc.workload, watchdog)
		os.Exit(3)
	})

	r, err := runFn(rc)
	if err != nil {
		fmt.Fprintf(stderr, "studybench: %s: %v\n", rc.workload, err)
		return 1
	}
	return emit(rc, r, stdout, stderr)
}

// emit prints the human-readable table, the full record (also written
// under -out), and the result line.
func emit(rc runConfig, r *report, stdout, stderr io.Writer) int {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	meta := metadata(rc, r)
	record := map[string]any{"meta": meta, "notes": r.notes}
	var dists map[string]any
	if !rc.trace {
		var vals map[string]float64
		vals, dists = endToEnd(r)
		for _, m := range endToEndUnits {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		record["end_to_end"] = dists
	} else {
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metricValue{r.layers[m.name], m.unit}
		}
	}
	record["detail"] = r.detail
	record["metrics"] = res.Metrics

	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "studybench: %v\n", err)
		return 1
	}
	traceFlag := 0
	if rc.trace {
		traceFlag = 1
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", rc.workload, rc.seed, traceFlag)
	if rc.trace {
		path := filepath.Join(rc.outDir, "trace-"+stem+".json")
		if err := writeTraceFile(path, r.spans); err != nil {
			fmt.Fprintf(stderr, "studybench: %v\n", err)
			return 1
		}
		record["trace_file"] = path
	}
	rec, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "studybench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(rc.outDir, "record-"+stem+".json"), rec, 0o644); err != nil {
		fmt.Fprintf(stderr, "studybench: %v\n", err)
		return 1
	}

	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d attempted, %d failed\n", rc.workload, rc.seed, rc.trace, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  mismatch: %s\n", n)
	}
	if m, err := json.Marshal(meta); err == nil {
		fmt.Fprintf(w, "  %s\n", m)
	}
	for _, k := range sortedKeys(res.Metrics) {
		line := fmt.Sprintf("  %-28s %16.6g %-8s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		// End-to-end metrics also show their sample count and spread.
		if d, ok := dists[k]; ok {
			if b, err := json.Marshal(d); err == nil {
				line += " " + string(b)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "studybench: %v\n", err)
		return 1
	}
	w.Write(line)
	w.WriteString("\n")
	if err := w.Flush(); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeTraceFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own process, so each has its own
// peak resident set, relays their output, and ends with one result line
// whose metrics are prefixed by workload name.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "studybench: %v\n", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, w := range workloads {
		var childArgs []string
		for i := 0; i < len(args); i++ {
			a := args[i]
			if a == "-workload" || a == "--workload" {
				i++
				continue
			}
			if strings.HasPrefix(a, "-workload=") || strings.HasPrefix(a, "--workload=") {
				continue
			}
			childArgs = append(childArgs, a)
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, append([]string{"--workload", w.name}, childArgs...)...)
		cmd.Stdout = io.MultiWriter(&buf, stdout)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "studybench: %s printed no result\n", w.name)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}
