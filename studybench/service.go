package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/simmem"
)

// service-resubmit: a closed loop of 2 clients against an in-process
// service.New in its default configuration (one memo shared by all
// studies) fronting two in-process dist workers over loopback. Each
// client submits a seeded mix of geometry and policy sweeps, follows the
// study's SSE stream to its terminal event and fetches the result.
// Mostly resubmissions, so the memo's read path dominates; every study
// still captures and hashes again.
const (
	serviceFrames  = 2
	serviceClients = 2
	// serviceNominal is the cost of one submission per client, in
	// seconds, a phase's length is sized by.
	serviceNominal = 0.2
	// servicePhases is how many times an untraced run plays the same
	// sequences against a fresh fleet. A phase's peak resident set
	// hangs on which allocations happen to coincide with a collection,
	// so one phase's peak varies by ±10% from run to run; the median of
	// several is steady.
	servicePhases = 4
	studyTimeout  = time.Minute
	rssWindow     = 500 * time.Millisecond
	samplePeriod  = 5 * time.Millisecond
	jobCreator    = "repro/internal/service.(*Server).handleSubmit"
)

// serviceTracing bundles what a traced fleet carries.
type serviceTracing struct {
	tr        *Tracer
	anc       *ancestry
	stats     *httpStats
	transport *tracingTransport
}

// fleet is one service plus its two workers, each on its own loopback
// listener.
type fleet struct {
	svc     *service.Server
	servers []*http.Server
	serving sync.WaitGroup
	base    string
}

// startFleet starts the workers and the service and returns once all
// three answer /v1/healthz.
func startFleet(tc *serviceTracing) (*fleet, error) {
	f := &fleet{}
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		f.servers = append(f.servers, srv)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed on shutdown
		}()
		return "http://" + ln.Addr().String(), nil
	}
	var workers []string
	for i := 0; i < 2; i++ {
		h := dist.NewWorker(dist.WorkerConfig{}).Handler()
		if tc != nil {
			h = tracingHandler(h, "worker", tc.tr, tc.anc, tc.stats)
		}
		u, err := serve(h)
		if err != nil {
			f.close()
			return nil, err
		}
		workers = append(workers, u)
	}
	fc := &service.FleetConfig{Workers: workers}
	if tc != nil {
		fc.Client = &http.Client{Transport: tc.transport}
	}
	f.svc = service.New(service.Config{Fleet: fc})
	h := f.svc.Handler()
	if tc != nil {
		h = tracingHandler(h, "service", tc.tr, tc.anc, tc.stats)
	}
	base, err := serve(h)
	if err != nil {
		f.close()
		return nil, err
	}
	f.base = base
	for _, u := range append([]string{base}, workers...) {
		if err := waitHealthy(u + "/v1/healthz"); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func waitHealthy(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the service, then closes every listener and connection
// and waits for each server goroutine to return. The clients are done
// by then; Close rather than Shutdown, because Shutdown waits up to 5 s
// for connections a client dialled but never used.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.svc != nil {
		_ = f.svc.Shutdown(ctx) // a forced drain still stops every study
	}
	for _, s := range f.servers {
		_ = s.Close() // only reports listener close errors
	}
	f.serving.Wait()
	http.DefaultClient.CloseIdleConnections()
}

// expectation is the oracle's verdict on one distinct spec.
type expectation struct {
	invalid bool // rejected at the door
	fails   bool // accepted, fails at run time
	output  string
	totals  simTotals
}

// buildOracle computes every distinct spec's expected outcome on the
// local path with the memo off, from one capture of the service's
// workload (the service captures CIF at the default content seed).
func buildOracle(ctx context.Context, pool *farm.Pool, seqs [][]Submission) (map[string]*expectation, error) {
	ctx = harness.WithStudy(ctx, harness.NewStudy(true))
	capture, err := harness.RecordEncodeCtx(ctx, simmem.NewSpace(0), harness.Workload{W: 352, H: 288, Frames: serviceFrames})
	if err != nil {
		return nil, err
	}
	out := map[string]*expectation{}
	for _, seq := range seqs {
		for _, sub := range seq {
			k := sub.key()
			if out[k] != nil {
				continue
			}
			x := &expectation{}
			out[k] = x
			if sub.Spec.Validate() != nil {
				x.invalid = true
				continue
			}
			var sb strings.Builder
			for _, e := range sub.Spec.Experiments {
				l1s, l2s, err := e.SweepAxes()
				if err != nil {
					x.fails = true
					break
				}
				points, err := harness.RunGeometrySweepFromTrace(ctx, pool, capture.Enc, l1s, l2s)
				if err != nil {
					x.fails = true
					break
				}
				sb.WriteString(harness.GeometrySweepReport(harness.SweepTitle(e.Sweep, true), points))
				x.totals.merge(pointTotals(points))
			}
			x.output = sb.String()
		}
	}
	return out, nil
}

// studyRecord is one submission as a client saw it.
type studyRecord struct {
	code       int // submit response status
	id         string
	terminal   string // "done" or "error"; "" when not accepted
	start      time.Time
	submitted  time.Time // submit response received
	doneAt     time.Time // terminal event received
	status     service.StudyStatus
	submitSpan int64
}

// serviceClient runs one closed-loop client.
type serviceClient struct {
	base   string
	http   *http.Client
	tr     *Tracer
	oracle map[string]*expectation
	r      *report
	mu     *sync.Mutex // guards r
}

func (c *serviceClient) run(ctx context.Context, seq []Submission) []studyRecord {
	var recs []studyRecord
	for _, sub := range seq {
		recs = append(recs, c.submit(ctx, sub))
	}
	return recs
}

func (c *serviceClient) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.http.Do(req)
}

func (c *serviceClient) submit(ctx context.Context, sub Submission) studyRecord {
	ctx, cancel := context.WithTimeout(ctx, studyTimeout)
	defer cancel()
	rec := studyRecord{submitSpan: c.tr.newID()}
	want := c.oracle[sub.key()]
	fail := func(format string, args ...any) studyRecord {
		c.mu.Lock()
		c.r.mismatch(format, args...)
		c.mu.Unlock()
		return rec
	}
	body, err := json.Marshal(sub.Spec)
	if err != nil {
		return fail("encode spec: %v", err)
	}
	c.mu.Lock()
	c.r.attempted++
	c.mu.Unlock()
	countError := func() {
		c.mu.Lock()
		c.r.errors++
		c.mu.Unlock()
	}

	rec.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/studies", bytes.NewReader(body))
	if err != nil {
		return fail("submit: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(spanHeader, strconv.FormatInt(rec.submitSpan, 10))
	resp, err := c.http.Do(req)
	if err != nil {
		countError()
		return fail("submit %s: %v", sub.Kind, err)
	}
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.submitted = time.Now()
	rec.code = resp.StatusCode
	switch {
	case resp.StatusCode == http.StatusBadRequest:
		if !want.invalid {
			countError()
			return fail("%s spec rejected at the door: %s", sub.Kind, bytes.TrimSpace(respBody))
		}
		return rec
	case resp.StatusCode != http.StatusAccepted:
		countError() // refused: 429 or 5xx
		return fail("%s spec refused with HTTP %d: %s", sub.Kind, resp.StatusCode, bytes.TrimSpace(respBody))
	case want.invalid:
		countError()
		return fail("%s spec accepted, expected a 400", sub.Kind)
	}
	var st service.StudyStatus
	if err := json.Unmarshal(respBody, &st); err != nil || st.ID == "" {
		countError()
		return fail("submit response: %v", err)
	}
	rec.id = st.ID

	terminal, err := c.follow(ctx, st.ID)
	rec.doneAt = time.Now()
	if err != nil {
		countError()
		return fail("%s events: %v", st.ID, err)
	}
	rec.terminal = terminal
	resp, err = c.get(ctx, c.base+"/v1/studies/"+st.ID+"/result")
	if err != nil {
		countError()
		return fail("%s result: %v", st.ID, err)
	}
	result, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp, err := c.get(ctx, c.base+"/v1/studies/"+st.ID); err == nil {
		_ = json.NewDecoder(resp.Body).Decode(&rec.status)
		resp.Body.Close()
	}

	switch {
	case terminal == service.EventError:
		countError()
		if !want.fails {
			return fail("%s (%s) failed: %s", st.ID, sub.Kind, firstLine(string(result)))
		}
	case want.fails:
		countError()
		return fail("%s (%s) succeeded, expected a run-time failure", st.ID, sub.Kind)
	case string(result) != want.output:
		countError()
		return fail("%s (%s) output differs from the reference: %s", st.ID, sub.Kind, firstDiff(string(result), want.output))
	}
	return rec
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(strings.TrimSpace(s), "\n")
	return line
}

// follow reads the study's SSE stream until its terminal event.
func (c *serviceClient) follow(ctx context.Context, id string) (string, error) {
	resp, err := c.get(ctx, c.base+"/v1/studies/"+id+"/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("stream ended before a terminal event: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		if strings.HasPrefix(line, "data: ") && (event == service.EventDone || event == service.EventError) {
			return event, nil
		}
	}
}

// runClients runs every client's sequence concurrently against f and
// returns the records per client.
func runClients(f *fleet, seqs [][]Submission, oracle map[string]*expectation, tr *Tracer, r *report) [][]studyRecord {
	var mu sync.Mutex
	out := make([][]studyRecord, len(seqs))
	var wg sync.WaitGroup
	for i, seq := range seqs {
		wg.Add(1)
		go func(i int, seq []Submission) {
			defer wg.Done()
			tp := &http.Transport{MaxIdleConnsPerHost: 4}
			defer tp.CloseIdleConnections()
			c := &serviceClient{base: f.base, http: &http.Client{Transport: tp}, tr: tr, oracle: oracle, r: r, mu: &mu}
			out[i] = c.run(context.Background(), seq)
		}(i, seq)
	}
	wg.Wait()
	return out
}

// studyTimes returns the POST-to-done time of every study that ended
// with a done event.
func studyTimes(recs [][]studyRecord) []float64 {
	var out []float64
	for _, rs := range recs {
		for _, rec := range rs {
			if rec.terminal == service.EventDone {
				out = append(out, rec.doneAt.Sub(rec.start).Seconds())
			}
		}
	}
	return out
}

func runService(rc runConfig) (*report, error) {
	ctx := context.Background()
	r := &report{frames: serviceFrames, layers: map[string]float64{}, detail: map[string]any{}}
	n := studiesFor(rc.seconds, serviceNominal, 12)
	if rc.trace {
		n = max(12, (n+1)/2)
	}
	seqs := buildMix(rc.seed, serviceClients, n, serviceFrames)

	refStart := time.Now()
	oracle, err := buildOracle(ctx, farm.New(farm.Config{}), seqs)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	r.detail["reference_s"] = time.Since(refStart).Seconds()
	var oracleTotals simTotals
	for _, x := range oracle {
		oracleTotals.merge(x.totals)
	}

	setupStart := time.Now()
	f, setup, err := timeSetup(setupReps, func() (*fleet, error) { return startFleet(nil) }, (*fleet).close)
	if err != nil {
		return nil, err
	}
	r.detail["setup_total_s"] = time.Since(setupStart).Seconds()
	r.setup = setup
	phases := servicePhases
	if rc.trace {
		phases = 1
	}
	for p := 0; p < phases; p++ {
		if p > 0 {
			if f, err = startFleet(nil); err != nil {
				return nil, err
			}
		}
		// The phase's peak is the largest of its windows: the first
		// starts with the peak counter reset, the last ends with the
		// phase.
		debug.FreeOSMemory()
		var windows []float64
		stopRSS, rssDone := make(chan struct{}), make(chan struct{})
		go rssWindows(rssWindow, stopRSS, rssDone, &windows)
		start := time.Now()
		recs := runClients(f, seqs, oracle, nil, r)
		r.window += time.Since(start)
		close(stopRSS)
		<-rssDone
		f.close()
		r.studies = append(r.studies, studyTimes(recs)...)
		r.rss = append(r.rss, windows...)
		if len(windows) > 0 {
			r.phasePeaks = append(r.phasePeaks, sorted(windows)[len(windows)-1])
		}
	}
	if !rc.trace {
		return r, nil
	}

	// Traced run: the same sequences against a fresh, traced fleet.
	tc := &serviceTracing{tr: newTracer(), anc: newAncestry(jobCreator), stats: newHTTPStats()}
	tc.transport = &tracingTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tc.tr, anc: tc.anc, stats: tc.stats}
	tf, err := startFleet(tc)
	if err != nil {
		return nil, err
	}
	smp := startSampler(tc.tr, tc.anc, samplePeriod, append(serviceTargets,
		sampleTarget{"repro/internal/harness.GeometryRowStatsFromL2Trace", "trace.replay"}))
	recs := runClients(tf, seqs, oracle, tc.tr, r)
	sampled := smp.finish()
	memoStats := healthMemo(tf.base)
	tf.close()
	serviceLayers(r, tc, recs, sampled, memoStats, oracleTotals, median(r.studies))
	r.detail["sampler"] = map[string]any{"period_s": samplePeriod.Seconds(), "ticks": smp.ticks, "cost_s": smp.cost.Seconds()}
	r.detail["routes"] = tc.stats.snapshot()
	return r, nil
}

// healthMemo reads the service's memo counters from /v1/healthz.
func healthMemo(base string) map[string]float64 {
	var body struct {
		Memo map[string]float64 `json:"memo"`
	}
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return body.Memo
}

// serviceLayers assembles the traced run's spans and per-layer metrics.
func serviceLayers(r *report, tc *serviceTracing, recs [][]studyRecord, sampled []sampledSpan,
	memoStats map[string]float64, oracleTotals simTotals, plainMedian float64) {
	tr := tc.tr
	runSpan := map[string]int64{}
	var submit, queue, runS, lag []float64
	var captures, records, l2Traces, l2Events float64
	ran := 0
	l := r.layers
	for _, rs := range recs {
		for _, rec := range rs {
			switch {
			case rec.code == http.StatusBadRequest:
				l["service.rejected_invalid"]++
			case rec.code == http.StatusTooManyRequests || rec.code >= 500:
				l["service.rejected_overload"]++
			}
			if rec.id == "" {
				continue
			}
			if rec.terminal == service.EventError {
				l["service.failed"]++
			}
			st := rec.status
			root := tr.record(Span{Name: "study", Study: rec.id, Start: tr.offset(rec.start), End: tr.offset(rec.doneAt)})
			tr.record(Span{ID: rec.submitSpan, Parent: root, Name: "service.submit", Study: rec.id,
				Start: tr.offset(rec.start), End: tr.offset(rec.submitted)})
			submit = append(submit, rec.submitted.Sub(rec.start).Seconds())
			if st.Started == nil || st.Finished == nil {
				continue
			}
			ran++
			tr.record(Span{Parent: root, Name: "service.queue_wait", Study: rec.id,
				Start: tr.offset(st.Submitted), End: tr.offset(*st.Started)})
			runSpan[rec.id] = tr.record(Span{Parent: root, Name: "service.run", Study: rec.id,
				Start: tr.offset(*st.Started), End: tr.offset(*st.Finished)})
			tr.record(Span{Parent: root, Name: "service.done_lag", Study: rec.id,
				Start: tr.offset(*st.Finished), End: tr.offset(rec.doneAt)})
			queue = append(queue, st.Started.Sub(st.Submitted).Seconds())
			runS = append(runS, st.Finished.Sub(*st.Started).Seconds())
			lag = append(lag, rec.doneAt.Sub(*st.Finished).Seconds())
			u := st.TraceUsage
			captures += float64(u.Traces)
			records += float64(u.TraceRecords)
			l2Traces += float64(u.L2Traces)
			l2Events += float64(u.L2Events)
		}
	}
	for _, s := range sampled {
		study := tc.anc.studyOf(s.goid)
		tr.record(Span{Parent: runSpan[study], Name: s.name, Study: study, Start: s.first, End: s.last})
	}
	for _, c := range tc.transport.takeCalls() {
		study := tc.anc.studyOf(c.goid)
		tr.record(Span{ID: c.id, Parent: runSpan[study], Name: c.name, Study: study, Start: c.start, End: c.end})
	}
	r.spans = tr.snapshot()
	inheritStudies(r.spans)

	self := selfByName(r.spans)
	per := 1 / float64(max(1, ran))
	l["codec.capture_s"] = self["codec.capture"] * per
	l["codec.captures"] = captures
	l["codec.records"] = records
	l["trace.hash_s"] = self["trace.hash"] * per
	// The sampler sees stretches of stack samples, not calls. With the
	// memo on, the dist coordinator hashes each capture once to plan
	// the sweep against the memo, so the captures the studies report
	// are the hash computations.
	l["trace.hash_calls"] = captures
	l["trace.filter_s"] = self["trace.filter"] * per
	l["trace.filter_rows"] = l2Traces
	l["trace.l2_events"] = l2Events
	l["trace.replay_s"] = self["trace.replay"] * per
	l["harness.render_s"] = self["harness.render"] * per
	l["memo.get_s"] = self["memo.get"] * per
	l["memo.put_s"] = self["memo.put"] * per
	l["memo.hits"] = memoStats["hits"]
	l["memo.misses"] = memoStats["misses"]
	l["memo.hit_ratio"] = memoStats["hit_rate"]
	l["trace.replay_cells"] = memoStats["misses"]
	l["harness.cells"] = memoStats["hits"] + memoStats["misses"]

	routes := tc.stats.snapshot()
	up, head, rpc := routes["dist.upload"], routes["dist.head"], routes["dist.rpc"]
	l["dist.uploads"] = float64(up.Requests)
	l["dist.upload_bytes"] = float64(up.Bytes)
	l["dist.upload_s"] = up.Seconds * per
	if up.Requests > 0 {
		l["trace.wire_bytes"] = float64(up.Bytes) / float64(up.Requests)
	}
	l["dist.head_probes"] = float64(head.Requests)
	l["dist.uploads_deduped"] = float64(head.Requests - head.Non2xx)
	l["dist.rpcs"] = float64(rpc.Requests)
	l["dist.rpc_s"] = rpc.Seconds * per
	l["dist.worker_busy_s"] = (routes["worker.rpc"].Seconds + routes["worker.upload"].Seconds) * per
	for name, st := range routes {
		// A HEAD probe answering 404 means "not resident yet": the
		// expected miss of the dedup check, not an error.
		if strings.HasPrefix(name, "dist.") && name != "dist.head" {
			l["dist.http_errors"] += float64(st.Non2xx)
		}
	}
	l["service.submit_s"] = median(submit)
	l["service.queue_wait_s"] = median(queue)
	l["service.run_s"] = median(runS)
	l["service.done_lag_s"] = median(lag)
	l["cache.sim_refs"] = float64(oracleTotals.Refs)
	l["cache.sim_l1_misses"] = float64(oracleTotals.L1Misses)
	l["cache.sim_l2_misses"] = float64(oracleTotals.L2Misses)
	l["bench.span_coverage"] = coverage(r.spans, "study", map[string]bool{"service.run": true})
	traced := studyTimes(recs)
	l["bench.trace_overhead_frac"] = median(traced)/plainMedian - 1
	r.detail["untraced_study_s"] = summarize(r.studies)
	r.detail["traced_study_s"] = summarize(traced)
}
