package main

import (
	"bytes"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// spanHeader carries the caller's span id on every request the
// benchmark's client or round tripper sends, so the middleware on the
// receiving handler can parent its span under it.
const spanHeader = "X-Studybench-Span"

// routeName maps a request to its span name: side ("dist" for the
// coordinator's client, "worker" and "service" for handlers) plus the
// route. Only the routes the study path uses are named.
func routeName(side string, r *http.Request) string {
	p := r.URL.Path
	var route string
	switch {
	case r.Method == http.MethodPost && p == "/v1/traces":
		route = "upload"
	case r.Method == http.MethodHead && strings.HasPrefix(p, "/v1/traces/"):
		route = "head"
	case r.Method == http.MethodDelete && strings.HasPrefix(p, "/v1/traces/"):
		route = "delete"
	case r.Method == http.MethodPost && p == "/v1/replay":
		route = "rpc"
	case p == "/v1/healthz":
		route = "health"
	case r.Method == http.MethodPost && p == "/v1/studies":
		route = "submit"
	case strings.HasSuffix(p, "/events"):
		route = "sse"
	case strings.HasSuffix(p, "/result"):
		route = "result"
	case strings.HasPrefix(p, "/v1/studies/"):
		route = "status"
	default:
		route = "other"
	}
	return side + "." + route
}

// routeStat counts and times one route.
type routeStat struct {
	Requests int     `json:"requests"`
	Non2xx   int     `json:"non_2xx"`
	Seconds  float64 `json:"seconds"`
	Bytes    int64   `json:"bytes"` // request bodies sent
}

// httpStats aggregates routeStat by span name.
type httpStats struct {
	mu     sync.Mutex
	routes map[string]*routeStat
}

func newHTTPStats() *httpStats { return &httpStats{routes: map[string]*routeStat{}} }

func (h *httpStats) add(name string, code int, d time.Duration, reqBytes int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.routes[name]
	if st == nil {
		st = &routeStat{}
		h.routes[name] = st
	}
	st.Requests++
	if code < 200 || code > 299 {
		st.Non2xx++
	}
	st.Seconds += d.Seconds()
	if reqBytes > 0 {
		st.Bytes += reqBytes
	}
}

func (h *httpStats) snapshot() map[string]routeStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]routeStat, len(h.routes))
	for k, v := range h.routes {
		out[k] = *v
	}
	return out
}

// clientCall is one round trip made by the program's coordinator: its
// span id, the goroutine that made it (for study attribution), and its
// interval.
type clientCall struct {
	id         int64
	goid       int64
	name       string
	start, end time.Duration
}

// tracingTransport wraps the fleet client the benchmark hands the
// service (service.FleetConfig.Client): it times each round trip until
// the response body is closed, counts it per route, and tags the
// request with its span id.
type tracingTransport struct {
	base  http.RoundTripper
	tr    *Tracer
	anc   *ancestry
	stats *httpStats

	mu    sync.Mutex
	calls []clientCall
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g := selfStack()
	t.anc.note(g, t.tr.offset(time.Now()))
	id := t.tr.newID()
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	name := routeName("dist", req)
	start := time.Now()
	finish := func(code int) {
		end := time.Now()
		t.stats.add(name, code, end.Sub(start), req.ContentLength)
		t.mu.Lock()
		t.calls = append(t.calls, clientCall{id: id, goid: g.id, name: name,
			start: t.tr.offset(start), end: t.tr.offset(end)})
		t.mu.Unlock()
	}
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		finish(0)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { finish(resp.StatusCode) }}
	return resp, nil
}

func (t *tracingTransport) takeCalls() []clientCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]clientCall(nil), t.calls...)
}

// timedBody reports once when the response body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// recordingWriter captures the status code (and, when asked, the body)
// of a handler's response. It forwards Flush so SSE streams still
// stream through it.
type recordingWriter struct {
	http.ResponseWriter
	code int
	body *bytes.Buffer
}

func (w *recordingWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if w.body != nil {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

func (w *recordingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *recordingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

var studyIDPattern = regexp.MustCompile(`"id":\s*"([^"]+)"`)

// tracingHandler is the middleware the benchmark mounts around the
// worker and service handlers it constructs: one span per request,
// parented by the caller's span header, counted per route. On the
// service's submit route it also learns which study the handler
// goroutine created, which roots the ancestry of the study's job.
func tracingHandler(next http.Handler, side string, tr *Tracer, anc *ancestry, stats *httpStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		name := routeName(side, r)
		rw := &recordingWriter{ResponseWriter: w}
		submit := name == "service.submit"
		if submit {
			rw.body = &bytes.Buffer{}
		}
		start := time.Now()
		next.ServeHTTP(rw, r)
		end := time.Now()
		code := rw.code
		if code == 0 {
			code = http.StatusOK
		}
		stats.add(name, code, end.Sub(start), r.ContentLength)
		study := ""
		if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/studies/"); ok && side == "service" {
			study, _, _ = strings.Cut(rest, "/")
		}
		if submit && code == http.StatusAccepted {
			if m := studyIDPattern.FindSubmatch(rw.body.Bytes()); m != nil {
				study = string(m[1])
				anc.noteSubmit(selfStack().id, study, tr.offset(end))
			}
		}
		tr.record(Span{Parent: parent, Name: name, Study: study,
			Start: tr.offset(start), End: tr.offset(end)})
	})
}
