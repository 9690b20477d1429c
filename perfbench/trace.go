package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share a chain of parent ids; parent 0 marks a root.
type span struct {
	id, parent uint64
	layer      string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a new recording.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, keyed by span id.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - covered(s, kids[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var total time.Duration
	var curS, curE time.Time
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if !e.After(s) {
			continue
		}
		if curE.IsZero() || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	layer       string
	spans       int
	total, self time.Duration
	durs, selfs []time.Duration
}

// layerTable groups spans by layer with their total and self time.
func layerTable(spans []span) map[string]*layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		row := rows[s.layer]
		if row == nil {
			row = &layerRow{layer: s.layer}
			rows[s.layer] = row
		}
		row.spans++
		row.total += s.dur()
		row.self += self[s.id]
		row.durs = append(row.durs, s.dur())
		row.selfs = append(row.selfs, self[s.id])
	}
	return rows
}

func printLayerTable(rows map[string]*layerRow) {
	fmt.Printf("%-14s %8s %12s %12s %14s\n", "layer", "spans", "total_ms", "self_ms", "self_us/span")
	for _, name := range sortedKeys(rows) {
		r := rows[name]
		fmt.Printf("%-14s %8d %12.1f %12.1f %14.1f\n", name, r.spans,
			float64(r.total)/1e6, float64(r.self)/1e6, float64(r.self)/1e3/float64(r.spans))
	}
}

// spanHeader carries the client span id to the server, so that handler
// spans parent onto the client span of the same request.
const spanHeader = "X-Perfbench-Span"

// isOpsPath reports whether a request is an op batch (not a probe or
// ledger read).
func isOpsPath(path string) bool { return strings.HasSuffix(path, "/ops") }

// clientTransport records an "http.client" span per op batch, from the
// request leaving fleet.HTTPClient to its response body being closed
// (decoded), and tags the request with the span id.
type clientTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !isOpsPath(req.URL.Path) {
		return c.base.RoundTrip(req)
	}
	id := c.t.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.t.add(span{id: id, layer: "http.client", start: start, end: time.Now()})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		c.t.add(span{id: id, layer: "http.client", start: start, end: time.Now()})
	}}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// handlerTracer wraps the fleet's HTTP handler: an "http.handler" span per
// op batch, parented on the client span, plus the request and response
// body sizes.
type handlerTracer struct {
	next                http.Handler
	t                   *tracer
	reqBytes, respBytes atomic.Int64
	batches             atomic.Int64
}

func (h *handlerTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !isOpsPath(r.URL.Path) {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	body := &countingReader{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	h.t.add(span{id: h.t.newID(), parent: parent, layer: "http.handler", start: start, end: time.Now()})
	h.reqBytes.Add(body.n)
	h.respBytes.Add(cw.n)
	h.batches.Add(1)
}

type countingReader struct {
	io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
