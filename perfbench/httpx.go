package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyncomp/internal/chaos"
)

// hdrKind names the kind of a benchmark request for the handler
// middleware.
const hdrKind = "X-Perfbench-Kind"

// newClient returns a keep-alive client for in-process loopback
// servers.
func newClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 8
	return &http.Client{Transport: tr, Timeout: time.Minute}
}

// send issues one request; a non-2xx answer is an error that names the
// structured envelope's code, or says the envelope was missing.
func send(client *http.Client, method, url string, body []byte, hdr http.Header) (*http.Response, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	status := resp.StatusCode
	code, cerr := chaos.CheckEnvelope(resp)
	if cerr != nil {
		return nil, fmt.Errorf("%s %s: unstructured %d: %v", method, url, status, cerr)
	}
	return nil, fmt.Errorf("%s %s: %d %s", method, url, status, code)
}

// decodeBody decodes a JSON body and closes it.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeMetric reads one unlabeled series from a Prometheus text
// /metrics endpoint.
func scrapeMetric(client *http.Client, url, name string) (float64, error) {
	resp, err := send(client, http.MethodGet, url, nil, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no series %s", url, name)
}

// handlerSpans is middleware that records one span per request carrying
// the span headers, named prefix plus the request's kind header, while
// a recorder is installed. onBody, when set, receives each traced
// response body.
type handlerSpans struct {
	next   http.Handler
	rec    *atomic.Pointer[recorder]
	prefix string
	onBody func(kind string, body []byte)
}

func (h handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.rec.Load()
	op, parent := spanHeaders(r.Header)
	if rec == nil || op == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	kind := r.Header.Get(hdrKind)
	var tw *teeWriter
	if h.onBody != nil {
		tw = &teeWriter{ResponseWriter: w}
		w = tw
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	rec.add(span{ID: rec.newID(), Parent: parent, Op: op, Name: h.prefix + kind, Start: start, End: end})
	if tw != nil {
		h.onBody(kind, tw.buf.Bytes())
	}
}

// teeWriter keeps a copy of the response body. It passes Flush through
// so streamed responses still stream.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf.Write(p)
	return t.ResponseWriter.Write(p)
}

func (t *teeWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (t *teeWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

// endOnClose calls done once, when the body is closed.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.done)
	return err
}

// paramsKey and mapKey name one sweep point by its axis values.
func paramsKey(names []string, values []int64) string {
	m := make(map[string]int64, len(names))
	for i, n := range names {
		m[n] = values[i]
	}
	return mapKey(m)
}

func mapKey(m map[string]int64) string { return fmt.Sprint(m) }
