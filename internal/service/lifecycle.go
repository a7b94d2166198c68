package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/flashmark/flashmark/internal/freelist"
	"github.com/flashmark/flashmark/internal/parallel"
)

// endpoint is one POST endpoint behind the request lifecycle (post).
// Its functions only compute: they return a response body or an error,
// and fail alone turns an error into an answer and a counter.
type endpoint struct {
	accepts string // the body it takes, for the 405 answer
	off     string // when set, the 501 answer: the endpoint's plane is off
	work    string // what it does, for the 504 and unexpected-500 answers
	// pre, when set, runs between the body read and admission. It may
	// prepare req for serve, or answer with a non-nil body, which then
	// takes no admission slot and no deadline.
	pre   func(req *request) ([]byte, error)
	serve func(ctx context.Context, req *request) ([]byte, error)
}

// request is one POST as the lifecycle hands it to its endpoint. raw is
// the recycled body, valid only until the endpoint returns: whatever the
// endpoint keeps or answers is copied out of it. chips may alias raw.
type request struct {
	w     http.ResponseWriter
	r     *http.Request
	start time.Time // for the endpoint's log line
	raw   []byte
	key   string            // chipKey(raw), set by /v1/verify's pre step
	chips []json.RawMessage // set by /v1/verify/batch's pre step
}

// httpError is a failure an endpoint answers with a status of its
// choosing.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// statusClientClosedRequest is nginx's conventional code for a request
// the client abandoned; no RFC status fits better.
const statusClientClosedRequest = 499

// post mounts e behind the one request lifecycle. It counts and times
// the request, answers 405 to anything but POST, then 501 when e's
// plane is off, and registers the request with Drain (503 once
// draining) before run takes over. The answer is written before
// the request leaves Drain's count.
func (s *Server) post(e endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.Now()
		s.met.requests.Inc()
		defer func() { s.met.latency.ObserveDuration(s.since(start)) }()
		var err error
		switch {
		case r.Method != http.MethodPost:
			err = &httpError{http.StatusMethodNotAllowed, "use POST with " + e.accepts}
		case e.off != "":
			err = &httpError{http.StatusNotImplemented, e.off}
		case !s.beginRequest():
			err = &httpError{http.StatusServiceUnavailable, "server is draining"}
		}
		if err != nil {
			s.fail(w, r, &e, err)
			return
		}
		defer s.inflight.Done()
		body, err := s.run(&e, w, r, start)
		if err != nil {
			s.fail(w, r, &e, err)
			return
		}
		writeJSONBody(w, http.StatusOK, body)
	}
}

// run reads the body into a recycled buffer (413, 400) and runs e.pre;
// unless pre answered, it takes an admission slot (429, or 499), bounds
// the rest by RequestTimeout and runs e.serve. It releases all of these
// when it returns; the answer aliases none of them.
func (s *Server) run(e *endpoint, w http.ResponseWriter, r *http.Request, start time.Time) ([]byte, error) {
	bp, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	defer releaseBody(bp)
	req := &request{w: w, r: r, start: start, raw: *bp}
	if e.pre != nil {
		if body, err := e.pre(req); body != nil || err != nil {
			return body, err
		}
	}
	if err := s.gate.acquire(r.Context()); err != nil {
		return nil, err
	}
	defer s.gate.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	return e.serve(ctx, req)
}

// fail answers a failed request and counts it, once per request, in
// errors_total — or, for a 429, in rejected_total with Retry-After. It
// is the one mapping from a failure to a status and a counter:
//
//	*httpError                its own status and message
//	*parallel.PanicError      as Handler answers a panic (panicked)
//	context.DeadlineExceeded  504 "<work> deadline exceeded", and
//	                          deadline_exceeded_total
//	context.Canceled          499 "client canceled the request"
//	anything else             500 "<work> failed: <error>"
func (s *Server) fail(w http.ResponseWriter, r *http.Request, e *endpoint, err error) {
	var (
		herr *httpError
		perr *parallel.PanicError
	)
	switch {
	case errors.As(err, &herr):
	case errors.As(err, &perr):
		s.panicked(w, r, perr.Value)
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.met.deadlines.Inc()
		herr = &httpError{http.StatusGatewayTimeout, e.work + " deadline exceeded"}
	case errors.Is(err, context.Canceled):
		herr = &httpError{statusClientClosedRequest, "client canceled the request"}
	default:
		herr = &httpError{http.StatusInternalServerError, e.work + " failed: " + err.Error()}
	}
	if herr.status == http.StatusTooManyRequests {
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", "1")
	} else {
		s.met.errors.Inc()
	}
	writeError(w, herr.status, herr.msg)
}

// panicked answers a request whose handler, or batch fan-out, panicked.
func (s *Server) panicked(w http.ResponseWriter, r *http.Request, v any) {
	s.met.panics.Inc()
	s.met.errors.Inc()
	s.logf("panic serving %s %s: %v", r.Method, r.URL.Path, v)
	// Best effort: if the handler already wrote, this is a no-op.
	writeError(w, http.StatusInternalServerError, "internal error")
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}

func writeJSONBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		_, _ = io.WriteString(w, "\n")
	}
}

// beginRequest registers a request with Drain unless the server is
// draining; on true the caller must call s.inflight.Done.
func (s *Server) beginRequest() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.Draining() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// bodyScratch recycles request-body read buffers across requests: the
// dominant body (one chip file, ~100 KB of base64 for NOR, ~1 MB for
// NAND) is read into recycled capacity instead of a fresh io.ReadAll
// allocation chain per request.
var bodyScratch = freelist.New(func() *[]byte { b := make([]byte, 0, 64<<10); return &b }, 0)

// maxIdleBody bounds the capacity an idle body buffer keeps: a buffer
// a larger body grew is dropped for the collector, so one oversized
// request does not pin its memory for the life of the process. The
// largest bodies in steady use, batches holding a few recycled parts'
// 1.7 MB chip files, reach about 4.9 MB and double a buffer to 8 MiB.
// The bound keeps those: regrowing a dropped buffer for each such
// request leaves several times its size in garbage.
const maxIdleBody = 8 << 20

// readBody drains the request body under the configured cap into a
// buffer from bodyScratch. On success the caller owns the buffer until
// it passes it to releaseBody; the bytes must not be retained past it.
// A full buffer doubles, up to one byte past the cap (room for the
// read that finds the end or the overflow), so a body of B bytes read
// into a fresh buffer allocates under 4·B in all. The client's
// Content-Length does not size it: the body is read before admission.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*[]byte, error) {
	bp := bodyScratch.Get()
	buf := (*bp)[:0]
	lr := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(max(2*int64(cap(buf)), 512), s.cfg.MaxBodyBytes+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == nil {
			continue
		}
		*bp = buf
		if err == io.EOF {
			return bp, nil
		}
		releaseBody(bp)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return nil, &httpError{http.StatusBadRequest, "reading request body: " + err.Error()}
	}
}

// releaseBody returns a body buffer, with whatever capacity it grew to
// up to maxIdleBody, to bodyScratch, and drops a larger one.
func releaseBody(bp *[]byte) {
	if cap(*bp) > maxIdleBody {
		return
	}
	*bp = (*bp)[:0]
	bodyScratch.Put(bp)
}
