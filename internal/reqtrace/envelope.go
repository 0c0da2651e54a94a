// The request envelope: the one way partreed and partree-router mount
// an API route (Recorder.Handle).
package reqtrace

import (
	"log/slog"
	"net/http"
	"time"
)

// countingWriter observes the status and body bytes a handler writes.
// Unwrap keeps http.NewResponseController working through it — the
// session handler needs EnableFullDuplex and Flush on the underlying
// writer.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (c *countingWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(p)
	c.bytes += int64(n)
	return n, err
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// Ms renders a duration as fractional milliseconds (3 decimals): the
// unit of the access log, the Server-Timing header and a session step's
// timing record.
func Ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}

// Handle mounts h on mux at route behind the request envelope. The
// request ID is the traceparent trace-id when the client sent a valid
// one (so the process joins the caller's distributed trace — a shard
// its router's), minted otherwise; X-Request-Id is set before h runs,
// so error documents and streams can reference it. Any method but
// method is answered here: 405, Allow, and the error document saying
// usage. The *Req travels in the request's context and finishes as one
// flight-recorder entry; every request logs one access-log line.
func (rec *Recorder) Handle(mux *http.ServeMux, method, route, usage string, h http.HandlerFunc) {
	mux.HandleFunc(route, func(w http.ResponseWriter, req *http.Request) {
		id, ok := ParseTraceparent(req.Header.Get("traceparent"))
		if !ok {
			id = MintID()
		}
		w.Header().Set("X-Request-Id", id)
		rq := rec.Start(id, route)
		req = req.WithContext(NewContext(req.Context(), rq))
		cw := &countingWriter{ResponseWriter: w}
		if req.Method == method {
			h(cw, req)
		} else {
			// The client may still be streaming a body nobody will read
			// (a session's is open-ended); closing the connection spares
			// the server's keep-alive drain from waiting on it.
			w.Header().Set("Connection", "close")
			w.Header().Set("Allow", method)
			WriteError(cw, http.StatusMethodNotAllowed, usage)
		}
		if cw.status == 0 {
			cw.status = http.StatusOK
		}
		rq.Finish(cw.status, cw.bytes)
		tot, dur := rq.Totals()
		slog.Info("request",
			"id", id, "route", route, "status", cw.status, "bytes", cw.bytes,
			"dur_ms", Ms(dur), "queue_ms", Ms(time.Duration(tot[Queue])))
	})
}

// Traceparent renders the W3C header value a call made on behalf of
// this request carries, so the callee's envelope files its side under
// the same ID; "" on a nil handle.
func (r *Req) Traceparent() string {
	if r == nil {
		return ""
	}
	// The parent-id names this hop's span; only its shape is consumed,
	// and a half of a minted ID is never all zero.
	return "00-" + r.e.ID + "-" + MintID()[:16] + "-01"
}
