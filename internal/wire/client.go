package wire

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
)

// Session is the client end of one /v1/session stream: step records go
// out through a pipe, so the request body stays open for the session's
// life, and the server's records come back on the same exchange.
type Session struct {
	// Status is the HTTP status the server answered the open record
	// with; records follow only on 200.
	Status int
	// RequestID is the answer's X-Request-Id.
	RequestID string

	pw   *io.PipeWriter
	enc  *json.Encoder
	body io.ReadCloser
	dec  *json.Decoder
}

// OpenSession POSTs a stream to base+"/v1/session" and returns once the
// server has answered the open record with headers; a non-empty
// traceparent is forwarded. An error is a transport failure: a refusal
// is a Session whose Status is not 200. The caller Closes either.
func OpenSession(ctx context.Context, base, traceparent string, open SessionOpen) (*Session, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/session", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	enc := json.NewEncoder(pw)
	// The server reads the open record before answering with headers, so
	// it must be in flight before Do returns; a failed Do closes the pipe
	// under it.
	go enc.Encode(open)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		pw.Close()
		return nil, err
	}
	return &Session{
		Status: resp.StatusCode, RequestID: resp.Header.Get("X-Request-Id"),
		pw: pw, enc: enc, body: resp.Body, dec: json.NewDecoder(resp.Body),
	}, nil
}

// Send writes one step record.
func (s *Session) Send(step SessionStep) error { return s.enc.Encode(step) }

// Recv reads the next server record.
func (s *Session) Recv() (SessionRecord, error) {
	var r SessionRecord
	err := s.dec.Decode(&r)
	return r, err
}

// Close ends both directions of the stream.
func (s *Session) Close() {
	s.pw.Close()
	s.body.Close()
}
