package reqtrace_test

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"partree/internal/obs"
	"partree/internal/reqtrace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from golden file %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// goldenRecorder replays a fixed three-request history through the
// deterministic constructors: a plain build, a two-step session past the
// slow threshold, and an admission rejection. Every timestamp derives from epoch, so renders
// are byte-stable.
func goldenRecorder() *reqtrace.Recorder {
	rec := reqtrace.NewRecorder()
	ms := func(base time.Time, n int) time.Time { return base.Add(time.Duration(n) * time.Millisecond) }

	b := rec.StartAt("4bf92f3577b34da6a3ce929d0e0e4736", "/v1/build", epoch)
	b.Stamp(reqtrace.Read, ms(epoch, 0), time.Millisecond)
	b.Stamp(reqtrace.Queue, ms(epoch, 1), 2*time.Millisecond)
	b.AddBuild(ms(epoch, 3), 10*time.Millisecond, buildMetrics(6*time.Millisecond, 3*time.Millisecond, time.Millisecond))
	b.Stamp(reqtrace.Write, ms(epoch, 13), time.Millisecond)
	b.FinishAt(200, 4096, ms(epoch, 14))

	s0 := epoch.Add(time.Second)
	s := rec.StartAt("00f067aa0ba902b74bf92f3577b34da6", "/v1/session", s0)
	for i := 0; i < 2; i++ {
		s.Stamp(reqtrace.Queue, ms(s0, 100*i), 20*time.Millisecond)
		s.AddBuild(ms(s0, 100*i+20), 70*time.Millisecond,
			buildMetrics(40*time.Millisecond, 25*time.Millisecond, 5*time.Millisecond))
	}
	s.FinishAt(200, 2048, ms(s0, 300))

	r := rec.StartAt("0af7651916cd43dd8448eb211c80319c", "/v1/build", epoch.Add(2*time.Second))
	r.FinishAt(503, 58, epoch.Add(2*time.Second+500*time.Microsecond))
	return rec
}

func get(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestDebugEndpointsGolden serves the golden recorder over a real
// listener (httptest binds 127.0.0.1:0) and pins all three endpoints'
// rendered bytes: the ring (newest first), the slow list, and a by-ID
// lookup.
func TestDebugEndpointsGolden(t *testing.T) {
	rec := goldenRecorder()
	mux := http.NewServeMux()
	rec.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cases := []struct {
		path, golden string
	}{
		{"/debug/requests", "requests.golden"},
		{"/debug/requests/slow", "slow.golden"},
		{"/debug/requests/00f067aa0ba902b74bf92f3577b34da6", "byid.golden"},
	}
	for _, c := range cases {
		code, ct, body := get(t, srv.URL+c.path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", c.path, code, body)
		}
		if ct != "application/json" {
			t.Errorf("GET %s: content-type %q", c.path, ct)
		}
		checkGolden(t, c.golden, body)
	}

	// Unknown and malformed IDs answer JSON 404s.
	for _, path := range []string{
		"/debug/requests/ffffffffffffffffffffffffffffffff",
		"/debug/requests/a/b",
	} {
		code, _, body := get(t, srv.URL+path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("GET %s: 404 carried no JSON error document: %s", path, body)
		}
	}
}

// TestExpositionGolden pins the partree_req_* metric families'
// Prometheus rendering: both histograms, the in-flight gauge, the slow
// counter, and the per-route max exemplar with its request_id label.
func TestExpositionGolden(t *testing.T) {
	rec := goldenRecorder()
	reg := obs.NewRegistry()
	if err := rec.RegisterObs(reg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		`partree_req_duration_seconds_count{route="/v1/build"} 2`,
		`partree_req_duration_seconds_count{route="/v1/session"} 1`,
		"partree_req_queue_wait_seconds_count 3",
		"partree_req_in_flight 0",
		"partree_req_slow_total 1",
		`partree_req_duration_max_seconds{request_id="4bf92f3577b34da6a3ce929d0e0e4736",route="/v1/build"} 0.014`,
		`partree_req_duration_max_seconds{request_id="00f067aa0ba902b74bf92f3577b34da6",route="/v1/session"} 0.3`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	checkGolden(t, "metrics.golden", buf.Bytes())
}
