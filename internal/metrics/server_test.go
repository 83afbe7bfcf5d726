package metrics

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer("127.0.0.1:0")
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerMetricsEndpoint(t *testing.T) {
	s := startServer(t)
	var h Histogram
	h.Observe(2 * time.Millisecond)
	s.AddCollector(func(w io.Writer) { h.WritePrometheus(w, "test_latency_seconds") })
	s.AddCollector(func(w io.Writer) { fmt.Fprintf(w, "test_counter_total{kind=\"a\"} 41\n") })

	code, body, hdr := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	metrics, err := ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, body)
	}
	if metrics["test_latency_seconds_count"] != 1 {
		t.Errorf("histogram missing: %v", metrics)
	}
	if metrics[`test_counter_total{kind="a"}`] != 41 {
		t.Errorf("collector output missing")
	}
	if _, ok := metrics["go_goroutines"]; !ok {
		t.Errorf("built-in runtime gauges missing")
	}
}

func TestServerStatusz(t *testing.T) {
	s := startServer(t)
	code, body, hdr := get(t, "http://"+s.Addr()+"/statusz")
	if code != http.StatusOK || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Fatalf("default statusz: code=%d body=%q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	s.SetStatus(func() any {
		return map[string]any{"algorithm": "SS-nonblocking", "node": 3}
	})
	_, body, _ = get(t, "http://"+s.Addr()+"/statusz")
	if !strings.Contains(body, `"algorithm": "SS-nonblocking"`) {
		t.Errorf("statusz body = %s", body)
	}
}

func TestServerPprof(t *testing.T) {
	s := startServer(t)
	code, body, _ := get(t, "http://"+s.Addr()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: code=%d", code)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	s := NewServer("127.0.0.1:0")
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"1leading_digit 3\n",
		"name{unclosed=\"x\" 3\n",
		"name{a=b} 3\n",
		"name notanumber\n",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted malformed line %q", strings.TrimSpace(bad))
		}
	}
	good := "# HELP x y\n\nx_total 3\nx{a=\"b\",c=\"d\"} 4.5e-3\n"
	m, err := ParsePrometheus(strings.NewReader(good))
	if err != nil {
		t.Fatalf("rejected valid exposition: %v", err)
	}
	if m["x_total"] != 3 || m[`x{a="b",c="d"}`] != 0.0045 {
		t.Errorf("parsed: %v", m)
	}
}
