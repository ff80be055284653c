package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"voltron/internal/server"
)

// TestSmokeMode drives the -smoke self-test end to end: it exercises the
// whole serving path (listener, handlers, cache, pool) and must leave a
// parseable metrics snapshot behind.
func TestSmokeMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-smoke", "-workers", "2", "-metricsout", out}, &stdout, &stderr); err != nil {
		t.Fatalf("run -smoke: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "smoke:") {
		t.Errorf("no smoke summary printed: %q", stdout.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("metrics file: %v", err)
	}
	var m server.MetricsSnapshot
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("metrics file does not parse: %v\n%s", err, b)
	}
	if m.Jobs == 0 || m.Simulations == 0 {
		t.Errorf("metrics snapshot empty: %+v", m)
	}
	if m.CacheHits == 0 {
		t.Error("smoke run recorded no cache hits")
	}
	if m.CompileCacheHits == 0 {
		t.Error("smoke run shared no compiled artifacts")
	}
	if m.Latency["hybrid"].Count == 0 {
		t.Error("no hybrid latency observations recorded")
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bogus"}, &stdout, &stderr); err == nil {
		t.Error("unknown flag accepted")
	}
}
