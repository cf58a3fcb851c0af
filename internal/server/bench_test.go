package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// benchServer builds a server with the salary dataset pre-ingested.
func benchServer(b *testing.B) (*Server, *httptest.Server) {
	b.Helper()
	csv, err := os.ReadFile(filepath.Join("..", "..", "cmd", "darminer", "testdata", "golden_input.csv"))
	if err != nil {
		b.Fatalf("reading dataset: %v", err)
	}
	srv, _, err := New(Config{DataDir: b.TempDir()})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v1/ingest?name=s", "text/csv", bytes.NewReader(csv))
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("ingest: %v (status %v)", err, resp)
	}
	resp.Body.Close()
	return srv, ts
}

// BenchmarkServerQuery measures the full HTTP query path. The cached
// variant is the steady state of a hot dashboard (every request a cache
// hit); the uncached variant invalidates between requests, so each
// iteration pays Phase II plus rendering; the warm-base variant drops
// the cached answer but keeps the memoized base rule set and its frame,
// so each iteration pays the query modes plus the answer's body.
func BenchmarkServerQuery(b *testing.B) {
	for _, mode := range []string{"cached", "uncached", "warm-base"} {
		b.Run(mode, func(b *testing.B) {
			srv, ts := benchServer(b)
			warm, _ := postQueryQuiet(ts, "s", "{}")
			if warm != http.StatusOK {
				b.Fatalf("warm-up query status %d", warm)
			}
			baseKey := baseCacheKey("s", 1, core.DefaultQueryOptions())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch mode {
				case "uncached":
					b.StopTimer()
					srv.cache.invalidate("s")
					b.StartTimer()
				case "warm-base":
					b.StopTimer()
					base, frame, err := srv.cache.getBase(baseKey)
					if base == nil || err != nil {
						b.Fatalf("base not memoized (frame error %v)", err)
					}
					srv.cache.invalidate("s")
					srv.cache.putBase(baseKey, base, frame, nil)
					b.StartTimer()
				}
				status, body := postQueryQuiet(ts, "s", "{}")
				if status != http.StatusOK {
					b.Fatalf("query status %d: %s", status, body)
				}
			}
		})
	}
}

// BenchmarkSingleflight measures flight bookkeeping overhead on the
// uncontended fast path.
func BenchmarkSingleflight(b *testing.B) {
	var g flightGroup
	payload := flightValue{body: []byte("result"), version: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i&7)
		if _, _, err := g.Do(key, func() (flightValue, error) { return payload, nil }); err != nil {
			b.Fatal(err)
		}
	}
}
