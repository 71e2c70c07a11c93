package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blackdp/internal/scenario"
)

// BenchmarkFingerprint measures the canonical-serialization hash that keys
// the result cache — it runs once per request, on the admission path.
func BenchmarkFingerprint(b *testing.B) {
	cfg := scenario.DefaultConfig()
	cfg.AttackerCluster = 4
	cfg.EvasiveClusters = []int{10, 8, 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Fingerprint(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCacheHit measures a full HTTP round-trip answered from the
// result cache: parse, fingerprint, single-flight lookup, stream replay.
func BenchmarkServeCacheHit(b *testing.B) {
	s := mustNew(b, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"kind":"run","config":{"Seed":7,"HighwayLengthM":4000,"Vehicles":30,"AttackerCluster":2,"DataPackets":5,"MaxSimTime":45000000000,"CryptoScheme":"placeholder"}}`
	warm, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-Blackdp-Cache") != "hit" {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkServeSweep measures an uncached 8-replication sweep job through
// the whole service stack, progress streaming included.
func BenchmarkServeSweep(b *testing.B) {
	s := mustNew(b, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh seed each iteration defeats the cache on purpose.
		body := fmt.Sprintf(`{"kind":"sweep","reps":8,"config":{"Seed":%d,"HighwayLengthM":4000,"Vehicles":30,"AttackerCluster":2,"DataPackets":5,"MaxSimTime":45000000000,"CryptoScheme":"placeholder"}}`, i+1)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
