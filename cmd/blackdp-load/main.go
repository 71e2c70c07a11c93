// Command blackdp-load is the multi-tenant soak harness for blackdp-serve:
// it drives thousands of concurrent clients across several API tenants,
// measures per-job latency (p50/p95/p99) and per-tenant throughput, and
// reports the fairness skew — how unevenly the fair-share admission queue
// treated the well-behaved tenants while one tenant saturated its quota.
//
// By default it is self-contained: it starts an in-process server with
// -tenants API keys (tenant t0 rate-limited to -sat-rate jobs/s when
// -saturate is on), points every client at it, and tears it down after the
// run. Point -addr at a live server to soak an external deployment instead
// (pass its keys with repeated -api-key flags).
//
//	blackdp-load -clients 1000 -jobs 3 -tenants 3 -saturate
//	blackdp-load -addr http://host:8080 -api-key t0:k0 -api-key t1:k1
//
// The clients are closed-loop: each submits its next job as soon as the
// previous stream completes, with no backpressure retries — a 429 counts
// as a rejection, which is the signal the fairness analysis needs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"blackdp/internal/serve"
	"blackdp/serve/client"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "blackdp-load:", err)
		os.Exit(1)
	}
}

// tenantStats accumulates one tenant's side of the soak.
type tenantStats struct {
	mu          sync.Mutex
	done        int
	rateLimited int
	queueFull   int
	otherErrs   int
	latencies   []time.Duration
}

func (s *tenantStats) record(d time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.done++
		s.latencies = append(s.latencies, d)
		return
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		switch ae.Code {
		case "rate_limited":
			s.rateLimited++
			return
		case "queue_full":
			s.queueFull++
			return
		}
	}
	s.otherErrs++
}

// percentile returns the q-th percentile of sorted durations (q in 0..100).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func run() error {
	var (
		addr     = flag.String("addr", "", "target server base URL (empty = start an in-process server)")
		clients  = flag.Int("clients", 300, "total concurrent clients, split across tenants")
		jobs     = flag.Int("jobs", 2, "jobs each client submits")
		reps     = flag.Int("reps", 2, "replications per sweep job")
		tenantsN = flag.Int("tenants", 3, "tenants for the in-process server")
		saturate = flag.Bool("saturate", true, "rate-limit tenant t0 and let it hammer anyway (fairness probe)")
		satRate  = flag.Float64("sat-rate", 10, "t0's token-bucket rate when -saturate (jobs/s)")
		workers  = flag.Int("workers", 0, "in-process server execution slots (0 = default)")
		queue    = flag.Int("queue", 0, "in-process server per-tenant queue depth (0 = default)")
		vehicles = flag.Int("vehicles", 20, "world size per job (small worlds soak the service, not the simulator)")
		shared   = flag.Bool("shared", false, "all clients submit the same config (cache-hit soak) instead of unique seeds")
		timeout  = flag.Duration("timeout", 10*time.Minute, "overall run deadline")
	)
	var extKeys []serve.Tenant
	flag.Func("api-key", "external server tenant in name:key form (repeatable, with -addr)", func(s string) error {
		t, err := serve.ParseTenant(s)
		if err != nil {
			return err
		}
		extKeys = append(extKeys, t)
		return nil
	})
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Resolve the fleet of tenants and the server to aim at.
	var tenants []serve.Tenant
	base := *addr
	if base == "" {
		for i := 0; i < *tenantsN; i++ {
			t := serve.Tenant{Name: fmt.Sprintf("t%d", i), Key: fmt.Sprintf("key-%d", i)}
			if *saturate && i == 0 {
				t.Rate = *satRate
			}
			tenants = append(tenants, t)
		}
		srv, err := serve.New(serve.Config{Workers: *workers, QueueDepth: *queue, Tenants: tenants})
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(l)
		defer func() {
			dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer dcancel()
			_, _ = srv.Drain(dctx)
		}()
		base = "http://" + l.Addr().String()
		fmt.Printf("blackdp-load: in-process server on %s with %d tenants\n", base, len(tenants))
	} else {
		tenants = extKeys
		if len(tenants) == 0 {
			tenants = []serve.Tenant{{Name: "default"}} // open server
		}
	}

	perTenant := *clients / len(tenants)
	if perTenant < 1 {
		perTenant = 1
	}
	stats := make([]*tenantStats, len(tenants))
	for i := range stats {
		stats[i] = &tenantStats{}
	}

	fmt.Printf("blackdp-load: %d clients x %d jobs across %d tenants (reps=%d, vehicles=%d)\n",
		perTenant*len(tenants), *jobs, len(tenants), *reps, *vehicles)
	begin := time.Now()

	var wg sync.WaitGroup
	for ti, t := range tenants {
		for ci := 0; ci < perTenant; ci++ {
			wg.Add(1)
			go func(ti, ci int, key string) {
				defer wg.Done()
				// No retries: a 429 is data, not an obstacle.
				cl := &client.Client{BaseURL: base, Key: key, MaxRetries: -1}
				for j := 0; j < *jobs; j++ {
					seed := int64(1)
					if !*shared {
						seed = int64(ti)*1_000_000 + int64(ci)*1_000 + int64(j) + 1
					}
					cfgJSON, _ := json.Marshal(map[string]any{
						"Seed": seed, "Vehicles": *vehicles, "HighwayLengthM": 3000,
						"AttackerCluster": 2, "DataPackets": 3,
						"MaxSimTime": 30 * time.Second, "CryptoScheme": "placeholder",
					})
					start := time.Now()
					_, err := cl.Submit(ctx, client.Request{Kind: "sweep", Reps: *reps, Config: cfgJSON}, nil)
					stats[ti].record(time.Since(start), err)
					if ctx.Err() != nil {
						return
					}
				}
			}(ti, ci, t.Key)
		}
	}
	wg.Wait()
	wall := time.Since(begin)

	// Per-tenant report plus the cross-tenant fairness skew: among the
	// well-behaved tenants (everyone but a saturating t0), completed-job
	// counts should be near-equal — skew is max/min.
	var all []time.Duration
	fairMin, fairMax := -1, -1
	satIdx := -1
	if *saturate && *addr == "" && len(tenants) > 1 {
		satIdx = 0
	}
	fmt.Printf("blackdp-load: done in %v\n", wall)
	for i, t := range tenants {
		s := stats[i]
		sort.Slice(s.latencies, func(a, b int) bool { return s.latencies[a] < s.latencies[b] })
		all = append(all, s.latencies...)
		tag := ""
		if i == satIdx {
			tag = " (saturating)"
		} else if len(tenants) > 1 {
			if fairMin == -1 || s.done < fairMin {
				fairMin = s.done
			}
			if s.done > fairMax {
				fairMax = s.done
			}
		}
		fmt.Printf("  tenant %-8s%s done=%d rate_limited=%d queue_full=%d errors=%d p50=%v p95=%v p99=%v\n",
			t.Name, tag, s.done, s.rateLimited, s.queueFull, s.otherErrs,
			percentile(s.latencies, 50), percentile(s.latencies, 95), percentile(s.latencies, 99))
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	p50, p95, p99 := percentile(all, 50), percentile(all, 95), percentile(all, 99)
	skew := 0.0
	if fairMin > 0 {
		skew = float64(fairMax) / float64(fairMin)
	}
	fmt.Printf("  overall: %d jobs done, p50=%v p95=%v p99=%v", len(all), p50, p95, p99)
	if fairMin >= 0 {
		fmt.Printf(", fairness skew=%.2f (max/min completed among fair tenants)", skew)
	}
	fmt.Println()

	totalErrs := 0
	for _, s := range stats {
		totalErrs += s.otherErrs
	}
	if totalErrs > 0 {
		return fmt.Errorf("%d jobs failed with unexpected errors", totalErrs)
	}
	return nil
}
