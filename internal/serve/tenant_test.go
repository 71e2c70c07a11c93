package serve

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// authPost submits a job with a bearer key and returns the status and the
// NDJSON lines.
func authPost(t *testing.T, ts *httptest.Server, key, body string) (int, []string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.Split(strings.TrimRight(string(b), "\n"), "\n")
}

// TestParseTenant pins the -api-key / keyfile grammar.
func TestParseTenant(t *testing.T) {
	cases := []struct {
		in   string
		want Tenant
		ok   bool
	}{
		{"alice:k1", Tenant{Name: "alice", Key: "k1"}, true},
		{"alice:k1:2.5", Tenant{Name: "alice", Key: "k1", Rate: 2.5}, true},
		{"alice:k1:2.5:7", Tenant{Name: "alice", Key: "k1", Rate: 2.5, Burst: 7}, true},
		{"alice", Tenant{}, false},
		{":k1", Tenant{}, false},
		{"alice:", Tenant{}, false},
		{"alice:k1:fast", Tenant{}, false},
		{"alice:k1:NaN", Tenant{}, false},
		{"alice:k1:+Inf", Tenant{}, false},
		{"alice:k1:-inf:3", Tenant{}, false},
		{"alice:k1:1:2:3", Tenant{}, false},
	}
	for _, c := range cases {
		got, err := ParseTenant(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseTenant(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseTenant(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}

	// Config-level validation: duplicate names, shared keys and keyless
	// tenants are rejected at New.
	for _, bad := range [][]Tenant{
		{{Name: "a", Key: "k"}, {Name: "a", Key: "k2"}},
		{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}},
		{{Name: "a"}},
	} {
		if _, err := New(Config{Tenants: bad}); err == nil {
			t.Errorf("New accepted invalid tenant set %+v", bad)
		}
	}
}

// FuzzParseTenant: the -api-key grammar never panics, and every accepted
// tenant has a non-empty name and key and a finite rate.
func FuzzParseTenant(f *testing.F) {
	for _, seed := range []string{"alice:k1", "alice:k1:2.5", "alice:k1:2.5:7", "alice:k1:NaN",
		"alice:k1:+Inf:1", " :k", "a:b:c:d:e", "a:k:1e309", "a:k:0x1p-2:-3"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tn, err := ParseTenant(s)
		if err != nil {
			return
		}
		if tn.Name == "" || tn.Key == "" || math.IsNaN(tn.Rate) || math.IsInf(tn.Rate, 0) {
			t.Fatalf("ParseTenant(%q) accepted %+v", s, tn)
		}
	})
}

// TestAdmissionFairShare pins the slot discipline at the unit level: one
// slot, two tenants, releases granted round-robin so tenant A's backlog
// cannot starve tenant B.
func TestAdmissionFairShare(t *testing.T) {
	adm, err := newAdmission(1, 2, []Tenant{{Name: "a", Key: "ka"}, {Name: "b", Key: "kb"}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := adm.lookup("a"), adm.lookup("b")

	// A takes the slot; its next two submissions queue; the third bounces.
	if w, ok := adm.acquire(a, false); w != nil || !ok {
		t.Fatalf("first acquire: waiter=%v ok=%v, want immediate slot", w, ok)
	}
	wa1, ok := adm.acquire(a, false)
	if wa1 == nil || !ok {
		t.Fatal("second acquire should queue")
	}
	wa2, ok := adm.acquire(a, false)
	if wa2 == nil || !ok {
		t.Fatal("third acquire should queue")
	}
	if _, ok := adm.acquire(a, false); ok {
		t.Fatal("fourth acquire should bounce: queue full")
	}
	// forced acquires (restart recovery) queue past the bound.
	waF, ok := adm.acquire(a, true)
	if waF == nil || !ok {
		t.Fatal("forced acquire must never bounce")
	}
	// B queues behind its own bound, untouched by A's backlog.
	wb, ok := adm.acquire(b, false)
	if wb == nil || !ok {
		t.Fatal("tenant b should queue despite a's backlog")
	}
	if adm.queued("a") != 3 || adm.queued("b") != 1 {
		t.Fatalf("queued a=%d b=%d, want 3 and 1", adm.queued("a"), adm.queued("b"))
	}

	granted := func(w *waiter) bool {
		select {
		case <-w.ready:
			return true
		default:
			return false
		}
	}
	// Release the slot: the round-robin cursor moves past A, so B — one
	// queued job against A's three — is served first.
	adm.release(a)
	if !granted(wb) || granted(wa1) {
		t.Fatal("first release must grant tenant b (round-robin), not a's backlog")
	}
	adm.release(b)
	if !granted(wa1) {
		t.Fatal("second release should grant a's oldest waiter")
	}
	adm.release(a)
	if !granted(wa2) {
		t.Fatal("third release should grant a's next waiter (b has nothing queued)")
	}
	// cancelWait withdraws a queued waiter; a granted one reports false.
	if !adm.cancelWait(waF) {
		t.Fatal("cancelWait should withdraw the still-queued forced waiter")
	}
	if adm.cancelWait(wa2) {
		t.Fatal("cancelWait of a granted waiter must report false")
	}
	adm.release(a)
	if adm.running("a") != 0 || adm.running("b") != 0 || adm.queued("a") != 0 {
		t.Fatalf("final state: run a=%d b=%d queued a=%d, want all zero",
			adm.running("a"), adm.running("b"), adm.queued("a"))
	}
}

// TestTenantAuthAndIsolation drives the HTTP surface: wrong keys bounce
// with the 401 envelope, and tenants cannot see each other's jobs.
func TestTenantAuthAndIsolation(t *testing.T) {
	s := mustNew(t, Config{Tenants: []Tenant{
		{Name: "alice", Key: "ka"}, {Name: "bob", Key: "kb"},
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// No key, wrong key: 401 envelope.
	for _, key := range []string{"", "nope"} {
		code, lines := authPost(t, ts, key, runBody(1))
		if code != http.StatusUnauthorized || !strings.Contains(lines[0], `"code":"unauthorized"`) {
			t.Errorf("key %q: status %d body %s, want 401 unauthorized envelope", key, code, lines[0])
		}
	}

	// Alice submits; the job is hers.
	code, lines := authPost(t, ts, "ka", runBody(1))
	if code != http.StatusOK {
		t.Fatalf("alice submit: %d %v", code, lines)
	}
	i := strings.Index(lines[0], `"job":"`)
	if i < 0 {
		t.Fatalf("no job id in accepted line %s", lines[0])
	}
	jobID := lines[0][i+7:]
	jobID = jobID[:strings.IndexByte(jobID, '"')]

	// Bob cannot GET, DELETE or list alice's job.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+jobID, nil)
	req.Header.Set("Authorization", "Bearer kb")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bob GET alice's job: %d, want 404", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jobID, nil)
	req.Header.Set("Authorization", "Bearer kb")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bob DELETE alice's job: %d, want 404", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs", nil)
	req.Header.Set("Authorization", "Bearer kb")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(listing), jobID) {
		t.Errorf("bob's listing leaked alice's job: %s", listing)
	}

	// Alice sees it fine.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+jobID, nil)
	req.Header.Set("Authorization", "Bearer ka")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("alice GET her own job: %d, want 200", resp.StatusCode)
	}
}

// TestTenantRateLimit pins the token bucket at the door: burst spends,
// then 429 rate_limited with a real retry hint, honored by waiting.
func TestTenantRateLimit(t *testing.T) {
	s := mustNew(t, Config{Tenants: []Tenant{
		{Name: "slow", Key: "ks", Rate: 0.5, Burst: 2},
		{Name: "free", Key: "kf"},
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The burst admits two; the third bounces with the envelope.
	for i := 0; i < 2; i++ {
		if code, lines := authPost(t, ts, "ks", runBody(int64(i))); code != http.StatusOK {
			t.Fatalf("burst submit %d: %d %v", i, code, lines)
		}
	}
	code, lines := authPost(t, ts, "ks", runBody(9))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: %d, want 429", code)
	}
	if !strings.Contains(lines[0], `"code":"rate_limited"`) ||
		!strings.Contains(lines[0], `"retry_after_seconds":`) {
		t.Errorf("rate-limit envelope = %s", lines[0])
	}

	// The unlimited tenant is untouched by slow's exhaustion.
	if code, _ := authPost(t, ts, "kf", runBody(1)); code != http.StatusOK {
		t.Errorf("free tenant rate-limited by slow's bucket: %d", code)
	}

	// Metrics carry the per-tenant series.
	_, metricsBody := get(t, ts.URL+"/v1/metrics")
	for _, want := range []string{
		`blackdp_serve_tenant_jobs_accepted_total{tenant="slow"} 2`,
		`blackdp_serve_tenant_rate_limited_total{tenant="slow"} 1`,
		`blackdp_serve_tenant_jobs_accepted_total{tenant="free"} 1`,
		`blackdp_serve_tenant_queued{tenant="slow"} 0`,
		`blackdp_serve_tenant_running{tenant="slow"} 0`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTenantFairnessUnderSaturation is the in-process soak: one tenant
// floods a one-slot server far past its queue bound while two well-behaved
// tenants submit a modest load. The flood must absorb every rejection —
// the fair tenants complete all of their jobs.
func TestTenantFairnessUnderSaturation(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: 2, Tenants: []Tenant{
		{Name: "flood", Key: "k0"},
		{Name: "fair1", Key: "k1"},
		{Name: "fair2", Key: "k2"},
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const fairJobs = 4
	var wg sync.WaitGroup
	var floodRejected, floodDone int
	var mu sync.Mutex
	// The flood: 12 concurrent distinct submissions against queue depth 2.
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, lines := authPost(t, ts, "k0", runBody(int64(100+i)))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case code == http.StatusOK:
				floodDone++
			case code == http.StatusTooManyRequests &&
				strings.Contains(lines[0], `"code":"queue_full"`):
				floodRejected++
			default:
				t.Errorf("flood submit %d: unexpected %d %s", i, code, lines[0])
			}
		}(i)
	}
	// The fair tenants: sequential closed-loop clients, distinct configs.
	fairDone := [2]int{}
	for fi, key := range []string{"k1", "k2"} {
		wg.Add(1)
		go func(fi int, key string) {
			defer wg.Done()
			for j := 0; j < fairJobs; j++ {
				deadline := time.Now().Add(60 * time.Second)
				for {
					code, _ := authPost(t, ts, key, runBody(int64(200+fi*10+j)))
					if code == http.StatusOK {
						mu.Lock()
						fairDone[fi]++
						mu.Unlock()
						break
					}
					if code != http.StatusTooManyRequests || time.Now().After(deadline) {
						t.Errorf("fair tenant %d job %d: status %d", fi, j, code)
						return
					}
					time.Sleep(50 * time.Millisecond) // own queue briefly full
				}
			}
		}(fi, key)
	}
	wg.Wait()

	if fairDone[0] != fairJobs || fairDone[1] != fairJobs {
		t.Errorf("fair tenants completed %d and %d jobs, want %d each (starved by the flood)",
			fairDone[0], fairDone[1], fairJobs)
	}
	if floodRejected == 0 {
		t.Error("the flood saw no queue_full rejections — queue bound not enforced")
	}
	if floodDone+floodRejected != 12 {
		t.Errorf("flood accounting: %d done + %d rejected != 12", floodDone, floodRejected)
	}
}
