package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// tinyWorld is the test workload: the differential suite's small-but-real
// world (4 clusters, 30 vehicles, full detection pipeline) with free
// signatures so a run costs milliseconds.
func tinyWorld(seed int64) string {
	return fmt.Sprintf(`{"Seed":%d,"HighwayLengthM":4000,"Vehicles":30,"AttackerCluster":2,"DataPackets":5,"MaxSimTime":45000000000,"RealCrypto":false}`, seed)
}

func runBody(seed int64) string {
	return fmt.Sprintf(`{"kind":"run","config":%s}`, tinyWorld(seed))
}

func sweepBody(seed int64, reps int) string {
	return fmt.Sprintf(`{"kind":"sweep","reps":%d,"config":%s}`, reps, tinyWorld(seed))
}

// mustNew builds a server, failing the test on a config error.
func mustNew(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// post submits a job and returns the status, the cache header and the
// response body split into NDJSON lines.
func post(t *testing.T, ts *httptest.Server, body string) (int, string, []string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	return resp.StatusCode, resp.Header.Get("X-Blackdp-Cache"), lines
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func TestSubmitRunSecondPostIsByteIdenticalCacheHit(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code1, cache1, lines1 := post(t, ts, runBody(7))
	code2, cache2, lines2 := post(t, ts, runBody(7))
	if code1 != 200 || code2 != 200 {
		t.Fatalf("status %d, %d", code1, code2)
	}
	if cache1 != "miss" || cache2 != "hit" {
		t.Fatalf("cache headers %q, %q; want miss, hit", cache1, cache2)
	}
	// The final line is the result payload; it must be byte-identical.
	p1, p2 := lines1[len(lines1)-1], lines2[len(lines2)-1]
	if p1 != p2 {
		t.Fatalf("payloads differ:\n%s\n%s", p1, p2)
	}
	var payload struct {
		Outcomes []struct {
			Seed     int64
			Detected bool
		} `json:"outcomes"`
		Summary struct {
			Runs int `json:"runs"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(p1), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Outcomes) != 1 || payload.Outcomes[0].Seed != 7 || payload.Summary.Runs != 1 {
		t.Fatalf("payload = %+v", payload)
	}
	// The hit is marked in the stream too.
	if !strings.Contains(lines2[0], `"cache":"hit"`) {
		t.Fatalf("second accepted line not marked as hit: %s", lines2[0])
	}

	// /metrics reflects exactly one miss and one hit.
	_, metricsOut := get(t, ts.URL+"/v1/metrics")
	for _, want := range []string{
		"blackdp_serve_cache_misses_total 1",
		"blackdp_serve_cache_hits_total 1",
		`blackdp_serve_jobs_total{status="done"} 2`,
	} {
		if !strings.Contains(metricsOut, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsOut)
		}
	}
}

func TestSweepStreamsProgressAndAggregates(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, cache, lines := post(t, ts, sweepBody(3, 4))
	if code != 200 || cache != "miss" {
		t.Fatalf("status %d cache %q", code, cache)
	}
	progress := 0
	for _, l := range lines {
		if strings.Contains(l, `"type":"progress"`) {
			progress++
		}
	}
	if progress == 0 {
		t.Error("no progress lines streamed")
	}
	var payload struct {
		Outcomes []json.RawMessage `json:"outcomes"`
		Summary  struct {
			Runs int `json:"runs"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Outcomes) != 4 || payload.Summary.Runs != 4 {
		t.Fatalf("sweep payload: %d outcomes, %d runs", len(payload.Outcomes), payload.Summary.Runs)
	}
}

func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	s := mustNew(t, Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	payloads := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(runBody(11)))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
			payloads[i] = lines[len(lines)-1]
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if payloads[i] != payloads[0] {
			t.Fatalf("client %d saw different bytes", i)
		}
	}
	if st := s.cache.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single flight)", st.Misses)
	}
}

func TestAdmissionControlRejectsWith429(t *testing.T) {
	// One worker, no queue: while a long sweep holds the worker, any new
	// job must bounce with 429 and a Retry-After hint.
	s := mustNew(t, Config{Workers: 1, QueueDepth: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	started, finished := postAsync(ts.URL, sweepBody(5, 64))
	<-started // the accepted line: admitted

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(runBody(99)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	<-finished

	_, metricsOut := get(t, ts.URL+"/v1/metrics")
	if !strings.Contains(metricsOut, "blackdp_serve_jobs_rejected_total 1") {
		t.Errorf("rejection not counted:\n%s", metricsOut)
	}

	// The worker is free again: the rejected job must now be admitted.
	code, _, _ := post(t, ts, runBody(99))
	if code != 200 {
		t.Fatalf("post-drain resubmit status %d", code)
	}
}

func TestTraceEndpoint(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"kind":"run","trace":true,"config":%s}`, tinyWorld(7))
	code, cache, lines := post(t, ts, body)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if cache != "miss" {
		t.Fatalf("trace jobs must execute, got cache %q", cache)
	}
	var accepted struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &accepted); err != nil {
		t.Fatal(err)
	}
	code, traceOut := get(t, ts.URL+"/v1/jobs/"+accepted.Job+"/trace")
	if code != 200 {
		t.Fatalf("trace status %d", code)
	}
	if !strings.Contains(traceOut, "detect") {
		t.Errorf("trace has no detection events:\n%.500s", traceOut)
	}

	// A traced run still publishes its bytes: an identical untraced
	// request is a cache hit with the same payload.
	code2, cache2, lines2 := post(t, ts, runBody(7))
	if code2 != 200 || cache2 != "hit" {
		t.Fatalf("untraced follow-up: status %d cache %q", code2, cache2)
	}
	if lines2[len(lines2)-1] != lines[len(lines)-1] {
		t.Error("traced and untraced payloads differ")
	}

	// Untraced jobs have no trace to serve.
	var accepted2 struct {
		Job string `json:"job"`
	}
	_ = json.Unmarshal([]byte(lines2[0]), &accepted2)
	if code, _ := get(t, ts.URL+"/v1/jobs/"+accepted2.Job+"/trace"); code != 404 {
		t.Errorf("trace of untraced job: status %d, want 404", code)
	}
}

func TestJobEndpoints(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _, lines := post(t, ts, runBody(21))
	var accepted struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &accepted); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, ts.URL+"/v1/jobs/"+accepted.Job)
	if code != 200 {
		t.Fatalf("job status %d", code)
	}
	var view struct {
		Status string          `json:"status"`
		Cache  string          `json:"cache"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone || view.Cache != "miss" || len(view.Result) == 0 {
		t.Fatalf("job view = %s", body)
	}

	code, body = get(t, ts.URL+"/v1/jobs")
	if code != 200 || !strings.Contains(body, accepted.Job) {
		t.Fatalf("list missing job: %s", body)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/j-999"); code != 404 {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

func TestBadRequests(t *testing.T) {
	s := mustNew(t, Config{MaxReps: 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"unknown kind":   `{"kind":"explode"}`,
		"no reps":        `{"kind":"sweep"}`,
		"too many reps":  `{"kind":"sweep","reps":11}`,
		"sweep trace":    `{"kind":"sweep","reps":2,"trace":true}`,
		"negative start": `{"kind":"sweep","start":-1,"reps":2}`,
		"start on a run": `{"kind":"run","start":2}`,
		"invalid config": `{"kind":"run","config":{"LossRate":2}}`,
		"not json":       `{{{`,
	} {
		code, _, _ := post(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, _, lines := post(t, ts, runBody(31)); len(lines) < 2 {
		t.Fatal("warm-up job failed")
	}
	stats, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Misses != 1 {
		t.Fatalf("drain stats = %+v", stats)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(runBody(32)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", resp.StatusCode)
	}
	if code, body := get(t, ts.URL+"/v1/healthz"); code != 200 || !strings.Contains(body, "draining") {
		t.Errorf("healthz after drain: %d %s", code, body)
	}
}

// TestLegacyRoutesAreGone checks the unversioned routes are gone: every
// pre-/v1 path falls through to the enveloped 404 catch-all, while the /v1
// surface itself serves normally.
func TestLegacyRoutesAreGone(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _, lines := post(t, ts, runBody(3))
	id := acceptedJob(t, lines[0])
	for _, path := range []string{"/jobs", "/jobs/" + id, "/metrics", "/healthz"} {
		code, body := get(t, ts.URL+path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404: %s", path, code, body)
			continue
		}
		var e APIError
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Code != "not_found" || !strings.Contains(e.Message, path) {
			t.Errorf("GET %s envelope = %s (err %v)", path, body, err)
		}
	}
	if resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(runBody(3))); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST /jobs = %d, want 404", resp.StatusCode)
		}
	}
	for _, path := range []string{"/v1/jobs", "/v1/jobs/" + id, "/v1/metrics", "/v1/healthz"} {
		if code, body := get(t, ts.URL+path); code != 200 {
			t.Errorf("GET %s = %d: %s", path, code, body)
		}
	}
}

// TestErrorEnvelope pins the typed JSON error contract, table-driven over
// every status the API speaks: 400, 401, 404, 409, 429 and 503 all
// answer with {"code","message","retry_after_seconds"}, the retry hint
// appearing exactly when the Retry-After header does.
func TestErrorEnvelope(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A second, tenant-gated server for the 401 case.
	auth := mustNew(t, Config{Tenants: []Tenant{{Name: "a", Key: "secret"}}})
	authTS := httptest.NewServer(auth.Handler())
	defer authTS.Close()

	// A finished job for the 409 case.
	_, _, lines := post(t, ts, runBody(900))
	var doneJob streamLine
	if err := json.Unmarshal([]byte(lines[0]), &doneJob); err != nil {
		t.Fatal(err)
	}

	// The 429 case: a long sweep holds the single worker while the probe
	// POST bounces.
	started, finished := postAsync(ts.URL, sweepBody(901, 64))
	<-started // the accepted line: admitted

	do := func(t *testing.T, method, url, body string) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	cases := []struct {
		name       string
		method     string
		url        string
		body       string
		wantStatus int
		wantCode   string
		wantRetry  bool // retry_after_seconds >= 1 and Retry-After header set
	}{
		{"400 bad request", "POST", ts.URL + "/v1/jobs", "{", http.StatusBadRequest, "bad_request", false},
		{"401 unauthorized", "POST", authTS.URL + "/v1/jobs", runBody(1), http.StatusUnauthorized, "unauthorized", false},
		{"404 not found", "GET", ts.URL + "/v1/jobs/j-missing", "", http.StatusNotFound, "not_found", false},
		{"409 already finished", "DELETE", ts.URL + "/v1/jobs/" + doneJob.Job, "", http.StatusConflict, "already_finished", false},
		{"404 unversioned route", "GET", ts.URL + "/metrics", "", http.StatusNotFound, "not_found", false},
		{"429 queue full", "POST", ts.URL + "/v1/jobs", runBody(902), http.StatusTooManyRequests, "queue_full", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := do(t, tc.method, tc.url, tc.body)
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			var e APIError
			if err := json.Unmarshal(b, &e); err != nil {
				t.Fatalf("error body is not the JSON envelope: %q (%v)", b, err)
			}
			if resp.StatusCode != tc.wantStatus || e.Code != tc.wantCode || e.Message == "" {
				t.Errorf("status %d envelope %+v; want %d %q", resp.StatusCode, e, tc.wantStatus, tc.wantCode)
			}
			hasHeader := resp.Header.Get("Retry-After") != ""
			if tc.wantRetry && (e.RetryAfterSeconds < 1 || !hasHeader) {
				t.Errorf("envelope %+v header %q: retry hint missing", e, resp.Header.Get("Retry-After"))
			}
			if !tc.wantRetry && (e.RetryAfterSeconds != 0 || hasHeader) {
				t.Errorf("envelope %+v carried an unexpected retry hint", e)
			}
		})
	}

	// 503 last: draining is terminal for this server.
	t.Run("503 draining", func(t *testing.T) {
		<-finished
		if _, err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		resp := do(t, "POST", ts.URL+"/v1/jobs", runBody(903))
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		var e APIError
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("error body is not the JSON envelope: %q (%v)", b, err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || e.Code != "draining" || e.RetryAfterSeconds < 1 {
			t.Errorf("draining: status %d envelope %+v", resp.StatusCode, e)
		}
	})
}

// TestCryptoSchemeSeparatesCacheEntries pins the fingerprint semantics of
// the crypto knobs at the HTTP layer: scheme classes never share a cache
// entry, the legacy RealCrypto boolean collapses onto its scheme name, and
// the byte-invisible verification-cache toggle never splits one.
func TestCryptoSchemeSeparatesCacheEntries(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := func(extra string) string {
		return fmt.Sprintf(`{"kind":"run","config":{"Seed":5,"HighwayLengthM":4000,"Vehicles":30,"AttackerCluster":2,"DataPackets":5,"MaxSimTime":45000000000,%s}}`, extra)
	}

	if _, cache, _ := post(t, ts, body(`"CryptoScheme":"ecdsa"`)); cache != "miss" {
		t.Fatalf("ecdsa first post: cache %q, want miss", cache)
	}
	if _, cache, _ := post(t, ts, body(`"CryptoScheme":"session"`)); cache != "miss" {
		t.Fatalf("session must not share the ecdsa entry: cache %q", cache)
	}
	if _, cache, _ := post(t, ts, body(`"RealCrypto":true`)); cache != "hit" {
		t.Fatalf("RealCrypto:true should hit the ecdsa entry: cache %q", cache)
	}
	if _, cache, _ := post(t, ts, body(`"CryptoScheme":"ecdsa","NoVerifyCache":true`)); cache != "hit" {
		t.Fatalf("NoVerifyCache is byte-invisible and should hit: cache %q", cache)
	}
}
