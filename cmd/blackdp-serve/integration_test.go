package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"blackdp/serve/client"
)

// buildServeBin compiles the blackdp-serve binary into dir.
func buildServeBin(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "blackdp-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestIntegrationServeSoak exercises the real binary end to end through the
// typed client: build it, start it with three API tenants, fire concurrent
// clients per tenant (several identical configs, so the cache and
// single-flight paths are hot), then SIGTERM it and require a clean drain.
// Run under -race in CI.
func TestIntegrationServeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	bin := buildServeBin(t, t.TempDir())

	proc := startProc(t, bin, "-addr", "127.0.0.1:0", "-workers", "4",
		"-api-key", "alpha:ka", "-api-key", "beta:kb", "-api-key", "gamma:kc")
	base := "http://" + proc.addr

	const perTenant = 8
	keys := []string{"ka", "kb", "kc"}
	// Four distinct configurations across all clients: every configuration
	// is computed at most once and the other responses must come out of the
	// cache (as completed hits or coalesced joins) byte-identical.
	cfg := func(i int) string {
		return fmt.Sprintf(`{"Seed":%d,"HighwayLengthM":4000,"Vehicles":30,"AttackerCluster":2,"DataPackets":5,"MaxSimTime":45000000000,"CryptoScheme":"placeholder"}`, i%4)
	}
	type result struct {
		payload string
		err     error
	}
	results := make([]result, perTenant*len(keys))
	var wg sync.WaitGroup
	for ki, key := range keys {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(slot, i int, key string) {
				defer wg.Done()
				cl := &client.Client{BaseURL: base, Key: key}
				res, err := cl.Submit(context.Background(),
					client.Request{Kind: "run", Config: []byte(cfg(i))}, nil)
				if err != nil {
					results[slot] = result{err: err}
					return
				}
				results[slot] = result{payload: string(res.Payload)}
			}(ki*perTenant+i, i, key)
		}
	}
	wg.Wait()
	byCfg := map[int]string{}
	for slot, r := range results {
		if r.err != nil {
			t.Fatalf("client %d: %v", slot, r.err)
		}
		if r.payload == "" || !strings.HasPrefix(r.payload, "{") {
			t.Fatalf("client %d: no result payload", slot)
		}
		i := (slot % perTenant) % 4
		if prev, ok := byCfg[i]; ok && prev != r.payload {
			t.Errorf("identical configs saw different bytes (config %d)", i)
		}
		byCfg[i] = r.payload
	}

	// A wrong key must bounce with the 401 envelope.
	bad := &client.Client{BaseURL: base, Key: "wrong"}
	if _, err := bad.Submit(context.Background(), client.Request{Kind: "run"}, nil); err == nil {
		t.Error("wrong API key was accepted")
	} else {
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != 401 || ae.Code != "unauthorized" {
			t.Errorf("wrong key error = %v, want 401 unauthorized envelope", err)
		}
	}

	// Tenants are isolated: alpha's listing never shows beta's jobs.
	alpha := &client.Client{BaseURL: base, Key: "ka"}
	jobs, err := alpha.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != perTenant {
		t.Errorf("alpha sees %d jobs, want its own %d", len(jobs), perTenant)
	}
	for _, j := range jobs {
		if j.Tenant != "alpha" {
			t.Errorf("alpha's listing leaked job %s of tenant %q", j.Job, j.Tenant)
		}
	}

	// Graceful drain: SIGTERM, then the process must refuse new work,
	// report its cache statistics and exit zero.
	if err := proc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	tail := proc.waitExit(t, 30*time.Second)
	if !strings.Contains(tail, "cache:") || !strings.Contains(tail, "drained cleanly") {
		t.Errorf("drain log incomplete:\n%s", tail)
	}
}

// TestIntegrationKillRestartResume is the durability acceptance test at
// process level: start the binary with a job store, SIGKILL it mid-sweep
// (no drain, no checkpoint flush), restart it on the same store directory,
// and require (a) the job to resume and complete, and (b) the stream
// stitched from the pre-kill tail plus a post-restart
// GET /v1/jobs/{id}/stream?offset=N resume to be byte-identical to an
// uninterrupted replay of the full stream. Run under -race in CI.
func TestIntegrationKillRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildServeBin(t, dir)
	storeDir := filepath.Join(dir, "jobs")

	proc1 := startProc(t, bin, "-addr", "127.0.0.1:0", "-workers", "2", "-store", storeDir)
	cl1 := &client.Client{BaseURL: "http://" + proc1.addr}

	// A sweep long enough to be mid-flight when the SIGKILL lands: tiny
	// replications, many of them.
	req := client.Request{
		Kind: "sweep",
		Reps: 160,
		Config: []byte(`{"Seed":3,"HighwayLengthM":4000,"Vehicles":30,` +
			`"AttackerCluster":2,"DataPackets":5,"MaxSimTime":45000000000,"CryptoScheme":"placeholder"}`),
	}

	var mu sync.Mutex
	var stitched []string
	var jobID string
	sawProgress := make(chan struct{})
	var once sync.Once
	submitDone := make(chan error, 1)
	go func() {
		_, err := cl1.Submit(context.Background(), req, func(line []byte) {
			mu.Lock()
			stitched = append(stitched, string(line))
			n := len(stitched)
			mu.Unlock()
			if n == 1 {
				var l client.Line
				if json.Unmarshal(line, &l) == nil {
					mu.Lock()
					jobID = l.Job
					mu.Unlock()
				}
			}
			if n >= 10 { // accepted + enough progress to prove mid-flight
				once.Do(func() { close(sawProgress) })
			}
		})
		submitDone <- err
	}()

	select {
	case <-sawProgress:
	case err := <-submitDone:
		t.Fatalf("sweep finished before the kill (raise reps): %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("no progress within 60s")
	}

	// SIGKILL: no drain, no deferred cleanup, the journal is whatever the
	// page cache holds.
	if err := proc1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := <-submitDone; err == nil {
		t.Fatal("submit stream survived a SIGKILL")
	}
	_, _ = proc1.cmd.Process.Wait()

	mu.Lock()
	preKill := len(stitched)
	id := jobID
	mu.Unlock()
	if id == "" {
		t.Fatal("no job ID captured before the kill")
	}

	// Restart on the same store: recovery must resume the job. Resume the
	// stream exactly where the torn connection left off.
	proc2 := startProc(t, bin, "-addr", "127.0.0.1:0", "-workers", "2", "-store", storeDir)
	cl2 := &client.Client{BaseURL: "http://" + proc2.addr}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := cl2.StreamResume(ctx, id, preKill, func(line []byte) {
		mu.Lock()
		stitched = append(stitched, string(line))
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("resumed stream: %v", err)
	}
	if len(res.Payload) == 0 {
		t.Fatal("resumed stream ended without a payload")
	}

	// The stitched stream must equal an uninterrupted full replay.
	var full []string
	if _, err := cl2.Stream(ctx, id, 0, func(line []byte) {
		full = append(full, string(line))
	}); err != nil {
		t.Fatalf("full replay: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(full) != len(stitched) {
		t.Fatalf("stitched stream has %d lines, full replay %d (kill at %d)",
			len(stitched), len(full), preKill)
	}
	for i := range full {
		if full[i] != stitched[i] {
			t.Fatalf("line %d differs after restart:\nstitched: %s\nfull:     %s", i, stitched[i], full[i])
		}
	}
	if len(full) != req.Reps+3 {
		t.Errorf("journal has %d lines, want %d (accepted + reps + result + payload)", len(full), req.Reps+3)
	}

	// And the job's recorded state is terminal Done with the same payload.
	view, err := cl2.Get(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != "done" || string(view.Result) != string(res.Payload) {
		t.Errorf("recovered job: status %q, payload match = %v", view.Status, string(view.Result) == string(res.Payload))
	}
}

// TestIntegrationBadNestedConfigKeepsServing posts configs whose nested
// fields are out of range or no longer exist, or whose world is too big to
// build, to the real binary, with a durable store: each must bounce with
// the 400 envelope naming the field, and the process must still answer
// /v1/healthz and run a valid job.
func TestIntegrationBadNestedConfigKeepsServing(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildServeBin(t, dir)
	proc := startProc(t, bin, "-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "jobs"))
	base := "http://" + proc.addr
	cl := &client.Client{BaseURL: base}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const world = `"Seed":7,"HighwayLengthM":4000,"Vehicles":30,"AttackerCluster":2,"DataPackets":5,"CryptoScheme":"placeholder"`
	for _, bad := range []struct{ field, cfg string }{
		{"Head.FogNodes", `{` + world + `,"Head":{"FogNodes":-5}}`},
		{"Head.AuthProcessing", `{` + world + `,"Head":{"AuthProcessing":-1}}`},
		{"Vehicle.DReqRetries", `{` + world + `,"Vehicle":{"Verify":true,"DReqRetries":-2}}`},
		{"Router", `{` + world + `,"Vehicle":{"Router":{"TTL":2}}}`},
		{"Vehicles", `{"Vehicles":4611686018427387904}`},
		{"HighwayLengthM", `{"HighwayLengthM":1e12}`},
		{"ClusterLengthM", `{"ClusterLengthM":0.001}`},
		{"HighwayLengthM", `{"Topology":"multi","HighwayCount":64,"HighwayLengthM":1e9}`},
	} {
		field, cfg := bad.field, bad.cfg
		_, err := cl.Submit(ctx, client.Request{Kind: "run", Config: []byte(cfg)}, nil)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != 400 || ae.Code != "bad_request" || !strings.Contains(ae.Message, field) {
			t.Errorf("%s: err = %v, want the 400 bad_request envelope naming it", field, err)
		}
		if !client.Probe(ctx, nil, base) {
			t.Fatalf("after the bad %s request /v1/healthz does not answer", field)
		}
	}
	res, err := cl.Submit(ctx, client.Request{Kind: "run", Config: []byte(`{` + world + `}`)}, nil)
	if err != nil || len(res.Payload) == 0 {
		t.Fatalf("valid run after the bad requests: %v", err)
	}
}
