package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"blackdp/internal/serve"
	"blackdp/serve/client"
)

// TestClientAgainstServe drives the typed client against a real in-process
// server: submit, cache-hit replay, Get, List, Cancel-after-done.
func TestClientAgainstServe(t *testing.T) {
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &client.Client{BaseURL: ts.URL}
	ctx := context.Background()

	req := client.Request{Kind: "run", Config: []byte(
		`{"Seed":3,"HighwayLengthM":4000,"Vehicles":30,"AttackerCluster":2,"DataPackets":5,"MaxSimTime":45000000000,"CryptoScheme":"placeholder"}`)}

	var lines int
	first, err := cl.Submit(ctx, req, func([]byte) { lines++ })
	if err != nil {
		t.Fatal(err)
	}
	if first.Job == "" || first.Cache != "miss" || len(first.Payload) == 0 {
		t.Fatalf("first submit: job %q cache %q payload %d bytes", first.Job, first.Cache, len(first.Payload))
	}
	if lines != first.Offset || lines < 3 {
		t.Errorf("onRaw saw %d lines, Offset reports %d", lines, first.Offset)
	}

	second, err := cl.Submit(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" || string(second.Payload) != string(first.Payload) {
		t.Errorf("replay: cache %q, byte-identical %v", second.Cache, string(second.Payload) == string(first.Payload))
	}

	view, err := cl.Get(ctx, first.Job)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != "done" || string(view.Result) != string(first.Payload) {
		t.Errorf("Get: status %q, result matches payload %v", view.Status, string(view.Result) == string(first.Payload))
	}

	jobs, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Errorf("List returned %d jobs, want 2", len(jobs))
	}

	// Cancelling a finished job surfaces the 409 envelope.
	err = cl.Cancel(ctx, first.Job)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict || ae.Code != "already_finished" {
		t.Errorf("Cancel of a done job = %v, want 409 already_finished", err)
	}
	// And a missing job the 404 envelope.
	if _, err := cl.Get(ctx, "j-404404"); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Errorf("Get of a missing job = %v, want 404", err)
	}
}

// fakeStream writes journal lines [from:] to w as NDJSON.
func fakeStream(w http.ResponseWriter, journal []string, from int) {
	for _, l := range journal[from:] {
		fmt.Fprintln(w, l)
	}
}

// testJournal is a minimal well-formed durable stream: accepted, two
// progress lines, result marker, payload.
var testJournal = []string{
	`{"type":"accepted","job":"j-1","key":"k","cache":"miss"}`,
	`{"type":"progress","job":"j-1","rep":0,"done":1,"total":2}`,
	`{"type":"progress","job":"j-1","rep":1,"done":2,"total":2}`,
	`{"type":"result","job":"j-1","cache":"miss"}`,
	`{"outcomes":[],"summary":{}}`,
}

// TestSubmitRetriesBackpressure pins the retry loop: 429 envelopes are
// retried (honoring a zero hint with the default back-off) until the
// submission is admitted; MaxRetries -1 surfaces the rejection as data.
func TestSubmitRetriesBackpressure(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Authorization"); got != "Bearer sesame" {
			t.Errorf("Authorization = %q", got)
		}
		if posts.Add(1) <= 2 {
			serve.WriteError(w, http.StatusTooManyRequests, "queue_full", "try later", 0)
			return
		}
		fakeStream(w, testJournal, 0)
	}))
	defer ts.Close()

	cl := &client.Client{BaseURL: ts.URL, Key: "sesame"}
	res, err := cl.Submit(context.Background(), client.Request{Kind: "sweep", Reps: 2}, nil)
	if err != nil {
		t.Fatalf("submit with retries: %v", err)
	}
	if posts.Load() != 3 {
		t.Errorf("server saw %d posts, want 3 (two rejections + one success)", posts.Load())
	}
	if res.Job != "j-1" || res.Cache != "miss" || string(res.Payload) != testJournal[4] {
		t.Errorf("result = %+v", res)
	}

	// A measuring client (MaxRetries -1) must see the raw rejection.
	posts.Store(0)
	noRetry := &client.Client{BaseURL: ts.URL, Key: "sesame", MaxRetries: -1}
	_, err = noRetry.Submit(context.Background(), client.Request{Kind: "sweep", Reps: 2}, nil)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != "queue_full" {
		t.Errorf("no-retry submit = %v, want the 429 queue_full envelope", err)
	}
	if !ae.Backpressure() {
		t.Error("429 must classify as backpressure")
	}
	if posts.Load() != 1 {
		t.Errorf("no-retry client posted %d times, want 1", posts.Load())
	}
}

// TestStreamResumeStitchesInterruptedStream cuts the stream connection
// mid-journal: StreamResume must re-request at the exact next offset and
// deliver every line once, in order, byte-exact.
func TestStreamResumeStitchesInterruptedStream(t *testing.T) {
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		offset, _ := strconv.Atoi(r.URL.Query().Get("offset"))
		if requests.Add(1) == 1 {
			// First tail: two lines, then the connection dies.
			fakeStream(w, testJournal[:offset+2], offset)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		fakeStream(w, testJournal, offset)
	}))
	defer ts.Close()

	cl := &client.Client{BaseURL: ts.URL}
	var got []string
	res, err := cl.StreamResume(context.Background(), "j-1", 0, func(line []byte) {
		got = append(got, string(line))
	})
	if err != nil {
		t.Fatalf("StreamResume: %v", err)
	}
	if requests.Load() != 2 {
		t.Errorf("server saw %d stream requests, want 2", requests.Load())
	}
	if len(got) != len(testJournal) {
		t.Fatalf("stitched %d lines, want %d: %v", len(got), len(testJournal), got)
	}
	for i := range testJournal {
		if got[i] != testJournal[i] {
			t.Errorf("line %d = %s, want %s", i, got[i], testJournal[i])
		}
	}
	if res.Offset != len(testJournal) || string(res.Payload) != testJournal[4] {
		t.Errorf("final result = %+v", res)
	}
}

// TestJobErrorLine pins the terminal-error contract: a stream ending in an
// error line is a *JobError — the job failed, not the transport — so
// StreamResume must NOT retry it.
func TestJobErrorLine(t *testing.T) {
	failing := []string{
		`{"type":"accepted","job":"j-9","key":"k","cache":"miss"}`,
		`{"type":"error","job":"j-9","error":"canceled by client"}`,
	}
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		fakeStream(w, failing, 0)
	}))
	defer ts.Close()

	cl := &client.Client{BaseURL: ts.URL}
	_, err := cl.Submit(context.Background(), client.Request{Kind: "sweep", Reps: 2}, nil)
	var je *client.JobError
	if !errors.As(err, &je) || je.Job != "j-9" || !strings.Contains(je.Message, "canceled") {
		t.Errorf("Submit of a failing job = %v, want *JobError for j-9", err)
	}
	if _, err := cl.StreamResume(context.Background(), "j-9", 0, nil); !errors.As(err, &je) {
		t.Errorf("StreamResume of a failed job = %v, want *JobError", err)
	}
	if requests.Load() != 2 {
		t.Errorf("server saw %d requests, want 2 — a JobError must not be retried", requests.Load())
	}
}
