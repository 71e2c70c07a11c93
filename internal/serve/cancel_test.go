package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func del(t *testing.T, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		buf.WriteString(sc.Text())
	}
	return resp.StatusCode, buf.String()
}

func TestCancelUnknownJobIs404(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := del(t, ts.URL+"/v1/jobs/nope")
	if code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
	var env APIError
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Code != "not_found" {
		t.Errorf("envelope = %q (err %v), want code not_found", body, err)
	}
}

func TestCancelFinishedJobIs409(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _, lines := post(t, ts, runBody(3))
	var accepted struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &accepted); err != nil || accepted.Job == "" {
		t.Fatalf("no job id in %q", lines[0])
	}
	code, body := del(t, ts.URL+"/v1/jobs/"+accepted.Job)
	if code != http.StatusConflict {
		t.Fatalf("status %d, want 409", code)
	}
	var env APIError
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Code != "already_finished" {
		t.Errorf("envelope = %q (err %v), want code already_finished", body, err)
	}
}

// TestCancelRunningSweepStopsWork cancels a long local sweep mid-flight and
// requires the job stream to terminate with a canceled marker and the
// server's worker pool to come back to idle — no goroutine keeps
// simulating a job nobody is waiting for.
func TestCancelRunningSweepStopsWork(t *testing.T) {
	s := mustNew(t, Config{SweepWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()

	accepted, done := postAsync(ts.URL, sweepBody(1, 500))
	var id string
	select {
	case line := <-accepted:
		id = acceptedJob(t, line)
	case <-time.After(10 * time.Second):
		t.Fatal("no accepted line within 10s")
	}
	// Let a few replications land so the cancel interrupts real work.
	time.Sleep(50 * time.Millisecond)

	code, body := del(t, ts.URL+"/v1/jobs/"+id)
	if code != http.StatusAccepted {
		t.Fatalf("DELETE status %d (%s), want 202", code, body)
	}
	if !strings.Contains(body, `"canceling"`) {
		t.Errorf("DELETE body %q lacks canceling status", body)
	}

	var lines []string
	select {
	case lines = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("job stream did not terminate after cancel")
	}
	tail := strings.Join(lines, "\n")
	if !strings.Contains(tail, "canceled") && !strings.Contains(tail, "context canceled") {
		t.Errorf("canceled job stream has no cancel marker:\n%s", tail)
	}

	// A second cancel races the terminal state: either the job is already
	// finished (409) or the cancel is still applying (202); both are fine,
	// anything else is not.
	if code, _ := del(t, ts.URL+"/v1/jobs/"+id); code != http.StatusConflict && code != http.StatusAccepted {
		t.Errorf("second DELETE status %d, want 409 or 202", code)
	}

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+8 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines did not drain after cancel: before=%d now=%d", before, runtime.NumGoroutine())
}
