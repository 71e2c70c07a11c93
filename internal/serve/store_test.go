package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFileStoreTruncatesTornTrailingLine pins the crash-recovery contract
// of the on-disk journals: a trailing line without its newline (a write
// torn by a machine-level crash) is detected on Load, truncated off the
// file, and later appends continue from the last complete line.
func TestFileStoreTruncatesTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := StoredSpec{ID: "j-1", Kind: "sweep", Tenant: "default", Reps: 4,
		Config: json.RawMessage(`{"Seed":1}`)}
	if err := fs.PutSpec(spec); err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{`{"type":"accepted","job":"j-1"}`, `{"type":"progress","rep":0}`} {
		if err := fs.AppendStream("j-1", []byte(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.AppendOutcomes("j-1", [][]byte{[]byte(`{"Delivered":1}`)}); err != nil {
		t.Fatal(err)
	}

	// Tear both journals: a partial line with no newline at the tail.
	for _, name := range []string{"j-1.stream.ndjson", "j-1.outcomes.ndjson"} {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"torn":tr`); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := fs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	j := jobs[0]
	if j.Spec.ID != "j-1" || j.Spec.Reps != 4 || j.Spec.Tenant != "default" {
		t.Errorf("recovered spec = %+v", j.Spec)
	}
	if len(j.Stream) != 2 || len(j.Outcomes) != 1 {
		t.Fatalf("recovered %d stream / %d outcome lines, want 2 / 1 (torn tails dropped)",
			len(j.Stream), len(j.Outcomes))
	}
	if string(j.Stream[1]) != `{"type":"progress","rep":0}` {
		t.Errorf("last surviving stream line = %s", j.Stream[1])
	}

	// The truncation is physical: a post-recovery append lands on its own
	// line, not glued onto the torn fragment.
	if err := fs2.AppendStream("j-1", []byte(`{"type":"progress","rep":1}`)); err != nil {
		t.Fatal(err)
	}
	fs3, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err = fs3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(jobs[0].Stream); n != 3 {
		t.Fatalf("journal has %d lines after post-recovery append, want 3", n)
	}
	if string(jobs[0].Stream[2]) != `{"type":"progress","rep":1}` {
		t.Errorf("appended line corrupted: %s", jobs[0].Stream[2])
	}

	// Remove drops all three artifacts.
	if err := fs3.Remove("j-1"); err != nil {
		t.Fatal(err)
	}
	if jobs, err = fs3.Load(); err != nil || len(jobs) != 0 {
		t.Errorf("after Remove: %d jobs, err %v", len(jobs), err)
	}
}

// tailStream scans one GET /v1/jobs/{id}/stream?offset=N response to its
// end and returns the raw lines.
func tailStream(t *testing.T, base, id string, offset int) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream?offset=" + strconv.Itoa(offset))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestDurableSweepResumesAfterDrainByteIdentical is the in-process half of
// the durability story: a sweep interrupted by Drain leaves a resumable
// journal; a second server on the same directory finishes the job, and the
// complete stream — prefix seen before the interruption plus the
// re-tailed remainder — is byte-identical to what an uninterrupted server
// produces.
func TestDurableSweepResumesAfterDrainByteIdentical(t *testing.T) {
	dir := t.TempDir()
	const reps = 24

	// The uninterrupted reference: a plain in-memory server.
	ref := mustNew(t, Config{})
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	_, _, refLines := post(t, refTS, sweepBody(7, reps))
	refPayload := refLines[len(refLines)-1]

	// Server 1: durable, single slot. Submit and cut it off mid-sweep.
	fs1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := mustNew(t, Config{Workers: 1, Store: fs1})
	ts1 := httptest.NewServer(s1.Handler())

	var mu sync.Mutex
	var prefix []string
	jobID := ""
	sawSome := make(chan struct{})
	var once sync.Once
	streamEnded := make(chan struct{})
	go func() {
		defer close(streamEnded)
		resp, err := http.Post(ts1.URL+"/v1/jobs", "application/json",
			strings.NewReader(sweepBody(7, reps)))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
		for sc.Scan() {
			mu.Lock()
			prefix = append(prefix, sc.Text())
			n := len(prefix)
			if n == 1 {
				var l struct {
					Job string `json:"job"`
				}
				_ = json.Unmarshal(sc.Bytes(), &l)
				jobID = l.Job
			}
			mu.Unlock()
			if n >= 4 {
				once.Do(func() { close(sawSome) })
			}
		}
	}()
	select {
	case <-sawSome:
	case <-time.After(30 * time.Second):
		t.Fatal("no stream progress within 30s")
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if _, err := s1.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()
	<-streamEnded
	mu.Lock()
	cut := len(prefix)
	id := jobID
	mu.Unlock()
	if id == "" {
		t.Fatal("no job ID before the drain")
	}
	if cut >= reps+3 {
		t.Fatalf("stream completed (%d lines) before the drain — not an interruption", cut)
	}

	// Server 2 on the same store: recovery resumes the sweep.
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustNew(t, Config{Workers: 1, Store: fs2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	full := tailStream(t, ts2.URL, id, 0)
	if len(full) != reps+3 {
		t.Fatalf("resumed journal has %d lines, want %d (accepted + reps + result + payload)",
			len(full), reps+3)
	}
	// The interrupted prefix is a byte-exact prefix of the finished journal.
	mu.Lock()
	for i, l := range prefix {
		if full[i] != l {
			t.Fatalf("line %d rewritten across restart:\nbefore: %s\nafter:  %s", i, l, full[i])
		}
	}
	mu.Unlock()
	// And the payload matches the uninterrupted server's bytes.
	if full[len(full)-1] != refPayload {
		t.Errorf("resumed payload differs from the uninterrupted reference\n got: %.120s\nwant: %.120s",
			full[len(full)-1], refPayload)
	}

	// Offset resume: tailing from the cut stitches the remainder exactly.
	rest := tailStream(t, ts2.URL, id, cut)
	if want := len(full) - cut; len(rest) != want {
		t.Fatalf("offset=%d tail returned %d lines, want %d", cut, len(rest), want)
	}
	for i, l := range rest {
		if full[cut+i] != l {
			t.Fatalf("offset tail line %d mismatches the journal", cut+i)
		}
	}

	dctx2, dcancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel2()
	if _, err := s2.Drain(dctx2); err != nil {
		t.Fatal(err)
	}
}

// TestDurableStreamOffsetsStitch completes a durable sweep and re-tails it
// at every offset: each tail must be exactly the journal's suffix, so any
// interrupted consumer can resume wherever it stopped without ever seeing
// a duplicated or altered line.
func TestDurableStreamOffsetsStitch(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Store: fs})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const reps = 5
	_, _, lines := post(t, ts, sweepBody(11, reps))
	if len(lines) != reps+3 {
		t.Fatalf("sweep streamed %d lines, want %d", len(lines), reps+3)
	}
	var accepted struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &accepted); err != nil || accepted.Job == "" {
		t.Fatalf("no job in accepted line %q: %v", lines[0], err)
	}

	for offset := 0; offset <= len(lines); offset++ {
		tail := tailStream(t, ts.URL, accepted.Job, offset)
		if len(tail) != len(lines)-offset {
			t.Fatalf("offset %d: %d lines, want %d", offset, len(tail), len(lines)-offset)
		}
		for i, l := range tail {
			if lines[offset+i] != l {
				t.Fatalf("offset %d line %d differs from the live stream:\n got: %s\nwant: %s",
					offset, i, l, lines[offset+i])
			}
		}
	}

}

// TestRecoverFailsUndecodableSpecAlone: a stored job whose config no longer
// decodes (it names a removed field) fails alone, with one error line that
// names the field; the server still starts, resumes its other jobs and
// keeps that verdict across a further restart.
func TestRecoverFailsUndecodableSpecAlone(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []StoredSpec{
		{ID: "j-1", Kind: "run", Tenant: anonTenant, Reps: 1, Config: json.RawMessage(`{"Vehicle":{"Router":{"TTL":2}}}`)},
		{ID: "j-2", Kind: "run", Tenant: anonTenant, Reps: 1, Config: json.RawMessage(tinyWorld(5))},
	} {
		if err := fs.PutSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	for restart := 0; restart < 2; restart++ {
		s := mustNew(t, Config{Store: fs})
		ts := httptest.NewServer(s.Handler())
		bad := tailStream(t, ts.URL, "j-1", 0)
		if len(bad) != 1 || !strings.Contains(bad[0], `"type":"error"`) || !strings.Contains(bad[0], "Router") {
			t.Errorf("restart %d: undecodable job streamed %q, want one error line naming Router", restart, bad)
		}
		if code, b := get(t, ts.URL+"/v1/jobs/j-1"); code != http.StatusOK || !strings.Contains(b, `"status":"failed"`) {
			t.Errorf("restart %d: undecodable job reads %d %s, want failed", restart, code, b)
		}
		if good := tailStream(t, ts.URL, "j-2", 0); len(good) != 4 {
			t.Errorf("restart %d: recovered run streamed %d lines, want 4", restart, len(good))
		}
		ts.Close()
	}
}

// TestRetentionBoundsFileStore runs many more jobs than RetainJobs against
// a durable store, a few at a time. Evicting a finished job must remove its
// artifacts, so afterwards the directory holds files for at most RetainJobs
// jobs, the registry no more records, and the newest job is still stored.
func TestRetentionBoundsFileStore(t *testing.T) {
	const retain, clients, perClient = 4, 3, 12
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Workers: clients, RetainJobs: retain, Store: fs})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
					strings.NewReader(runBody(int64(1000+c*perClient+i))))
				if err != nil {
					t.Error(err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"type":"result"`) {
					t.Errorf("job status %d: %s", resp.StatusCode, b)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, e := range entries {
		ids[strings.SplitN(e.Name(), ".", 2)[0]] = true
	}
	if len(ids) > retain {
		t.Errorf("store holds files of %d jobs after %d jobs, want at most RetainJobs = %d: %v",
			len(ids), clients*perClient, retain, ids)
	}
	if last := fmt.Sprintf("j-%d", clients*perClient); !ids[last] {
		t.Errorf("newest job %s has no stored files: %v", last, ids)
	}
	s.jobsMu.Lock()
	registered := len(s.order)
	s.jobsMu.Unlock()
	if registered > retain {
		t.Errorf("registry holds %d jobs, want at most %d", registered, retain)
	}
}
