//go:build linux

package serve

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// TestFileStoreHoldsNoDescriptors runs jobs through a durable server and
// counts the process's open descriptors: a finished job's journals hold
// none, so descriptors stay bounded however many jobs the server retains.
func TestFileStoreHoldsNoDescriptors(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := mustNew(t, Config{Store: fs}).Handler()
	submit := func(body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
		if !strings.Contains(rec.Body.String(), `"outcomes"`) {
			t.Fatalf("job failed: %d\n%s", rec.Code, rec.Body.String())
		}
	}
	openFDs := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot list /proc/self/fd: %v", err)
		}
		return len(entries)
	}
	submit(runBody(1)) // warm-up: the runtime opens its poller on first file use
	before := openFDs()
	submit(sweepBody(2, 3))
	submit(`{"kind":"run","trace":true,"config":` + tinyWorld(3) + `}`)
	for deadline := time.Now().Add(2 * time.Second); openFDs() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("open descriptors grew from %d to %d across finished jobs", before, openFDs())
		}
	}
}
