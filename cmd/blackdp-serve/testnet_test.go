package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testnetProc is one real blackdp-serve process of the localhost testnet (a
// worker or the coordinator) with its parsed listen address.
type testnetProc struct {
	cmd      *exec.Cmd
	addr     string
	scanDone chan struct{} // closed when the stdout drain goroutine hits EOF

	mu  sync.Mutex
	out strings.Builder // stdout after the handshake line
}

// waitExit waits for the process to exit (within d) and returns everything
// it printed after the startup handshake. The stdout drain is awaited
// before cmd.Wait so the exiting process's final lines are never lost to
// Wait closing the pipe.
func (p *testnetProc) waitExit(t *testing.T, d time.Duration) string {
	t.Helper()
	select {
	case <-p.scanDone:
	case <-time.After(d):
		t.Errorf("process did not exit within %v", d)
		_ = p.cmd.Process.Kill()
		<-p.scanDone
	}
	if err := p.cmd.Wait(); err != nil {
		t.Errorf("process exit: %v", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

func startProc(t *testing.T, bin string, args ...string) *testnetProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })

	// Scan for the "listening on" handshake — a fleet-configured serve
	// announces its fleet before its address.
	sc := bufio.NewScanner(stdout)
	var addrLine string
	for sc.Scan() {
		if strings.Contains(sc.Text(), "listening on") {
			addrLine = sc.Text()
			break
		}
	}
	if addrLine == "" {
		t.Fatalf("%s: no listening line: %v", filepath.Base(bin), sc.Err())
	}
	p := &testnetProc{cmd: cmd, scanDone: make(chan struct{}),
		addr: addrLine[strings.LastIndex(addrLine, " ")+1:]}
	go func() { // keep the pipe drained so the process never blocks on it
		defer close(p.scanDone)
		for sc.Scan() {
			p.mu.Lock()
			p.out.WriteString(sc.Text())
			p.out.WriteByte('\n')
			p.mu.Unlock()
		}
	}()
	return p
}

// sweepPayload submits a sweep and returns the final NDJSON payload line,
// invoking onProgress for every progress line as the stream arrives.
func sweepPayload(t *testing.T, base, body string, onProgress func(n int)) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	var last string
	progress := 0
	for sc.Scan() {
		last = sc.Text()
		if strings.Contains(last, `"type":"progress"`) {
			progress++
			if onProgress != nil {
				onProgress(progress)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading job stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, last)
	}
	if !strings.HasPrefix(last, "{") || !strings.Contains(last, `"outcomes"`) {
		t.Fatalf("no result payload, last line: %s", last)
	}
	return last
}

// TestTestnetKillWorkerMidSweep is the process-level acceptance harness:
// build the binary, stand up a coordinator over three blackdp-serve worker
// processes plus a fleetless baseline server, SIGKILL one worker while the
// distributed sweep is streaming, and require the surviving fleet to
// deliver the baseline's exact bytes.
func TestTestnetKillWorkerMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("testnet builds and runs the binaries")
	}
	serveBin := buildServeBin(t, t.TempDir())

	var workers []*testnetProc
	var urls []string
	for i := 0; i < 3; i++ {
		w := startProc(t, serveBin, "-addr", "127.0.0.1:0")
		workers = append(workers, w)
		urls = append(urls, "http://"+w.addr)
	}
	coord := startProc(t, serveBin,
		"-addr", "127.0.0.1:0", "-fleet", strings.Join(urls, ","), "-chunk-reps", "3")
	baseline := startProc(t, serveBin, "-addr", "127.0.0.1:0")

	body := `{"kind":"sweep","reps":60,"config":{"Seed":5,"HighwayLengthM":4000,"Vehicles":30,"AttackerCluster":2,"DataPackets":5,"MaxSimTime":45000000000,"RealCrypto":false}}`
	want := sweepPayload(t, "http://"+baseline.addr, body, nil)

	// SIGKILL the first worker as soon as the distributed stream proves the
	// sweep is in flight: its chunks die with it and must be reassigned.
	var once sync.Once
	got := sweepPayload(t, "http://"+coord.addr, body, func(n int) {
		if n >= 3 {
			once.Do(func() { _ = workers[0].cmd.Process.Kill() })
		}
	})
	if got != want {
		t.Errorf("distributed payload after worker kill is not byte-identical to the baseline\n got: %.120s\nwant: %.120s", got, want)
	}

	// The fabric gauges must reflect the loss: 3 known, at most 2 live once
	// the health loop has noticed the corpse.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + coord.addr + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		out := string(b)
		if !strings.Contains(out, "blackdp_dist_workers_known 3") {
			t.Fatalf("metrics missing known-workers gauge:\n%s", out)
		}
		if strings.Contains(out, "blackdp_dist_workers_live 2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health loop never noticed the killed worker:\n%s", out)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// A cached replay must not depend on the dead worker either.
	if again := sweepPayload(t, "http://"+coord.addr, body, nil); again != want {
		t.Error("replay after the kill diverged from the baseline")
	}

	// Surviving workers report fabric work on their own metrics pages.
	reps := 0
	for _, w := range workers[1:] {
		resp, err := http.Get("http://" + w.addr + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var n int
		for _, line := range strings.Split(string(b), "\n") {
			if _, err := fmt.Sscanf(line, "blackdp_serve_reps_completed_total %d", &n); err == nil {
				reps += n
			}
		}
	}
	if reps < 30 {
		t.Errorf("surviving workers completed only %d reps of 60 — reassignment looks broken", reps)
	}
}
