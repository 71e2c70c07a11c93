package serve

// Durable jobs. A JobStore persists each executed job as three
// append-only artifacts:
//
//   - the spec: the validated request (kind, config JSON, start, reps,
//     pool, trace, tenant) — everything needed to re-admit the job after a
//     restart;
//   - the stream journal: the job's NDJSON response lines, wire-exact — the
//     journal IS the canonical stream, POST responses and
//     GET /v1/jobs/{id}/stream?offset=N both replay it verbatim;
//   - the outcomes journal: one metrics.Outcome JSON line per completed
//     replication, strictly in replication order.
//
// The outcomes journal is the resume frontier: a restarted server counts
// its complete lines and continues the sweep at that replication via
// scenario.RunSweep — seeds are a pure function of the global
// replication index, so the continuation is byte-identical to the part an
// uninterrupted run would have produced. Outcome JSON round-trips exactly
// (the struct is ints, bools, strings and Durations — no floats), so the
// final result payload rebuilt from stored outcomes matches an
// uninterrupted run byte for byte.
//
// FileStore, the on-disk implementation, never rewrites: each append opens
// the journal with O_APPEND, writes once and closes, with no fsync —
// surviving SIGKILL of the process only needs the OS page cache, which
// outlives it, and no descriptor outlives the write. A line torn by a
// machine-level crash is detected on load (no trailing newline) and
// truncated away; at most one segment of replications re-executes.
//
// A server without a FileStore journals through nopStore: the job's
// liveStream and its runner's outcomes already hold the journal in memory,
// so there is nothing to persist and nothing to recover.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// StoredSpec is the durable record of an accepted job: enough to re-admit
// and re-execute it after a restart.
type StoredSpec struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	Tenant string          `json:"tenant"`
	Start  int             `json:"start,omitempty"`
	Reps   int             `json:"reps"`
	Pool   int             `json:"workers,omitempty"`
	Trace  bool            `json:"trace,omitempty"`
	Config json.RawMessage `json:"config"`
}

// StoredJob is one recovered job: its spec plus both journals' complete
// lines (torn trailing lines already truncated).
type StoredJob struct {
	Spec     StoredSpec
	Stream   [][]byte
	Outcomes [][]byte
}

// JobStore persists jobs across restarts. Implementations must be
// safe for concurrent use and must only ever append to a job's journals —
// recovery depends on prefixes staying immutable.
type JobStore interface {
	// PutSpec persists a new job's spec.
	PutSpec(spec StoredSpec) error
	// AppendStream appends one NDJSON line (no trailing newline) to the
	// job's stream journal.
	AppendStream(id string, line []byte) error
	// AppendOutcomes appends outcome JSON lines (no trailing newlines) to
	// the job's outcomes journal.
	AppendOutcomes(id string, lines [][]byte) error
	// Load recovers every stored job, truncating torn trailing lines.
	Load() ([]StoredJob, error)
	// Remove deletes a job's artifacts (retention eviction).
	Remove(id string) error
}

// nopStore is the JobStore of a server without durable storage.
type nopStore struct{}

func (nopStore) PutSpec(StoredSpec) error              { return nil }
func (nopStore) AppendStream(string, []byte) error     { return nil }
func (nopStore) AppendOutcomes(string, [][]byte) error { return nil }
func (nopStore) Load() ([]StoredJob, error)            { return nil, nil }
func (nopStore) Remove(string) error                   { return nil }

// FileStore is the on-disk JobStore: <dir>/<id>.spec.json,
// <dir>/<id>.stream.ndjson, <dir>/<id>.outcomes.ndjson.
type FileStore struct {
	dir string
}

// NewFileStore opens (creating if needed) a store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{dir: dir}, nil
}

func (fs *FileStore) path(id, suffix string) string {
	return filepath.Join(fs.dir, id+"."+suffix)
}

// PutSpec persists a new job's spec.
func (fs *FileStore) PutSpec(spec StoredSpec) error {
	b, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	return os.WriteFile(fs.path(spec.ID, "spec.json"), b, 0o644)
}

// appendLines appends lines, each newline-terminated, to one journal in a
// single O_APPEND write, so concurrent appends never interleave a line.
func (fs *FileStore) appendLines(id, suffix string, lines ...[]byte) error {
	var buf []byte
	for _, l := range lines {
		buf = append(buf, l...)
		buf = append(buf, '\n')
	}
	f, err := os.OpenFile(fs.path(id, suffix), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// AppendStream appends one stream-journal line.
func (fs *FileStore) AppendStream(id string, line []byte) error {
	return fs.appendLines(id, "stream.ndjson", line)
}

// AppendOutcomes appends outcome lines as one write.
func (fs *FileStore) AppendOutcomes(id string, lines [][]byte) error {
	return fs.appendLines(id, "outcomes.ndjson", lines...)
}

// loadLines reads a journal's complete lines; a torn trailing line (no
// newline) is truncated off the file so subsequent appends stay aligned.
func loadLines(path string) ([][]byte, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	keep := len(b)
	for keep > 0 && b[keep-1] != '\n' {
		keep--
	}
	if keep < len(b) {
		if err := os.Truncate(path, int64(keep)); err != nil {
			return nil, err
		}
		b = b[:keep]
	}
	var lines [][]byte
	for len(b) > 0 {
		nl := 0
		for nl < len(b) && b[nl] != '\n' {
			nl++
		}
		lines = append(lines, b[:nl:nl])
		b = b[nl+1:]
	}
	return lines, nil
}

// Load recovers every stored job in id order.
func (fs *FileStore) Load() ([]StoredJob, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".spec.json"); ok {
			ids = append(ids, name)
		}
	}
	// Jobs are j-<n>; recover them in submission order so the registry
	// lists them the way an uninterrupted server would. Any other name has
	// sequence 0, so the id breaks ties and the order stays total.
	slices.SortFunc(ids, func(a, b string) int {
		return cmp.Or(cmp.Compare(jobSeq(a), jobSeq(b)), strings.Compare(a, b))
	})
	jobs := make([]StoredJob, 0, len(ids))
	for _, id := range ids {
		b, err := os.ReadFile(fs.path(id, "spec.json"))
		if err != nil {
			return nil, err
		}
		var spec StoredSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return nil, fmt.Errorf("serve: store: corrupt spec %s: %w", id, err)
		}
		stream, err := loadLines(fs.path(id, "stream.ndjson"))
		if err != nil {
			return nil, err
		}
		outcomes, err := loadLines(fs.path(id, "outcomes.ndjson"))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, StoredJob{Spec: spec, Stream: stream, Outcomes: outcomes})
	}
	return jobs, nil
}

// Remove deletes a job's artifacts.
func (fs *FileStore) Remove(id string) error {
	var first error
	for _, suffix := range []string{"spec.json", "stream.ndjson", "outcomes.ndjson"} {
		if err := os.Remove(fs.path(id, suffix)); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}

// jobSeq extracts n from "j-<n>" (0 for anything else).
func jobSeq(id string) uint64 {
	s, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return n
}
