package serve

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// storeFuzzIDs are the job ids FuzzFileStoreLoad writes: two j-<n> names
// whose numeric and lexical orders differ, and two names outside the
// j-<n> scheme that share sequence 0. storeFuzzOrder is Load's order.
var (
	storeFuzzIDs   = []string{"j-10", "j-2", "zeta", "alpha"}
	storeFuzzOrder = []string{"alpha", "zeta", "j-2", "j-10"}
)

// TestFileStoreLoadOrder pins Load's order: every name outside the j-<n>
// scheme (sequence 0) first and by name, then j-<n> ids by n. The store is
// large enough that an order by sequence alone leaves the ties unordered.
func TestFileStoreLoadOrder(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var other, numbered []string
	for i := 0; i < 24; i++ {
		other = append(other, fmt.Sprintf("job-%02d", i))
		numbered = append(numbered, fmt.Sprintf("j-%d", i+1))
	}
	for _, id := range append(append([]string(nil), other...), numbered...) {
		if err := fs.PutSpec(StoredSpec{ID: id, Kind: "sweep", Reps: 1, Config: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range jobs {
		got = append(got, j.Spec.ID)
	}
	if want := append(other, numbered...); !reflect.DeepEqual(got, want) {
		t.Fatalf("Load order %v, want %v", got, want)
	}
}

// FuzzFileStoreLoad writes fuzzed bytes as the spec, stream and outcomes
// files of a few jobs — garbage, torn tails, missing final newlines, empty
// files — and holds Load to its recovery contract: it never panics; when it
// succeeds, every journal on disk is exactly the lines it returned, each
// newline-terminated; and a second Load returns the same result.
func FuzzFileStoreLoad(f *testing.F) {
	valid := func(id string) []byte {
		return []byte(`{"id":"` + id + `","kind":"sweep","tenant":"t","reps":2,"config":{"Seed":1}}`)
	}
	f.Add(valid("j-1"), []byte("{\"type\":\"accepted\"}\n{\"type\":\"prog"), []byte("{}\n{}\n"), uint8(0xf0))
	f.Add([]byte("{"), []byte(""), []byte("\n\n"), uint8(0x01))
	f.Add(valid("j-1"), []byte("no newline"), []byte("x\ny"), uint8(0xff))
	f.Add([]byte("null"), []byte("\n"), []byte(""), uint8(0x3c))
	f.Fuzz(func(t *testing.T, spec, stream, outcomes []byte, mask uint8) {
		fs, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range storeFuzzIDs {
			// Bit i: this job's spec is the fuzzed bytes, not a valid one.
			// Bit 4+i: it has journals, cut to a job-specific prefix so
			// the jobs see different tails.
			b := valid(id)
			if mask&(1<<i) != 0 {
				b = spec
			}
			write(t, fs.path(id, "spec.json"), b)
			if mask&(1<<(4+i)) != 0 {
				write(t, fs.path(id, "stream.ndjson"), stream[:len(stream)*(i+1)/len(storeFuzzIDs)])
				write(t, fs.path(id, "outcomes.ndjson"), outcomes[:len(outcomes)*(len(storeFuzzIDs)-i)/len(storeFuzzIDs)])
			}
		}
		first, err1 := fs.Load()
		if err1 == nil {
			if len(first) != len(storeFuzzOrder) {
				t.Fatalf("Load returned %d jobs, want %d", len(first), len(storeFuzzOrder))
			}
			for k, id := range storeFuzzOrder {
				checkJournal(t, fs.path(id, "stream.ndjson"), first[k].Stream)
				checkJournal(t, fs.path(id, "outcomes.ndjson"), first[k].Outcomes)
			}
		}
		second, err2 := fs.Load()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Load errors differ: %v, then %v", err1, err2)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("second Load returned other jobs:\n first  %+v\n second %+v", first, second)
		}
	})
}

func write(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkJournal holds a loaded journal to its file: the file must be exactly
// the returned lines, each newline-terminated, or absent with no lines.
func checkJournal(t *testing.T, path string, lines [][]byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if len(lines) != 0 {
			t.Fatalf("%s: missing, but Load returned %d lines", path, len(lines))
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, l := range lines {
		if bytes.IndexByte(l, '\n') >= 0 {
			t.Fatalf("%s: returned line %q holds a newline", path, l)
		}
		want = append(append(want, l...), '\n')
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("%s: file %q after Load, want the %d returned lines %q", path, b, len(lines), want)
	}
}
