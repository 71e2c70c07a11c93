package trace

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Kind: BaitRREQ1, Node: 1, Suspect: 66, Peer: 66, Dest: 9, Seq: 4})
	r.Record(Event{At: time.Second, Kind: Isolated, Node: 2, Suspect: 66, Count: 3})

	evs := r.Snapshot().Events
	if len(evs) != 2 {
		t.Fatalf("recorded %d events, want 2", len(evs))
	}
	if evs[0].At != 0 || evs[0].Node != 1 || evs[0].Kind.Category() != CatDetect ||
		evs[0].text() != "probe stage 1 -> n66 (fake dest n9, demand seq 4)" {
		t.Errorf("event 0 = %+v (%q)", evs[0], evs[0].text())
	}
	if evs[1].At != time.Second || evs[1].Kind.Category() != CatIsolate || evs[1].text() != "isolated n66 (serial 3)" {
		t.Errorf("event 1 = %+v (%q)", evs[1], evs[1].text())
	}
}

// TestEveryKindRenders holds every kind to a description of its own that
// names only Event fields, every category to a kind, and an error to follow
// the description.
func TestEveryKindRenders(t *testing.T) {
	seen := make(map[string]Kind)
	for k := Verified; k < NumKinds; k++ {
		text := Event{Kind: k, Suspect: 5}.text()
		if strings.HasPrefix(text, "Kind(") || strings.ContainsAny(text, "{}") {
			t.Errorf("kind %d has no description, or names no Event field: %q", k, text)
		}
		if prev, dup := seen[text]; dup {
			t.Errorf("kinds %d and %d read the same: %q", prev, k, text)
		}
		seen[text] = k
	}
	cats := map[Category]bool{}
	for k := Verified; k < NumKinds; k++ {
		cats[k.Category()] = true
	}
	if len(cats) != 5 {
		t.Errorf("kinds span %d categories, want all 5", len(cats))
	}
	got := Event{Kind: RenewalRefused, Peer: 3, Err: errors.New("paused")}.text()
	if got != "renewal denied for n3: paused" {
		t.Errorf("error rendering = %q", got)
	}
}

func TestRecorderCapacityEvictsOldest(t *testing.T) {
	// Past capacity the recorder keeps the newest three, oldest first,
	// however many times its ring has wrapped.
	r := &Recorder{cap: 3}
	for i := 0; i < 11; i++ {
		r.Record(Event{Kind: DReqForwarded, Node: wire.NodeID(i)})
		snap := r.Snapshot()
		var want []wire.NodeID
		for n := max(0, i-2); n <= i; n++ {
			want = append(want, wire.NodeID(n))
		}
		var got []wire.NodeID
		for _, e := range snap.Events {
			got = append(got, e.Node)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("after %d events retained %v, want %v", i+1, got, want)
		}
		if wantDropped := uint64(max(0, i-2)); snap.Dropped != wantDropped {
			t.Fatalf("after %d events Dropped = %d, want %d", i+1, snap.Dropped, wantDropped)
		}
	}
}

func TestRecorderFilter(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Kind: Examining, Node: 1})
	r.Record(Event{Kind: DReqForwarded, Node: 2})
	r.Record(Event{Kind: Isolated, Node: 1})
	log := r.Snapshot()

	if got := log.Filter(1); len(got) != 2 {
		t.Errorf("Filter(node 1) = %d events, want 2", len(got))
	}
	if got := log.Filter(wire.Broadcast, CatDetect); len(got) != 2 {
		t.Errorf("Filter(detect) = %d events, want 2", len(got))
	}
	if got := log.Filter(1, CatIsolate); len(got) != 1 || got[0].Kind != Isolated {
		t.Errorf("Filter(1, isolate) = %+v", got)
	}
	if got := log.Filter(wire.Broadcast, CatIsolate, CatDetect); len(got) != 3 {
		t.Errorf("Filter(isolate, detect) = %d events, want 3", len(got))
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: Examining, Node: 1}) // must not panic
	if snap := r.Snapshot(); snap.Events != nil || snap.Dropped != 0 {
		t.Error("nil recorder not inert")
	}
}

// TestNilRecorderRecordAllocs pins tracing off as free: recording into a
// nil recorder allocates nothing, errors included.
func TestNilRecorderRecordAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race runtime inflates allocation counts")
	}
	var r *Recorder
	ev := Event{Kind: HandoffRetry, Node: 1, Suspect: 2, Peer: 3, Count: 1, Delay: time.Second, Err: errors.New("down")}
	if n := testing.AllocsPerRun(100, func() { r.Record(ev) }); n != 0 {
		t.Errorf("nil Record: %v allocs, want 0", n)
	}
}

func TestDump(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{At: 1500 * time.Microsecond, Kind: RouteProbeLost, Node: 7, Dest: 8})
	var sb strings.Builder
	if err := r.Snapshot().Dump(&sb); err != nil {
		t.Fatal(err)
	}
	want := "       1.5ms  n7         verify    probe to n8 unanswered; re-discovering\n"
	if sb.String() != want {
		t.Errorf("dump = %q, want %q", sb.String(), want)
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	r := &Recorder{cap: 2}
	r.Record(Event{Kind: Examining, Node: 1})
	r.Record(Event{Kind: Isolated, Node: 2})
	snap := r.Snapshot()

	// Later recording must not leak into an earlier snapshot.
	r.Record(Event{Kind: DReqForwarded, Node: 3})
	r.Record(Event{Kind: DReqForwarded, Node: 4})
	if len(snap.Events) != 2 || snap.Events[0].Node != 1 || snap.Dropped != 0 {
		t.Fatalf("snapshot changed after recording: %+v", snap)
	}
	if later := r.Snapshot(); later.Dropped != 2 || len(later.Events) != 2 {
		t.Fatalf("later snapshot = %d events, %d dropped; want 2, 2", len(later.Events), later.Dropped)
	}

	if got := snap.Filter(wire.Broadcast, CatIsolate); len(got) != 1 || got[0].Node != 2 {
		t.Errorf("Log.Filter(isolate) = %+v", got)
	}
	if got := snap.Filter(1); len(got) != 1 || got[0].Kind != Examining {
		t.Errorf("Log.Filter(node 1) = %+v", got)
	}
}

func TestNilRecorderSnapshot(t *testing.T) {
	var r *Recorder
	snap := r.Snapshot()
	if len(snap.Events) != 0 || snap.Dropped != 0 {
		t.Fatalf("nil recorder snapshot = %+v", snap)
	}
	var sb strings.Builder
	if err := snap.Dump(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("zero log dump = %q, %v", sb.String(), err)
	}
}

func TestLogDumpNotesEvictions(t *testing.T) {
	r := &Recorder{cap: 1}
	r.Record(Event{Kind: Examining, Node: 1, Suspect: 5})
	r.Record(Event{Kind: Examining, Node: 1, Suspect: 6})
	var sb strings.Builder
	if err := r.Snapshot().Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1 earlier events evicted") {
		t.Errorf("dump does not note evictions: %q", sb.String())
	}
	if !strings.Contains(sb.String(), "examining suspect n6") {
		t.Errorf("dump missing retained event: %q", sb.String())
	}
}

func TestEventsCopyIsolated(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Kind: Examining, Node: 1})
	evs := r.Snapshot().Events
	evs[0].Node = 99
	if r.Snapshot().Events[0].Node != 1 {
		t.Error("Snapshot exposes internal storage")
	}
}
