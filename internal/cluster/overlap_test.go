package cluster

import (
	"testing"
	"time"

	"blackdp/internal/mobility"
	"blackdp/internal/wire"
)

func TestClientJoinsFromOverlapZone(t *testing.T) {
	// A vehicle at a cluster boundary is within radio range of two heads;
	// its join request is marked Overlapped and broadcast, and exactly the
	// covering head admits it.
	ch := newClientHarness(t, 1001, 20, mobility.Eastbound)
	ch.client.Start()
	ch.sched.RunFor(time.Second)

	if ch.client.Cluster() != 2 {
		t.Fatalf("joined cluster %d, want 2 (position 1001 m)", ch.client.Cluster())
	}
	if ch.heads[1].IsMember(21) {
		t.Error("non-covering head admitted the vehicle")
	}
	if !ch.heads[2].IsMember(21) {
		t.Error("covering head did not admit the vehicle")
	}
	// Both heads saw the broadcast; head 1 must have rejected it.
	if ch.heads[1].Stats().RejectedJoins == 0 {
		t.Error("non-covering head never saw (and rejected) the overlapped join")
	}
}

func TestOverlappedFlagSetAtBoundary(t *testing.T) {
	hw := testHighway(t)
	// x=1000 is equidistant (500 m) from the heads of clusters 1 and 2.
	if len(hw.ClustersInRange(1000, 1000)) < 2 {
		t.Fatal("boundary not an overlap zone")
	}
	// Deep inside a cluster only one head is reachable.
	if len(hw.ClustersInRange(450, 1000)) > 1 {
		t.Error("cluster interior flagged as overlap zone")
	}
}

func TestClientTraversesWholeHighway(t *testing.T) {
	// A fast vehicle crossing many clusters re-registers at every boundary
	// and ends registered where it stands.
	ch := newClientHarness(t, 100, 25, mobility.Eastbound)
	ch.client.Start()
	ch.sched.RunFor(200 * time.Second) // 100 + 5000 m -> cluster 6

	wantCluster := wire.ClusterID(ch.mobile.ClusterAt(ch.sched.Now()))
	if ch.client.Cluster() != wantCluster {
		t.Errorf("registered in cluster %d, physically in %d", ch.client.Cluster(), wantCluster)
	}
	st := ch.client.Stats()
	if st.Leaves < 4 {
		t.Errorf("only %d leaves after crossing ~5 boundaries", st.Leaves)
	}
	if st.Joins != st.Leaves+1 {
		t.Errorf("joins (%d) != leaves (%d) + 1", st.Joins, st.Leaves)
	}
	// Every head it passed keeps a history record.
	for c := wire.ClusterID(1); c < wantCluster; c++ {
		if !ch.heads[c].InHistory(21) {
			t.Errorf("head %d lost the traversal history", c)
		}
	}
}

func TestClientLeavesHighwayCleanly(t *testing.T) {
	// A westbound vehicle exits at x=0: it sends its final Leave and never
	// rejoins.
	ch := newClientHarness(t, 300, 25, mobility.Westbound)
	ch.client.Start()
	ch.sched.RunFor(30 * time.Second) // exits at t=12s
	if ch.client.Cluster() != 0 {
		t.Errorf("registered in cluster %d after leaving the highway", ch.client.Cluster())
	}
	if ch.heads[1].IsMember(21) {
		t.Error("departed vehicle still a member")
	}
}
