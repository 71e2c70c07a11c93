// Package cluster implements the paper's static highway clustering: Road
// Side Units acting as cluster heads (membership tables, join/leave
// handling, history tables, blacklist dissemination) and the vehicle-side
// membership client that joins the cluster covering its position and
// re-registers as it crosses cluster boundaries.
package cluster

import (
	"fmt"

	"blackdp/internal/wire"
)

// Directory is the provisioned map of the infrastructure: which head serves
// each cluster and which Trusted Authority serves each head. RSUs are
// deployed at fixed positions by the road operator, so every infrastructure
// node knows this layout a priori; vehicles learn head identities from join
// replies.
type Directory struct {
	heads       map[wire.ClusterID]wire.NodeID
	clusters    map[wire.NodeID]wire.ClusterID
	authorities map[wire.ClusterID]wire.NodeID // cluster -> TA node id
	taIDs       map[wire.NodeID]wire.AuthorityID
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		heads:       make(map[wire.ClusterID]wire.NodeID),
		clusters:    make(map[wire.NodeID]wire.ClusterID),
		authorities: make(map[wire.ClusterID]wire.NodeID),
		taIDs:       make(map[wire.NodeID]wire.AuthorityID),
	}
}

// AddHead registers the head node serving a cluster.
func (d *Directory) AddHead(c wire.ClusterID, head wire.NodeID) error {
	if c == 0 || head == wire.Broadcast {
		return fmt.Errorf("cluster: invalid head registration (%v, %v)", c, head)
	}
	if existing, ok := d.heads[c]; ok && existing != head {
		return fmt.Errorf("cluster: cluster %d already served by %v", c, existing)
	}
	d.heads[c] = head
	d.clusters[head] = c
	return nil
}

// AddAuthority registers the TA node (with its authority id) responsible
// for a cluster.
func (d *Directory) AddAuthority(c wire.ClusterID, node wire.NodeID, id wire.AuthorityID) error {
	if c == 0 || node == wire.Broadcast || id == 0 {
		return fmt.Errorf("cluster: invalid authority registration (%v, %v, %v)", c, node, id)
	}
	d.authorities[c] = node
	d.taIDs[node] = id
	return nil
}

// HeadOf returns the head node serving cluster c.
func (d *Directory) HeadOf(c wire.ClusterID) (wire.NodeID, bool) {
	h, ok := d.heads[c]
	return h, ok
}

// ClusterOf returns the cluster served by head node id.
func (d *Directory) ClusterOf(head wire.NodeID) (wire.ClusterID, bool) {
	c, ok := d.clusters[head]
	return c, ok
}

// AuthorityOf returns the TA node responsible for cluster c.
func (d *Directory) AuthorityOf(c wire.ClusterID) (wire.NodeID, bool) {
	a, ok := d.authorities[c]
	return a, ok
}

// IsHead reports whether id is a registered cluster head.
func (d *Directory) IsHead(id wire.NodeID) bool {
	_, ok := d.clusters[id]
	return ok
}

// Heads returns the number of registered heads.
func (d *Directory) Heads() int { return len(d.heads) }

// AuthorityNodes returns every distinct TA node in the directory.
func (d *Directory) AuthorityNodes() []wire.NodeID {
	out := make([]wire.NodeID, 0, len(d.taIDs))
	for n := range d.taIDs {
		out = append(out, n)
	}
	return out
}
