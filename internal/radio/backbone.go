package radio

import (
	"fmt"
	"time"

	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// Backbone is the wired infrastructure network: RSUs "connect to each other
// via high speed links to form sequential static clusters" (paper SIII-A),
// and Trusted Authority nodes hang off it. Delivery is reliable; latency is
// per-hop along the chain, so adjacent cluster heads talk faster than
// distant ones.
type Backbone struct {
	sched      sim.Runtime
	hopLatency time.Duration
	endpoints  map[wire.NodeID]*BackboneEndpoint
	downLinks  map[int]bool // severed chain links, by lower chain position
	stats      liveStats
}

// BackboneReceiver handles backbone messages.
type BackboneReceiver func(from wire.NodeID, payload []byte)

// BackboneEndpoint is one infrastructure node's port on the backbone.
type BackboneEndpoint struct {
	bb   *Backbone
	id   wire.NodeID
	hop  int
	recv BackboneReceiver
	down bool
}

// NewBackbone creates a wired backbone with the given per-hop latency
// (latency between chain positions i and j is |i-j| * hopLatency, minimum
// one hop). In a sharded run every backbone endpoint (cluster heads, TAs)
// lives on the anchor shard, so the backbone takes a single runtime.
func NewBackbone(sched sim.Runtime, hopLatency time.Duration) *Backbone {
	if sched == nil {
		panic("radio: NewBackbone requires a scheduler")
	}
	if hopLatency < 0 {
		panic("radio: negative backbone latency")
	}
	return &Backbone{
		sched:      sched,
		hopLatency: hopLatency,
		endpoints:  make(map[wire.NodeID]*BackboneEndpoint),
	}
}

// Attach adds an infrastructure node at chain position hop (cluster index
// for RSUs; TAs use the position of the RSU they co-locate with).
func (b *Backbone) Attach(id wire.NodeID, hop int, recv BackboneReceiver) (*BackboneEndpoint, error) {
	if recv == nil {
		return nil, fmt.Errorf("radio: backbone Attach(%v) requires a receiver", id)
	}
	if id == wire.Broadcast {
		return nil, fmt.Errorf("radio: backbone cannot attach the broadcast NodeID")
	}
	if _, dup := b.endpoints[id]; dup {
		return nil, fmt.Errorf("radio: backbone endpoint %v already attached", id)
	}
	ep := &BackboneEndpoint{bb: b, id: id, hop: hop, recv: recv}
	b.endpoints[id] = ep
	return ep, nil
}

// Stats returns a snapshot of backbone counters.
func (b *Backbone) Stats() Stats {
	var out Stats
	b.stats.foldInto(&out)
	return out
}

// CutLink severs the chain link between positions hop and hop+1. Sends whose
// path crosses a severed link fail immediately, as over a broken fibre.
func (b *Backbone) CutLink(hop int) {
	if b.downLinks == nil {
		b.downLinks = make(map[int]bool)
	}
	b.downLinks[hop] = true
}

// HealLink restores a link severed by CutLink. Healing an intact link is a
// no-op.
func (b *Backbone) HealLink(hop int) { delete(b.downLinks, hop) }

// pathBlocked reports whether any severed link lies between chain positions
// a and b. Co-located endpoints (a == b) share a switch and cross no chain
// link.
func (b *Backbone) pathBlocked(x, y int) bool {
	if len(b.downLinks) == 0 {
		return false
	}
	if x > y {
		x, y = y, x
	}
	for hop := x; hop < y; hop++ {
		if b.downLinks[hop] {
			return true
		}
	}
	return false
}

// NodeID returns the endpoint's identity.
func (ep *BackboneEndpoint) NodeID() wire.NodeID { return ep.id }

// SetDown takes the endpoint's backbone port offline (true) or back online
// (false). A down endpoint cannot send, and frames arriving at it are lost.
func (ep *BackboneEndpoint) SetDown(down bool) { ep.down = down }

// Down reports whether the endpoint's port is offline.
func (ep *BackboneEndpoint) Down() bool { return ep.down }

// Send delivers payload to endpoint to after the chain latency. It returns
// an error if the destination is not attached; wired infrastructure knows
// its peers, so a missing one is a configuration bug worth surfacing.
func (ep *BackboneEndpoint) Send(to wire.NodeID, payload []byte) error {
	b := ep.bb
	if ep.down {
		return fmt.Errorf("radio: backbone endpoint %v is down", ep.id)
	}
	dst, ok := b.endpoints[to]
	if !ok {
		return fmt.Errorf("radio: backbone destination %v not attached", to)
	}
	if dst.down {
		return fmt.Errorf("radio: backbone destination %v is down", to)
	}
	if b.pathBlocked(ep.hop, dst.hop) {
		return fmt.Errorf("radio: backbone path %v -> %v crosses a severed link", ep.id, to)
	}
	hops := dst.hop - ep.hop
	if hops < 0 {
		hops = -hops
	}
	if hops == 0 {
		hops = 1 // co-located nodes still cross one link
	}
	b.stats.sent.count(payload, len(payload))
	b.stats.offered.count(payload, len(payload))
	b.stats.inFlight++
	from := ep.id
	b.sched.After(time.Duration(hops)*b.hopLatency, func() {
		b.stats.inFlight--
		if dst.down {
			b.stats.lost.count(payload, len(payload))
			return
		}
		b.stats.delivered.count(payload, len(payload))
		dst.recv(from, payload)
	})
	return nil
}
