// Package aodv implements the Ad hoc On-Demand Distance Vector protocol the
// paper's network runs: reactive route discovery by RREQ flooding, RREP
// replies from the destination or from intermediates with fresh cached
// routes, sequence-number freshness, periodic Hello beacons with neighbour
// timeout, RERR propagation on link breaks, and hop-by-hop forwarding of
// data and of BlackDP's end-to-end Hello probes.
//
// The router is deliberately policy-free about security: route replies it
// originates are passed through a pluggable Sealer (the BlackDP agent seals
// them into signed envelopes), and every RREP candidate collected during
// discovery is surfaced with its envelope so the agent layer can
// authenticate issuers. Attack behaviours are implemented outside the
// router, by intercepting frames before they reach it (see package attack).
package aodv

import (
	"time"

	"blackdp/internal/wire"
)

// Protocol timers, scaled for the paper's highway scenario (1000 m range,
// sub-second end-to-end paths). The paper names none; like RFC 3561's, they
// are fixed protocol constants, not per-run settings.
const (
	// helloInterval is the period of neighbour beacons.
	helloInterval = 2 * time.Second
	// helloJitter is the maximum random offset added to each beacon to
	// desynchronise neighbours.
	helloJitter = 200 * time.Millisecond
	// neighborTimeout is how long after the last frame from a neighbour the
	// link is declared broken.
	neighborTimeout = 5 * time.Second
	// RouteLifetime is the validity of a route entry from its last use or
	// refresh.
	RouteLifetime = 10 * time.Second
	// replyWait is the window after originating a RREQ during which route
	// replies are collected before the best is chosen (the paper's source
	// stores all RREPs in its route cache and picks the freshest).
	replyWait = 750 * time.Millisecond
	// retries is how many times a discovery re-floods after an empty
	// replyWait window before reporting failure.
	retries = 2
	// defaultTTL is the initial time-to-live of flooded RREQs; WithTTL
	// overrides it per discovery.
	defaultTTL = 16
	// forwardJitter is the maximum random delay before rebroadcasting a
	// RREQ, standing in for CSMA contention and suppressing collisions.
	forwardJitter = 10 * time.Millisecond
	// floodCacheTTL is how long (origin, flood-id) pairs are remembered for
	// duplicate suppression.
	floodCacheTTL = 5 * time.Second
	// maintenanceInterval is the period of the background sweep that prunes
	// expired routes, neighbours and flood-cache entries.
	maintenanceInterval = time.Second
)

// Link is the router's transmit port; *radio.Interface satisfies it.
type Link interface {
	// Send transmits a marshalled packet to the pseudonym to
	// (wire.Broadcast for all neighbours). The result is link-layer
	// acknowledgement: false means the unicast certainly failed, which the
	// router treats as a broken link. Broadcasts always report true.
	Send(to wire.NodeID, payload []byte) bool
	// NodeID returns the device's current pseudonym.
	NodeID() wire.NodeID
}

// Sealer converts an originated control packet into its on-air payload. The
// default marshals the packet bare; the BlackDP agent substitutes one that
// wraps packets in signed envelopes.
type Sealer func(p wire.Packet) ([]byte, error)

// Candidate is one route reply collected during discovery, with enough
// context for the agent layer to authenticate it.
type Candidate struct {
	RREP     wire.RREP
	Envelope *wire.Secure // nil when the reply arrived unsigned
	From     wire.NodeID  // neighbour that delivered the reply
	At       time.Duration
}

// DiscoverResult reports the outcome of a route discovery.
type DiscoverResult struct {
	Dest       wire.NodeID
	Candidates []Candidate // every reply collected, arrival order
	Best       *Candidate  // freshest candidate (highest seq, then fewest hops), nil if none
	Attempts   int         // flood rounds used
}

// Callbacks are the router's upcalls into the owning agent. All fields are
// optional.
//
// Packet pointers handed to callbacks are only valid for the duration of the
// call: hot receive paths decode into reused scratch records. Callbacks that
// need a packet later must copy the value.
type Callbacks struct {
	// DataReceived fires when a Data packet addressed to this node arrives.
	DataReceived func(d *wire.Data, from wire.NodeID)
	// HelloProbe fires when an end-to-end Hello probe addressed to this
	// node arrives (request or reply). The agent owns answering probes —
	// BlackDP requires replies to be authenticated, which needs the agent's
	// credential. env is non-nil when the probe arrived sealed.
	HelloProbe func(h *wire.Hello, env *wire.Secure, from wire.NodeID)
	// RouteBroken fires when a previously valid route is invalidated.
	RouteBroken func(dest wire.NodeID)
	// ReplyObserved fires for every route reply addressed to this node,
	// including replies outside any discovery window.
	ReplyObserved func(c Candidate)
	// Cluster reports the node's current cluster registration, stamped into
	// route replies the router originates (paper SIII-A: packets carry the
	// sender's cluster-head association). Nil or 0 means unregistered.
	Cluster func() wire.ClusterID
	// AcceptReply gates route installation from a received reply. The
	// BlackDP layer wires it to the blacklist so isolated attackers cannot
	// re-enter the forwarding table; rejected replies are still surfaced to
	// discovery callbacks (for accounting) but never installed or relayed.
	// Nil accepts everything.
	AcceptReply func(rep *wire.RREP, from wire.NodeID) bool
}

// Stats counts router activity, exposed for tests and experiment reports.
type Stats struct {
	RREQOriginated uint64
	RREQForwarded  uint64
	RREPOriginated uint64
	RREPForwarded  uint64
	RERRSent       uint64
	DataOriginated uint64
	DataForwarded  uint64
	DataDelivered  uint64
	DataDropped    uint64 // undeliverable at an intermediate (no route)
	ProbeForwarded uint64
	BeaconsSent    uint64
}
