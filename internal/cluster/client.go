package cluster

import (
	"time"

	"blackdp/internal/mobility"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// ClientCallbacks are upcalls from the membership client.
type ClientCallbacks struct {
	// Joined fires when a join reply admits the vehicle to a cluster.
	Joined func(c wire.ClusterID, head wire.NodeID)
	// BlacklistUpdated fires when a blacklist notice adds new entries.
	BlacklistUpdated func(added []wire.RevokedCert)
}

// Client is the vehicle-side membership state machine: it registers with
// the cluster head covering its position, re-registers as the vehicle
// crosses cluster boundaries (Leave + JoinReq, per the paper), and tracks
// the blacklist its heads advertise.
type Client struct {
	sched   sim.Runtime
	topo    mobility.Topology
	mobile  *mobility.Mobile
	send    Sender
	self    func() wire.NodeID // current pseudonym (rotates on renewal)
	txRange float64
	cb      ClientCallbacks

	cluster   wire.ClusterID
	head      wire.NodeID
	blacklist map[wire.NodeID]wire.RevokedCert

	unanswered int  // consecutive join broadcasts without a reply
	failover   bool // soliciting adjacent heads because ours stopped answering

	retryTimer    sim.Timer
	boundaryTimer sim.Timer
	stopped       bool
	stats         ClientStats

	// Reusable timer callbacks: built once so rescheduling join retries and
	// boundary crossings does not allocate a method value per event.
	requestJoinFn   func()
	crossBoundaryFn func()
}

// ClientStats counts membership client activity.
type ClientStats struct {
	JoinRequests  uint64
	Joins         uint64
	Leaves        uint64
	FailoverJoins uint64 // joins completed under the failover flag
}

// joinRetry is how long the client waits for a join reply before
// rebroadcasting its request.
const joinRetry = time.Second

// failoverAfter is how many consecutive unanswered join broadcasts make the
// client solicit adjacent heads: the covering head is presumed dead.
const failoverAfter = 3

// NewClient creates a membership client for a vehicle moving as mobile on
// topo, transmitting with send and identifying itself with self().
func NewClient(sched sim.Runtime, topo mobility.Topology, mobile *mobility.Mobile, txRange float64, send Sender, self func() wire.NodeID, cb ClientCallbacks) *Client {
	if sched == nil || topo == nil || mobile == nil || send == nil || self == nil {
		panic("cluster: NewClient requires scheduler, topology, mobile, sender and identity")
	}
	c := &Client{
		sched:     sched,
		topo:      topo,
		mobile:    mobile,
		send:      send,
		self:      self,
		txRange:   txRange,
		cb:        cb,
		blacklist: make(map[wire.NodeID]wire.RevokedCert),
	}
	c.requestJoinFn = c.requestJoin
	c.crossBoundaryFn = c.crossBoundary
	return c
}

// Start broadcasts the initial join request.
func (c *Client) Start() { c.requestJoin() }

// Stop cancels timers; the client ignores further packets.
func (c *Client) Stop() {
	c.stopped = true
	c.retryTimer.Stop()
	c.boundaryTimer.Stop()
}

// Cluster returns the cluster the vehicle is registered in (0 before the
// first join completes).
func (c *Client) Cluster() wire.ClusterID { return c.cluster }

// Head returns the registered cluster head's pseudonym.
func (c *Client) Head() wire.NodeID { return c.head }

// Stats returns a snapshot of activity counters.
func (c *Client) Stats() ClientStats { return c.stats }

// IsBlacklisted reports whether the pseudonym is on the blacklist the
// vehicle has learned from its heads.
func (c *Client) IsBlacklisted(id wire.NodeID) bool {
	_, ok := c.blacklist[id]
	return ok
}

// BlacklistSize returns the number of revocations known to the vehicle.
func (c *Client) BlacklistSize() int { return len(c.blacklist) }

func (c *Client) requestJoin() {
	if c.stopped {
		return
	}
	now := c.sched.Now()
	pos, on := c.mobile.Locate(now)
	if !on {
		return
	}
	if c.unanswered >= failoverAfter {
		// The covering head never answered; start soliciting neighbours.
		c.failover = true
	}
	req := &wire.JoinReq{
		Vehicle:    c.self(),
		PosX:       pos.X,
		PosY:       pos.Y,
		SpeedMS:    c.mobile.Speed(),
		Eastbound:  c.mobile.Direction() == mobility.Eastbound,
		Overlapped: len(c.topo.ClustersNear(pos, c.txRange)) > 1,
		Failover:   c.failover,
	}
	b, err := req.MarshalBinary()
	if err != nil {
		panic("cluster: marshalling JoinReq: " + err.Error())
	}
	c.send(wire.Broadcast, b)
	c.stats.JoinRequests++
	c.unanswered++
	c.retryTimer.Stop()
	c.retryTimer = c.sched.After(joinRetry, c.requestJoinFn)
}

// Rejoin deregisters and immediately solicits a new head with the failover
// flag raised: the vehicle's detection layer calls it when the registered
// head has stopped answering, so adjacent heads may admit the vehicle even
// though its position is outside their segment.
func (c *Client) Rejoin() {
	if c.stopped {
		return
	}
	c.cluster = 0
	c.head = wire.Broadcast
	c.failover = true
	c.requestJoin()
}

// HandlePacket processes membership packets addressed to this vehicle,
// reporting whether the packet was one it owns.
func (c *Client) HandlePacket(p wire.Packet, from wire.NodeID) bool {
	if c.stopped {
		return false
	}
	switch pkt := p.(type) {
	case *wire.JoinRep:
		if pkt.Vehicle != c.self() {
			return true // overheard someone else's admission
		}
		if c.cluster != 0 && pkt.Head != c.head {
			// Already registered; a late admission from a second head (two
			// neighbours both answered a failover broadcast) must not
			// flip-flop the registration.
			return true
		}
		c.retryTimer.Stop()
		if c.failover {
			c.stats.FailoverJoins++
		}
		c.unanswered = 0
		c.failover = false
		c.cluster = pkt.Cluster
		c.head = pkt.Head
		c.stats.Joins++
		c.scheduleBoundaryCrossing()
		if c.cb.Joined != nil {
			c.cb.Joined(pkt.Cluster, pkt.Head)
		}
		return true
	case *wire.BlacklistNotice:
		var added []wire.RevokedCert
		for _, rc := range pkt.Revoked {
			if _, known := c.blacklist[rc.Node]; !known {
				c.blacklist[rc.Node] = rc
				added = append(added, rc)
			}
		}
		if len(added) > 0 && c.cb.BlacklistUpdated != nil {
			c.cb.BlacklistUpdated(added)
		}
		return true
	default:
		return false
	}
}

// scheduleBoundaryCrossing arms a timer for the moment the vehicle exits
// its current cluster, at which point it sends Leave plus a fresh JoinReq.
func (c *Client) scheduleBoundaryCrossing() {
	c.boundaryTimer.Stop()
	rect := c.topo.ClusterRect(int(c.cluster))
	lo, hi := rect.X0, rect.X1
	if c.mobile.Axis() == mobility.AxisY {
		lo, hi = rect.Y0, rect.Y1
	}
	edge := hi
	if c.mobile.Direction() == mobility.Westbound {
		edge = lo
	}
	at, ok := c.mobile.TimeToReach(edge)
	if !ok {
		return // stationary or already exited
	}
	const nudge = 50 * time.Millisecond
	if wlo, whi := c.mobile.TravelBounds(); edge <= wlo || edge >= whi {
		// The boundary is the end of the road: deregister just before
		// driving out of radio coverage.
		at -= nudge
	} else {
		// Cross strictly past the boundary so the next head accepts the
		// reported position.
		at += nudge
	}
	if at < c.sched.Now() {
		at = c.sched.Now()
	}
	c.boundaryTimer = c.sched.At(at, c.crossBoundaryFn)
}

func (c *Client) crossBoundary() {
	if c.stopped {
		return
	}
	now := c.sched.Now()
	leave := &wire.Leave{Vehicle: c.self(), Cluster: c.cluster}
	b, err := leave.MarshalBinary()
	if err != nil {
		panic("cluster: marshalling Leave: " + err.Error())
	}
	c.send(c.head, b)
	c.stats.Leaves++
	c.cluster = 0
	c.head = wire.Broadcast
	if dep, ok := c.mobile.DepartureTime(); ok && dep <= now+time.Second {
		return // driving off the highway; stay deregistered
	}
	if _, on := c.mobile.Locate(now); on {
		c.requestJoin()
	}
}
