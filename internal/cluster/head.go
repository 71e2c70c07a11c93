package cluster

import (
	"slices"
	"time"

	"blackdp/internal/mobility"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// Member is one vehicle registered with a cluster head.
type Member struct {
	Node     wire.NodeID
	Joined   time.Duration
	LastPos  mobility.Position
	SpeedMS  float64
	East     bool
	LastSeen time.Duration
}

// Sender transmits a marshalled packet over the head's radio;
// *radio.Interface's Send method satisfies it.
type Sender func(to wire.NodeID, payload []byte)

// HeadCallbacks are upcalls from membership handling.
type HeadCallbacks struct {
	// MemberJoined fires after a join reply is sent.
	MemberJoined func(m Member)
	// MemberLeft fires when a member leaves (explicitly or pruned).
	MemberLeft func(node wire.NodeID)
}

// Head is the membership state machine of one RSU cluster head: the routing
// (member) table, the history table of departed members, and the blacklist
// of revoked certificates it must keep advertising until they expire.
type Head struct {
	id      wire.NodeID
	cluster wire.ClusterID
	topo    mobility.Topology
	sched   sim.Runtime
	send    Sender
	cb      HeadCallbacks

	members    map[wire.NodeID]*Member
	history    map[wire.NodeID]Member
	blacklist  map[uint64]wire.RevokedCert // by certificate serial
	blackIDs   map[wire.NodeID]uint64      // pseudonym -> serial
	blackOrder []uint64                    // serials in revocation order, for deterministic notices

	// memberTTL prunes members that silently left (fled the highway).
	memberTTL time.Duration
	stats     HeadStats
}

// HeadStats counts membership activity.
type HeadStats struct {
	Joins            uint64
	Rejoins          uint64
	Leaves           uint64
	RejectedJoins    uint64
	FailoverJoins    uint64 // out-of-segment vehicles admitted under the failover flag
	BlacklistNotices uint64
	Pruned           uint64
}

// NewHead creates the head for cluster c of topo, transmitting with send.
func NewHead(id wire.NodeID, c wire.ClusterID, topo mobility.Topology, sched sim.Runtime, send Sender, cb HeadCallbacks) *Head {
	if id == wire.Broadcast || c == 0 || topo == nil || sched == nil || send == nil {
		panic("cluster: NewHead requires id, cluster, topology, scheduler and sender")
	}
	return &Head{
		id:        id,
		cluster:   c,
		topo:      topo,
		sched:     sched,
		send:      send,
		cb:        cb,
		members:   make(map[wire.NodeID]*Member),
		history:   make(map[wire.NodeID]Member),
		blacklist: make(map[uint64]wire.RevokedCert),
		blackIDs:  make(map[wire.NodeID]uint64),
		memberTTL: 30 * time.Second,
	}
}

// ID returns the head's pseudonym.
func (h *Head) ID() wire.NodeID { return h.id }

// Cluster returns the cluster the head serves.
func (h *Head) Cluster() wire.ClusterID { return h.cluster }

// Stats returns a snapshot of membership counters.
func (h *Head) Stats() HeadStats { return h.stats }

// HandlePacket processes membership packets, reporting whether the packet
// was one it owns. Unhandled kinds belong to other layers.
func (h *Head) HandlePacket(p wire.Packet, from wire.NodeID) bool {
	switch pkt := p.(type) {
	case *wire.JoinReq:
		h.handleJoin(pkt)
		return true
	case *wire.Leave:
		h.handleLeave(pkt)
		return true
	default:
		return false
	}
}

func (h *Head) handleJoin(p *wire.JoinReq) {
	pos := mobility.Position{X: p.PosX, Y: p.PosY}
	// Accept only vehicles whose reported position falls in this head's
	// segment; in an overlapped zone several heads hear the broadcast and
	// exactly the covering one accepts (paper SIII-A). A failover join — the
	// vehicle's own head stopped answering — may be admitted by a head one
	// segment over, so detection service survives a crashed RSU.
	seg := h.topo.ClusterOf(pos)
	if seg != int(h.cluster) {
		adjacent := h.topo.Adjacent(seg, int(h.cluster))
		if !p.Failover || !adjacent {
			h.stats.RejectedJoins++
			return
		}
		h.stats.FailoverJoins++
	}
	now := h.sched.Now()
	if m, ok := h.members[p.Vehicle]; ok {
		m.LastPos = pos
		m.SpeedMS = p.SpeedMS
		m.East = p.Eastbound
		m.LastSeen = now
		h.stats.Rejoins++
	} else {
		h.members[p.Vehicle] = &Member{
			Node:     p.Vehicle,
			Joined:   now,
			LastPos:  pos,
			SpeedMS:  p.SpeedMS,
			East:     p.Eastbound,
			LastSeen: now,
		}
		h.stats.Joins++
	}
	rep := &wire.JoinRep{Head: h.id, Cluster: h.cluster, Vehicle: p.Vehicle}
	b, err := rep.MarshalBinary()
	if err != nil {
		panic("cluster: marshalling JoinRep: " + err.Error())
	}
	h.send(p.Vehicle, b)
	// Newly joined vehicles must learn the live blacklist immediately so
	// they neither route via attackers nor file redundant reports.
	h.sendBlacklistTo(p.Vehicle)
	if h.cb.MemberJoined != nil {
		h.cb.MemberJoined(*h.members[p.Vehicle])
	}
}

func (h *Head) handleLeave(p *wire.Leave) {
	m, ok := h.members[p.Vehicle]
	if !ok {
		return
	}
	delete(h.members, p.Vehicle)
	h.history[p.Vehicle] = *m
	h.stats.Leaves++
	if h.cb.MemberLeft != nil {
		h.cb.MemberLeft(p.Vehicle)
	}
}

// IsMember reports whether the pseudonym is currently registered here.
func (h *Head) IsMember(id wire.NodeID) bool {
	_, ok := h.members[id]
	return ok
}

// MemberCount returns the number of registered members.
func (h *Head) MemberCount() int { return len(h.members) }

// Member returns the registration record for id.
func (h *Head) Member(id wire.NodeID) (Member, bool) {
	m, ok := h.members[id]
	if !ok {
		return Member{}, false
	}
	return *m, true
}

// InHistory reports whether the pseudonym recently left this cluster.
func (h *Head) InHistory(id wire.NodeID) bool {
	_, ok := h.history[id]
	return ok
}

// HistoryRecord returns the departed member's last known record.
func (h *Head) HistoryRecord(id wire.NodeID) (Member, bool) {
	m, ok := h.history[id]
	return m, ok
}

// Touch refreshes a member's liveness (any packet heard from it).
func (h *Head) Touch(id wire.NodeID) {
	if m, ok := h.members[id]; ok {
		m.LastSeen = h.sched.Now()
	}
}

// AddRevoked records a revoked certificate and broadcasts the updated
// blacklist to the cluster (the paper's "report the existing and
// newly-joined vehicles about the recent revoked certificate").
func (h *Head) AddRevoked(rc wire.RevokedCert) {
	if _, known := h.blacklist[rc.CertSerial]; known {
		return
	}
	h.blacklist[rc.CertSerial] = rc
	h.blackIDs[rc.Node] = rc.CertSerial
	h.blackOrder = append(h.blackOrder, rc.CertSerial)
	// The attacker is no longer a legitimate member.
	if _, ok := h.members[rc.Node]; ok {
		delete(h.members, rc.Node)
		if h.cb.MemberLeft != nil {
			h.cb.MemberLeft(rc.Node)
		}
	}
	h.sendBlacklistTo(wire.Broadcast)
}

// IsBlacklisted reports whether the pseudonym has a live revocation record
// here.
func (h *Head) IsBlacklisted(id wire.NodeID) bool {
	_, ok := h.blackIDs[id]
	return ok
}

// BlacklistSize returns the number of live revocation records.
func (h *Head) BlacklistSize() int { return len(h.blacklist) }

// Blacklist returns the live revocation records in revocation order.
func (h *Head) Blacklist() []wire.RevokedCert {
	out := make([]wire.RevokedCert, 0, len(h.blacklist))
	for _, serial := range h.blackOrder {
		if rc, live := h.blacklist[serial]; live {
			out = append(out, rc)
		}
	}
	return out
}

func (h *Head) sendBlacklistTo(to wire.NodeID) {
	if len(h.blacklist) == 0 {
		return
	}
	// Iterate in revocation order, not map order: the notice's bytes must be
	// identical across runs for replay determinism.
	notice := &wire.BlacklistNotice{Head: h.id, Cluster: h.cluster, Revoked: h.Blacklist()}
	b, err := notice.MarshalBinary()
	if err != nil {
		panic("cluster: marshalling BlacklistNotice: " + err.Error())
	}
	h.send(to, b)
	h.stats.BlacklistNotices++
}

// Prune drops silent members to history, expired history records, and
// expired blacklist entries ("remove them once they expired to avoid
// reporting expired information and reduce storage overhead").
func (h *Head) Prune() {
	now := h.sched.Now()
	var silent []wire.NodeID
	for id, m := range h.members {
		if now-m.LastSeen >= h.memberTTL {
			silent = append(silent, id)
		}
	}
	// Retire in ascending ID order, not map order: MemberLeft reaches the
	// protocol layer, which must see the same sequence on every replay.
	slices.Sort(silent)
	for _, id := range silent {
		h.history[id] = *h.members[id]
		delete(h.members, id)
		h.stats.Pruned++
		if h.cb.MemberLeft != nil {
			h.cb.MemberLeft(id)
		}
	}
	expiredBlack := false
	for serial, rc := range h.blacklist {
		if rc.Expiry <= now {
			delete(h.blacklist, serial)
			delete(h.blackIDs, rc.Node)
			expiredBlack = true
		}
	}
	if expiredBlack {
		live := h.blackOrder[:0]
		for _, serial := range h.blackOrder {
			if _, ok := h.blacklist[serial]; ok {
				live = append(live, serial)
			}
		}
		h.blackOrder = live
	}
	for id, m := range h.history {
		if now-m.LastSeen >= 10*h.memberTTL {
			delete(h.history, id)
		}
	}
}
