package aodv

import (
	"errors"
	"fmt"
	"slices"

	"blackdp/internal/radio"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// Router errors.
var (
	// ErrNoRoute reports a send with no valid route installed.
	ErrNoRoute = errors.New("aodv: no route to destination")
	// ErrStopped reports an operation on a stopped router.
	ErrStopped = errors.New("aodv: router stopped")
	// ErrLinkFailed reports a unicast whose link-layer acknowledgement
	// failed; the route has been invalidated.
	ErrLinkFailed = errors.New("aodv: link to next hop failed")
)

// Router is one node's AODV instance. It is single-threaded: all entry
// points must be invoked from scheduler events (the simulation's only
// execution context).
type Router struct {
	sched sim.Runtime
	rng   *sim.RNG
	link  Link
	seal  Sealer
	cb    Callbacks

	table      *table
	ownSeq     wire.SeqNum
	nextFlood  uint32
	discovery  map[wire.NodeID]*pendingDiscovery
	dataSeq    uint32
	stats      Stats
	stopped    bool
	helloTimer sim.Timer
	maintTimer sim.Timer

	// Reusable callbacks and scratch for the hot paths: the beacon and
	// maintenance closures are built once, forwarded RREQs ride pooled
	// records through AfterFunc, and the beacon packet and stale-neighbour
	// list are reused across rounds.
	helloFn      func()
	maintFn      func()
	fwdFn        func(any)
	fwdFree      []*wire.RREQ
	helloPkt     wire.Hello
	staleScratch []wire.NodeID

	// Receive-side scratch records for HandleFrame's fast paths. Safe
	// because frame handling never nests (deliveries are scheduler events)
	// and no handler or callback retains these kinds past the call.
	scratchHello wire.Hello
	scratchRREQ  wire.RREQ
	scratchRERR  wire.RERR
}

type pendingDiscovery struct {
	req        wire.RREQ
	candidates []Candidate
	attempts   int
	done       func(DiscoverResult)
	timer      sim.Timer
	wantNext   bool
	ttl        uint8
}

// New creates a router on link. seal may be nil for unsigned control
// packets; cb fields are optional.
func New(sched sim.Runtime, rng *sim.RNG, link Link, seal Sealer, cb Callbacks) *Router {
	if sched == nil || rng == nil || link == nil {
		panic("aodv: New requires scheduler, RNG and link")
	}
	if seal == nil {
		seal = func(p wire.Packet) ([]byte, error) { return p.MarshalBinary() }
	}
	r := &Router{
		sched:     sched,
		rng:       rng,
		link:      link,
		seal:      seal,
		cb:        cb,
		table:     newTable(),
		discovery: make(map[wire.NodeID]*pendingDiscovery),
	}
	r.helloFn = r.helloRound
	r.maintFn = r.maintenanceRound
	r.fwdFn = r.forwardRREQ
	return r
}

// Start begins Hello beaconing and background maintenance.
func (r *Router) Start() {
	if r.stopped {
		panic("aodv: Start after Stop")
	}
	r.scheduleHello()
	r.scheduleMaintenance()
}

// Stop cancels timers and pending discoveries; the router ignores further
// frames.
func (r *Router) Stop() {
	r.stopped = true
	r.helloTimer.Stop()
	r.maintTimer.Stop()
	for dest, d := range r.discovery {
		d.timer.Stop()
		delete(r.discovery, dest)
	}
}

// Stats returns a snapshot of activity counters.
func (r *Router) Stats() Stats { return r.stats }

// SetDataReceived replaces the data-delivery callback (the agent layer
// installs it after construction).
func (r *Router) SetDataReceived(fn func(d *wire.Data, from wire.NodeID)) {
	r.cb.DataReceived = fn
}

// SeqNum returns the node's own destination sequence number.
func (r *Router) SeqNum() wire.SeqNum { return r.ownSeq }

// RouteTo returns the current valid route to dest, if one is installed.
func (r *Router) RouteTo(dest wire.NodeID) (Route, bool) {
	return r.table.lookup(dest, r.sched.Now())
}

// Neighbors returns the pseudonyms heard from within the neighbour timeout,
// in ascending ID order.
func (r *Router) Neighbors() []wire.NodeID {
	out := make([]wire.NodeID, 0, len(r.table.neighbors))
	for n := range r.table.neighbors {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// InstallRoute force-installs a route entry; used by infrastructure nodes
// that learn member positions out of band, and by tests.
func (r *Router) InstallRoute(dest, nextHop wire.NodeID, hops uint8) {
	now := r.sched.Now()
	r.table.update(dest, nextHop, hops, 0, now, now+RouteLifetime)
}

// AdoptRoute unconditionally pins the route to dest through nextHop,
// overriding any fresher-looking entry. The BlackDP layer calls it with the
// candidate its verification accepted, so forwarding follows the
// authenticated choice rather than the rawest sequence-number race (which a
// black hole wins by construction).
func (r *Router) AdoptRoute(dest, nextHop wire.NodeID, hops uint8, seq wire.SeqNum) {
	r.table.routes[dest] = &Route{
		Dest:     dest,
		NextHop:  nextHop,
		HopCount: hops,
		Seq:      seq,
		Expiry:   r.sched.Now() + RouteLifetime,
		Valid:    true,
	}
}

// PurgeNode erases all routing state involving a node — as destination, next
// hop, or neighbour. The BlackDP layer calls it when a node lands on the
// blacklist, so no traffic keeps flowing into an isolated attacker.
func (r *Router) PurgeNode(id wire.NodeID) {
	delete(r.table.routes, id)
	for _, broken := range r.table.invalidateVia(id) {
		if r.cb.RouteBroken != nil {
			r.cb.RouteBroken(broken.Dest)
		}
	}
	delete(r.table.neighbors, id)
}

func (r *Router) scheduleHello() {
	delay := helloInterval + r.rng.Jitter(helloJitter)
	r.helloTimer = r.sched.After(delay, r.helloFn)
}

// helloRound is the reusable beacon callback: one broadcast, then reschedule.
func (r *Router) helloRound() {
	if r.stopped {
		return
	}
	// The beacon packet is reused across rounds; Origin is refreshed because
	// certificate renewal changes the node's pseudonym.
	r.helloPkt = wire.Hello{Origin: r.link.NodeID(), Dest: wire.Broadcast}
	r.sendBare(wire.Broadcast, &r.helloPkt)
	r.stats.BeaconsSent++
	r.scheduleHello()
}

func (r *Router) scheduleMaintenance() {
	r.maintTimer = r.sched.After(maintenanceInterval, r.maintFn)
}

// maintenanceRound is the reusable maintenance callback: expire silent
// neighbours, advertise the routes that died with them, prune caches, and
// reschedule.
func (r *Router) maintenanceRound() {
	if r.stopped {
		return
	}
	now := r.sched.Now()
	r.staleScratch = r.table.appendStale(r.staleScratch[:0], now, neighborTimeout)
	var unreachable []wire.UnreachableDest
	for _, n := range r.staleScratch {
		for _, broken := range r.table.invalidateVia(n) {
			unreachable = append(unreachable, wire.UnreachableDest{Node: broken.Dest, Seq: broken.Seq})
			if r.cb.RouteBroken != nil {
				r.cb.RouteBroken(broken.Dest)
			}
		}
	}
	if len(unreachable) > 0 {
		r.sendBare(wire.Broadcast, &wire.RERR{Reporter: r.link.NodeID(), Unreachable: unreachable})
		r.stats.RERRSent++
	}
	r.table.prune(now, floodCacheTTL)
	r.scheduleMaintenance()
}

// DiscoverOption tunes a single route discovery.
type DiscoverOption func(*discoverOpts)

type discoverOpts struct {
	minDestSeq wire.SeqNum
	wantNext   bool
	ttl        uint8
}

// WithMinDestSeq demands replies at least this fresh (the RREQ's DestSeq
// field). BlackDP's second-round discovery uses it to demand a sequence
// number higher than the suspicious reply's.
func WithMinDestSeq(seq wire.SeqNum) DiscoverOption {
	return func(o *discoverOpts) { o.minDestSeq = seq }
}

// WithNextHopInquiry asks repliers to name their next hop toward the
// destination (BlackDP's cooperative-attacker exposure probe).
func WithNextHopInquiry() DiscoverOption {
	return func(o *discoverOpts) { o.wantNext = true }
}

// WithTTL overrides the flood TTL, bounding how far the RREQ travels.
func WithTTL(ttl uint8) DiscoverOption {
	return func(o *discoverOpts) { o.ttl = ttl }
}

// Discover floods a route request for dest, collects replies for the
// replyWait window (re-flooding up to retries times if none arrive), then
// invokes done exactly once with everything gathered. A discovery already
// pending for the same destination is replaced (its callback fires with what
// it had).
func (r *Router) Discover(dest wire.NodeID, done func(DiscoverResult), opts ...DiscoverOption) error {
	if r.stopped {
		return ErrStopped
	}
	if done == nil {
		return errors.New("aodv: Discover requires a completion callback")
	}
	if dest == r.link.NodeID() || dest == wire.Broadcast {
		return fmt.Errorf("aodv: cannot discover route to %v", dest)
	}
	var o discoverOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.ttl == 0 {
		o.ttl = defaultTTL
	}
	if prev, ok := r.discovery[dest]; ok {
		prev.timer.Stop()
		r.finish(dest, prev)
	}
	r.ownSeq++
	r.nextFlood++
	d := &pendingDiscovery{
		req: wire.RREQ{
			FloodID:   r.nextFlood,
			Origin:    r.link.NodeID(),
			OriginSeq: r.ownSeq,
			Dest:      dest,
			DestSeq:   o.minDestSeq,
			TTL:       o.ttl,
			WantNext:  o.wantNext,
		},
		done:     done,
		wantNext: o.wantNext,
		ttl:      o.ttl,
	}
	r.discovery[dest] = d
	r.flood(d)
	return nil
}

func (r *Router) flood(d *pendingDiscovery) {
	d.attempts++
	req := d.req
	req.FloodID = r.nextFlood // fresh flood id per round
	r.nextFlood++
	r.table.seenFlood(req.Origin, req.FloodID, r.sched.Now()) // don't process our own flood
	r.sendBare(wire.Broadcast, &req)
	r.stats.RREQOriginated++
	d.timer = r.sched.After(replyWait, func() {
		if len(d.candidates) == 0 && d.attempts <= retries {
			r.flood(d)
			return
		}
		r.finish(d.req.Dest, d)
	})
}

func (r *Router) finish(dest wire.NodeID, d *pendingDiscovery) {
	if r.discovery[dest] == d {
		delete(r.discovery, dest)
	}
	res := DiscoverResult{Dest: dest, Candidates: d.candidates, Attempts: d.attempts}
	for i := range d.candidates {
		c := &d.candidates[i]
		if res.Best == nil || c.RREP.DestSeq > res.Best.RREP.DestSeq ||
			(c.RREP.DestSeq == res.Best.RREP.DestSeq && c.RREP.HopCount < res.Best.RREP.HopCount) {
			res.Best = c
		}
	}
	d.done(res)
}

// SendData routes an application payload toward dest over the installed
// route.
func (r *Router) SendData(dest wire.NodeID, payload []byte) error {
	if r.stopped {
		return ErrStopped
	}
	route, ok := r.table.lookup(dest, r.sched.Now())
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoRoute, dest)
	}
	r.dataSeq++
	d := &wire.Data{Origin: r.link.NodeID(), Dest: dest, SeqNo: r.dataSeq, Payload: payload}
	r.table.touch(dest, r.sched.Now()+RouteLifetime)
	if !r.sendBare(route.NextHop, d) {
		r.linkBroken(route.NextHop)
		return fmt.Errorf("%w: via %v", ErrLinkFailed, route.NextHop)
	}
	r.stats.DataOriginated++
	return nil
}

// SendProbe routes an end-to-end Hello probe (pre-sealed by the agent)
// toward dest.
func (r *Router) SendProbe(dest wire.NodeID, sealed []byte) error {
	if r.stopped {
		return ErrStopped
	}
	route, ok := r.table.lookup(dest, r.sched.Now())
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoRoute, dest)
	}
	r.table.touch(dest, r.sched.Now()+RouteLifetime)
	if !r.link.Send(route.NextHop, sealed) {
		r.linkBroken(route.NextHop)
		return fmt.Errorf("%w: via %v", ErrLinkFailed, route.NextHop)
	}
	return nil
}

func (r *Router) clusterOf() wire.ClusterID {
	if r.cb.Cluster == nil {
		return 0
	}
	return r.cb.Cluster()
}

// sendBare seals (default: bare-marshals) and transmits a packet,
// reporting link-layer acknowledgement (always true for broadcasts).
func (r *Router) sendBare(to wire.NodeID, p wire.Packet) bool {
	payload, err := r.seal(p)
	if err != nil {
		panic(fmt.Sprintf("aodv: sealing %v: %v", p.Kind(), err))
	}
	return r.link.Send(to, payload)
}

// linkBroken reacts to a failed unicast acknowledgement: every route
// through the dead next hop is invalidated and advertised broken.
func (r *Router) linkBroken(nextHop wire.NodeID) {
	var unreachable []wire.UnreachableDest
	for _, broken := range r.table.invalidateVia(nextHop) {
		unreachable = append(unreachable, wire.UnreachableDest{Node: broken.Dest, Seq: broken.Seq})
		if r.cb.RouteBroken != nil {
			r.cb.RouteBroken(broken.Dest)
		}
	}
	if len(unreachable) > 0 {
		r.sendBare(wire.Broadcast, &wire.RERR{Reporter: r.link.NodeID(), Unreachable: unreachable})
		r.stats.RERRSent++
	}
}

// HandleFrame is the router's receive entry point. The owning node wires its
// radio receiver here (possibly through an interception layer).
//
// The dominant bare kinds take a kind-peek fast path: Hello, RREQ and RERR
// decode into router-owned scratch records (their handlers and callbacks
// never retain the packet), RREP and Data into a fresh typed record. Secure
// envelopes and everything else go through the generic decoder. Handlers
// observe exactly the packets they always did, in the same order.
func (r *Router) HandleFrame(f radio.Frame) {
	if r.stopped {
		return
	}
	switch f.Kind() {
	case wire.KindHello:
		if r.scratchHello.UnmarshalBinary(f.Payload) != nil {
			return
		}
		r.table.heard(f.From, r.sched.Now())
		r.handleHello(&r.scratchHello, nil, f)
		return
	case wire.KindRREQ:
		if r.scratchRREQ.UnmarshalBinary(f.Payload) != nil {
			return
		}
		r.table.heard(f.From, r.sched.Now())
		r.handleRREQ(&r.scratchRREQ, f.From)
		return
	case wire.KindRERR:
		if r.scratchRERR.UnmarshalBinary(f.Payload) != nil {
			return
		}
		r.table.heard(f.From, r.sched.Now())
		r.handleRERR(&r.scratchRERR)
		return
	case wire.KindRREP:
		p := new(wire.RREP)
		if p.UnmarshalBinary(f.Payload) != nil {
			return
		}
		r.table.heard(f.From, r.sched.Now())
		r.handleRREP(p, nil, f, f.Payload)
		return
	case wire.KindData:
		p := new(wire.Data)
		if p.UnmarshalBinary(f.Payload) != nil {
			return
		}
		r.table.heard(f.From, r.sched.Now())
		r.handleData(p, f)
		return
	}

	pkt, err := wire.Decode(f.Payload)
	if err != nil {
		return // corrupt or foreign frame; ignore like real radios do
	}
	var env *wire.Secure
	if sec, ok := pkt.(*wire.Secure); ok {
		inner, err := wire.Decode(sec.Inner)
		if err != nil {
			// The sender still counts as heard.
			r.table.heard(f.From, r.sched.Now())
			return
		}
		env = sec
		pkt = inner
	}
	r.HandleDecoded(pkt, env, f)
}

// HandleDecoded is HandleFrame for a frame its owner has already decoded:
// pkt is the frame's packet, unwrapped from its Secure envelope env when
// there was one (env is nil for a bare packet). An agent that decodes what
// it overhears to pick out its own packets hands the rest over here rather
// than having the router decode them again.
func (r *Router) HandleDecoded(pkt wire.Packet, env *wire.Secure, f radio.Frame) {
	if r.stopped {
		return
	}
	r.table.heard(f.From, r.sched.Now())
	switch p := pkt.(type) {
	case *wire.RREQ:
		r.handleRREQ(p, f.From)
	case *wire.RREP:
		r.handleRREP(p, env, f, f.Payload)
	case *wire.RERR:
		r.handleRERR(p)
	case *wire.Hello:
		r.handleHello(p, env, f)
	case *wire.Data:
		r.handleData(p, f)
	default:
		// Cluster and PKI packets are handled by the agent layers.
	}
}

func (r *Router) handleRREQ(p *wire.RREQ, from wire.NodeID) {
	now := r.sched.Now()
	if p.Origin == r.link.NodeID() {
		return // our own flood echoed back
	}
	if r.table.seenFlood(p.Origin, p.FloodID, now) {
		return
	}
	// Install/refresh the reverse route to the origin.
	r.table.update(p.Origin, from, p.HopCount+1, p.OriginSeq, now, now+RouteLifetime)

	me := r.link.NodeID()
	if p.Dest == me {
		// Destination reply: bump own sequence number to at least the
		// demanded freshness, per AODV.
		if p.DestSeq > r.ownSeq {
			r.ownSeq = p.DestSeq
		}
		r.ownSeq++
		rep := &wire.RREP{
			Origin:        p.Origin,
			Dest:          me,
			DestSeq:       r.ownSeq,
			HopCount:      0,
			Lifetime:      RouteLifetime,
			Issuer:        me,
			IssuerCluster: r.clusterOf(),
		}
		r.sendBare(from, rep)
		r.stats.RREPOriginated++
		return
	}
	if route, ok := r.table.lookup(p.Dest, now); ok && route.Seq >= p.DestSeq && route.Seq > 0 {
		// Intermediate reply from a fresh cached route.
		rep := &wire.RREP{
			Origin:        p.Origin,
			Dest:          p.Dest,
			DestSeq:       route.Seq,
			HopCount:      route.HopCount,
			Lifetime:      route.Expiry - now,
			Issuer:        me,
			IssuerCluster: r.clusterOf(),
		}
		if p.WantNext {
			rep.NextHop = route.NextHop
		}
		r.sendBare(from, rep)
		r.stats.RREPOriginated++
		return
	}
	// Rebroadcast with decremented TTL after a short contention jitter. The
	// pending copy rides a pooled record through the shared forward callback
	// instead of a per-flood closure.
	if p.TTL <= 1 {
		return
	}
	fwd := r.getFwd()
	*fwd = *p
	fwd.TTL--
	fwd.HopCount++
	r.sched.AfterFunc(r.rng.Jitter(forwardJitter), r.fwdFn, fwd)
}

// getFwd takes a pooled RREQ record for a pending rebroadcast.
func (r *Router) getFwd() *wire.RREQ {
	if n := len(r.fwdFree); n > 0 {
		p := r.fwdFree[n-1]
		r.fwdFree[n-1] = nil
		r.fwdFree = r.fwdFree[:n-1]
		return p
	}
	return &wire.RREQ{}
}

// forwardRREQ is the shared rebroadcast callback; it recycles its record.
func (r *Router) forwardRREQ(a any) {
	p := a.(*wire.RREQ)
	if !r.stopped {
		r.sendBare(wire.Broadcast, p)
		r.stats.RREQForwarded++
	}
	*p = wire.RREQ{}
	r.fwdFree = append(r.fwdFree, p)
}

func (r *Router) handleRREP(p *wire.RREP, env *wire.Secure, f radio.Frame, raw []byte) {
	now := r.sched.Now()
	if r.cb.AcceptReply != nil && !r.cb.AcceptReply(p, f.From) {
		// Quarantined reply: surface it for accounting, install nothing,
		// relay nothing.
		if p.Origin == r.link.NodeID() {
			cand := Candidate{RREP: *p, Envelope: env, From: f.From, At: now}
			if r.cb.ReplyObserved != nil {
				r.cb.ReplyObserved(cand)
			}
			if d, ok := r.discovery[p.Dest]; ok {
				d.candidates = append(d.candidates, cand)
			}
		}
		return
	}
	// Learn the forward route toward the destination via the delivering
	// neighbour. Hop counts are as claimed by the issuer plus the distance
	// the reply has travelled; with unmutated signed replies we approximate
	// the travelled distance as zero for intermediates (the issuer's claim
	// dominates route choice, which is what the attack exploits).
	r.table.update(p.Dest, f.From, p.HopCount+1, p.DestSeq, now, now+RouteLifetime)
	if p.Issuer != p.Dest {
		// Remember the issuer as the gateway for this route.
		r.table.update(p.Issuer, f.From, 1, 0, now, now+RouteLifetime)
	}

	if p.Origin == r.link.NodeID() {
		cand := Candidate{RREP: *p, Envelope: env, From: f.From, At: now}
		if r.cb.ReplyObserved != nil {
			r.cb.ReplyObserved(cand)
		}
		if d, ok := r.discovery[p.Dest]; ok {
			d.candidates = append(d.candidates, cand)
		}
		return
	}
	// Forward along the reverse route toward the origin, unmodified (the
	// envelope, if any, stays intact).
	route, ok := r.table.lookup(p.Origin, now)
	if !ok {
		return // reverse route expired; the reply dies here
	}
	if !r.link.Send(route.NextHop, raw) {
		r.linkBroken(route.NextHop)
		return
	}
	r.stats.RREPForwarded++
}

func (r *Router) handleRERR(p *wire.RERR) {
	var propagate []wire.UnreachableDest
	for _, u := range p.Unreachable {
		route, ok := r.table.routes[u.Node]
		if !ok || !route.Valid || route.NextHop != p.Reporter {
			continue
		}
		if _, changed := r.table.invalidate(u.Node); changed {
			propagate = append(propagate, wire.UnreachableDest{Node: u.Node, Seq: route.Seq})
			if r.cb.RouteBroken != nil {
				r.cb.RouteBroken(u.Node)
			}
		}
	}
	if len(propagate) > 0 {
		r.sendBare(wire.Broadcast, &wire.RERR{Reporter: r.link.NodeID(), Unreachable: propagate})
		r.stats.RERRSent++
	}
}

func (r *Router) handleHello(p *wire.Hello, env *wire.Secure, f radio.Frame) {
	if p.Dest == wire.Broadcast {
		return // neighbour beacon; the heard() above did the work
	}
	now := r.sched.Now()
	// Gratuitous route learning: a routed probe teaches every hop the way
	// back to its origin, so the reply can travel the reverse path.
	r.table.update(p.Origin, f.From, p.Hops+1, 0, now, now+RouteLifetime)

	if p.Dest == r.link.NodeID() {
		if r.cb.HelloProbe != nil {
			r.cb.HelloProbe(p, env, f.From)
		}
		return
	}
	route, ok := r.table.lookup(p.Dest, now)
	if !ok {
		return // a forwarder with no route silently loses the probe
	}
	fwd := *p
	fwd.Hops++
	var acked bool
	if env != nil {
		// Forward the sealed envelope bytes unmodified so the signature
		// stays valid.
		acked = r.link.Send(route.NextHop, f.Payload)
	} else {
		acked = r.sendBare(route.NextHop, &fwd)
	}
	if !acked {
		r.linkBroken(route.NextHop)
		return
	}
	r.stats.ProbeForwarded++
}

func (r *Router) handleData(p *wire.Data, f radio.Frame) {
	now := r.sched.Now()
	if p.Dest == r.link.NodeID() {
		r.stats.DataDelivered++
		if r.cb.DataReceived != nil {
			r.cb.DataReceived(p, f.From)
		}
		return
	}
	route, ok := r.table.lookup(p.Dest, now)
	if !ok {
		r.stats.DataDropped++
		r.sendBare(wire.Broadcast, &wire.RERR{
			Reporter:    r.link.NodeID(),
			Unreachable: []wire.UnreachableDest{{Node: p.Dest}},
		})
		r.stats.RERRSent++
		return
	}
	r.table.touch(p.Dest, now+RouteLifetime)
	if !r.link.Send(route.NextHop, f.Payload) {
		r.stats.DataDropped++
		r.linkBroken(route.NextHop)
		return
	}
	r.stats.DataForwarded++
}
