// Package radio simulates the DSRC wireless channel and the wired RSU
// backbone.
//
// The wireless Medium is a unit-disk model: every attached device shares one
// transmission range (the paper assumes bidirectional links with an identical
// range for all nodes), and a frame reaches exactly the active devices within
// that range of the sender at transmit time. Per-receiver delay is
// transmission time (frame bits over the channel bitrate) plus propagation
// time plus a small uniform jitter standing in for MAC contention; an
// optional uniform loss rate injects failures. Addressing is by the sender's
// and receiver's current pseudonymous NodeID — unicast frames are delivered
// only to the addressee, broadcasts to every neighbour.
//
// A medium normally runs on one scheduler (the serial path, byte-identical
// across releases). For sharded runs (sim.Sharded), AddShard registers one
// execution context per shard — its runtime, RNG stream, channel counters and
// scratch — and AttachOn homes each device on one of them. Loss and jitter
// draws then come from the *sender's* shard stream, deliveries are routed to
// the *receiver's* home shard through sim.CrossPoster, and the spatial index
// is refreshed only at window barriers (Medium.RefreshIndex) so windows read
// it lock-free. A sharded run is deterministic and independent of worker
// count, but draws RNG from per-shard streams, so its outputs form their own
// mode — distinct from the serial stream — pinned by the scenario equality
// wall.
package radio

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"time"

	"blackdp/internal/mobility"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// Frame is one link-layer transmission.
type Frame struct {
	From    wire.NodeID // transmitting neighbour (current pseudonym)
	To      wire.NodeID // wire.Broadcast for broadcasts
	Payload []byte      // a marshalled wire packet
}

// Kind peeks at the payload's packet kind without decoding. It returns an
// invalid Kind for empty payloads.
func (f Frame) Kind() wire.Kind {
	if len(f.Payload) == 0 {
		return 0
	}
	return wire.Kind(f.Payload[0])
}

// Receiver handles delivered frames.
type Receiver func(Frame)

// Option configures a Medium.
type Option func(*Medium)

// WithRange sets the shared transmission range in metres (default 1000,
// Table I).
func WithRange(metres float64) Option {
	return func(m *Medium) { m.txRange = metres }
}

// WithLossRate sets the independent per-receiver frame-loss probability
// (default 0).
func WithLossRate(p float64) Option {
	return func(m *Medium) { m.lossRate = p }
}

// WithBurstLoss replaces the uniform loss process with a two-state
// Gilbert–Elliott channel: the medium sits in a good or bad fading state,
// transitions between them with the given per-draw probabilities, and drops
// each frame copy with the loss probability of the current state. The state
// is channel-wide (fading affects every receiver) and advances one step per
// loss decision, all drawn from the medium's seeded RNG, so runs stay
// deterministic. Mean bad-burst length is 1/badToGood decisions. In sharded
// mode each shard carries its own fading state (channel-wide sequential
// state cannot cross shards deterministically); the serial path is
// unchanged.
func WithBurstLoss(lossGood, lossBad, goodToBad, badToGood float64) Option {
	return func(m *Medium) {
		m.burst = &burstState{
			lossGood: lossGood, lossBad: lossBad,
			goodToBad: goodToBad, badToGood: badToGood,
		}
	}
}

// WithDuplication makes each scheduled frame copy spawn a duplicate with
// probability p (default 0), modelling MAC-layer retransmit races. The
// duplicate takes its own loss draw and jitter.
func WithDuplication(p float64) Option {
	return func(m *Medium) { m.dupProb = p }
}

// WithReordering adds, with probability p per frame copy, an extra uniform
// delay in [0, maxExtra) on top of the normal propagation and jitter —
// enough to reorder frames sent close together (default off).
func WithReordering(p float64, maxExtra time.Duration) Option {
	return func(m *Medium) { m.reorderProb, m.reorderMax = p, maxExtra }
}

// WithLinearScan disables the grid-hash neighbor index: receivers resolve by
// scanning every attached device, the medium's original O(N) reference path.
// Indexed and linear media produce byte-identical simulations (the
// differential suite holds this); the option exists to prove exactly that,
// and as an escape hatch.
func WithLinearScan() Option {
	return func(m *Medium) { m.linearScan = true }
}

// burstState is the Gilbert–Elliott channel state.
type burstState struct {
	lossGood, lossBad    float64
	goodToBad, badToGood float64
	bad                  bool
}

func (b *burstState) clone() *burstState {
	c := *b
	c.bad = false
	return &c
}

// Medium is the shared wireless channel.
type Medium struct {
	txRange     float64
	lossRate    float64
	burst       *burstState
	dupProb     float64
	reorderProb float64
	reorderMax  time.Duration

	linearScan bool

	// windowed is true once AddShard has been called: the medium belongs to
	// a sharded run, devices attach to explicit shard contexts, and the
	// spatial index refreshes only at window barriers.
	windowed bool
	serial   *Shard   // the implicit context of a serial medium
	shards   []*Shard // all execution contexts (serial: exactly one)

	devices []*Interface
	index   *cellIndex // nil under WithLinearScan (or a degenerate range)
}

// Shard is one execution context of the medium: the runtime whose events its
// devices run on, the RNG stream their loss/jitter decisions draw from, and
// the context's private channel counters and scratch. A serial medium has
// exactly one, created implicitly; a sharded medium gets one per sim shard
// via AddShard. All of a Shard's state is touched only by its own shard's
// goroutine (or the orchestrator at barriers), so none of it needs locks.
type Shard struct {
	m       *Medium
	rt      shardRuntime
	rng     *sim.RNG
	burst   *burstState
	stats   liveStats
	freeTx  []*transmission
	fan     []sim.Copy // the Send's same-context copies; a slot is a receiver seq
	scratch collectScratch
	digest  hash.Hash // nil unless DigestFrames was called
}

// shardRuntime is what a shard context schedules on: its own runtime, which
// also posts fan-out batches there and routes copies to other shards. The
// serial *sim.Scheduler and a sharded run's *sim.ShardRuntime both are one.
type shardRuntime interface {
	sim.Runtime
	sim.CrossPoster
}

// transmission holds one frame in flight. The copies a Send schedules on the
// sender's own context share one record through a single fan-out post, and
// the last of them to arrive recycles it; a copy bound for another shard
// travels alone in a record of its own, with dev set. Pooling the records
// keeps the broadcast path allocation-free once the pools are warm. They are
// pooled per shard context: a record is drawn from the sender's context and recycled
// into the receiver's, each touched only on its own shard's goroutine, so
// plain free lists suffice.
type transmission struct {
	m     *Medium // resolves a fan-out copy's slot to its receiver
	frame Frame
	left  int        // copies not yet delivered or lost
	dev   *Interface // receiver of a cross-shard copy; nil for a fan-out
}

// Channel constants.
const (
	// propagationSpeed is the signal speed in m/s.
	propagationSpeed = 299_792_458.0
	// bitrate is the channel bitrate in bits/second, the DSRC default data
	// rate.
	bitrate = 6_000_000
	// jitterMax is the maximum per-receiver MAC jitter.
	jitterMax = 2 * time.Millisecond
)

// NewMedium creates a wireless medium driven by sched, drawing loss and
// jitter decisions from rng.
func NewMedium(sched *sim.Scheduler, rng *sim.RNG, opts ...Option) *Medium {
	if sched == nil || rng == nil {
		panic("radio: NewMedium requires a scheduler and RNG")
	}
	m := &Medium{txRange: 1000}
	for _, opt := range opts {
		opt(m)
	}
	if !m.linearScan && m.txRange > 0 && !math.IsInf(m.txRange, 0) {
		m.index = newCellIndex(m.txRange)
	}
	m.serial = &Shard{m: m, rt: sched, rng: rng, burst: m.burst}
	m.shards = []*Shard{m.serial}
	return m
}

// AddShard registers one sim shard's execution context. The first call flips
// the medium into windowed (sharded) mode, discarding the implicit serial
// context; every device must then attach through AttachOn, and the run's
// orchestrator must call RefreshIndex at each window start. AddShard must
// precede all attaches.
func (m *Medium) AddShard(sh *sim.ShardRuntime, rng *sim.RNG) *Shard {
	if sh == nil || rng == nil {
		panic("radio: AddShard requires a shard runtime and RNG")
	}
	if len(m.devices) > 0 {
		panic("radio: AddShard after devices attached")
	}
	if !m.windowed {
		m.windowed = true
		m.serial = nil
		m.shards = m.shards[:0]
	}
	c := &Shard{m: m, rt: sh, rng: rng}
	if m.burst != nil {
		c.burst = m.burst.clone()
	}
	m.shards = append(m.shards, c)
	return c
}

// Windowed reports whether the medium runs in sharded (windowed) mode.
func (m *Medium) Windowed() bool { return m.windowed }

// RefreshIndex brings the spatial index's buckets up to date for positions
// at t. Serial media never need it (Send refreshes lazily); a sharded run's
// orchestrator calls it at each window start — from sim.Sharded.OnWindow,
// with t = the window end — so every shard reads the index without writes
// racing. Refreshing slightly ahead of a query is safe by the same
// early-never-late argument as the index's crossing-time nudge: within one
// lookahead a device moves a sub-millimetre fraction of a cell.
func (m *Medium) RefreshIndex(t time.Duration) {
	if m.index != nil {
		m.index.refresh(t)
	}
}

// getTx takes a record from the context's free list (or allocates the
// pool's first few).
func (c *Shard) getTx(frame Frame, copies int, dev *Interface) *transmission {
	if n := len(c.freeTx); n > 0 {
		tx := c.freeTx[n-1]
		c.freeTx[n-1] = nil
		c.freeTx = c.freeTx[:n-1]
		tx.frame, tx.left, tx.dev = frame, copies, dev
		return tx
	}
	return &transmission{m: c.m, frame: frame, left: copies, dev: dev}
}

// putTx clears a record and returns it to the context's free list.
func (c *Shard) putTx(tx *transmission) {
	*tx = transmission{m: tx.m}
	c.freeTx = append(c.freeTx, tx)
}

// Range returns the shared transmission range in metres.
func (m *Medium) Range() float64 { return m.txRange }

// Stats returns a snapshot of the channel counters, summed over every
// execution context. The snapshot is independent of the live counters.
func (m *Medium) Stats() Stats {
	var out Stats
	for _, c := range m.shards {
		c.stats.foldInto(&out)
	}
	return out
}

// Attach adds a device with the given initial pseudonym, trajectory and
// receive handler, returning its channel endpoint. On a sharded medium use
// AttachOn: every device needs an explicit home shard.
func (m *Medium) Attach(id wire.NodeID, loc mobility.Locator, recv Receiver) *Interface {
	if m.windowed {
		panic("radio: a sharded medium requires AttachOn with an explicit shard")
	}
	return m.AttachOn(m.serial, id, loc, recv)
}

// AttachOn adds a device homed on shard context c: its receive handler runs
// on that shard, and its sends draw from that shard's RNG stream.
func (m *Medium) AttachOn(c *Shard, id wire.NodeID, loc mobility.Locator, recv Receiver) *Interface {
	if c == nil || c.m != m {
		panic("radio: AttachOn requires a shard context of this medium")
	}
	if loc == nil || recv == nil {
		panic("radio: Attach requires a locator and receiver")
	}
	if id == wire.Broadcast {
		panic("radio: cannot attach with the broadcast NodeID")
	}
	ifc := &Interface{medium: m, shard: c, id: id, loc: loc, recv: recv, seq: int32(len(m.devices))}
	m.devices = append(m.devices, ifc)
	if m.index != nil {
		m.index.add(ifc, c.rt.Now())
	}
	return ifc
}

// Interface is one device's endpoint on the medium.
type Interface struct {
	medium   *Medium
	shard    *Shard
	id       wire.NodeID
	loc      mobility.Locator
	recv     Receiver
	detached bool
	silenced bool

	// Spatial-index state (see cellIndex). seq is the attach order the
	// linear scan iterates in and the index merges by, and the device's
	// index in Medium.devices.
	seq    int32
	kin    mobility.Kinematic
	cell   cellKey
	inCell bool
	dirty  bool
	gen    uint64
}

// NodeID returns the device's current pseudonym.
func (i *Interface) NodeID() wire.NodeID { return i.id }

// SetNodeID changes the device's pseudonym (certificate renewal). Frames
// already in flight to the old pseudonym are lost, as in a real identity
// change. In a sharded run, renames mutate the shared pseudonym map and so
// may only happen from the anchor shard's solo slot (renewal is an
// infrastructure interaction, so it already does).
func (i *Interface) SetNodeID(id wire.NodeID) {
	if id == wire.Broadcast {
		panic("radio: cannot take the broadcast NodeID")
	}
	if x := i.medium.index; x != nil && id != i.id && !i.detached {
		x.rename(i, i.id, id)
	}
	i.id = id
}

// SetReceiver replaces the device's receive handler. The attack layer uses
// it to interpose on a vehicle's frame processing.
func (i *Interface) SetReceiver(recv Receiver) {
	if recv == nil {
		panic("radio: SetReceiver with nil receiver")
	}
	i.recv = recv
}

// Detach removes the device from the channel permanently. Anchor-solo only
// in sharded runs, like SetNodeID.
func (i *Interface) Detach() {
	if i.detached {
		return
	}
	i.detached = true
	if x := i.medium.index; x != nil {
		x.remove(i)
	}
}

// SetSilenced pauses (true) or resumes (false) the radio without detaching;
// a silenced device neither sends nor receives.
func (i *Interface) SetSilenced(s bool) { i.silenced = s }

// locate returns the device's position at time t and whether it is active
// then, evaluating its trajectory once.
func (i *Interface) locate(t time.Duration) (mobility.Position, bool) {
	if i.detached || i.silenced {
		return mobility.Position{}, false
	}
	return i.loc.Locate(t)
}

// Send transmits payload to the pseudonym to (wire.Broadcast for all
// neighbours). Delivery is scheduled per in-range receiver: the copies whose
// receivers share the sender's runtime go out in one fan-out post, in offer
// order, after every candidate has been considered.
//
// The return value models 802.11-style unicast acknowledgement: false means
// the frame certainly did not reach the addressee (absent, out of range,
// silenced, or eaten by the residual loss process after retries), which is
// how real AODV implementations detect broken links. Broadcasts are
// unacknowledged and always report true. A true for unicast can still
// rarely turn into a loss if the receiver deactivates while the frame is in
// flight.
func (i *Interface) Send(to wire.NodeID, payload []byte) bool {
	m := i.medium
	c := i.shard
	now := c.rt.Now()
	src, on := i.locate(now)
	if !on {
		c.stats.suppressed.count(payload, 0)
		return false
	}
	c.stats.sent.count(payload, len(payload))
	from := i.id
	txDelay := time.Duration(float64(len(payload)*8) / bitrate * float64(time.Second))
	acked := to == wire.Broadcast
	frame := Frame{From: from, To: to, Payload: payload}
	switch {
	case m.index == nil:
		for _, dev := range m.devices {
			if m.consider(c, i, dev, to, frame, src, txDelay, now) {
				acked = true
			}
		}
	case to != wire.Broadcast:
		// The linear path draws no RNG for non-addressees, so resolving the
		// addressee through the pseudonym map is draw-for-draw identical.
		for _, dev := range m.index.byID[to] {
			if m.consider(c, i, dev, to, frame, src, txDelay, now) {
				acked = true
			}
		}
	default:
		if !m.windowed {
			m.index.refresh(now)
		}
		for _, seq := range m.index.collectInto(&c.scratch, src) {
			if m.consider(c, i, m.devices[seq], to, frame, src, txDelay, now) {
				acked = true
			}
		}
	}
	if len(c.fan) > 0 {
		c.rt.PostFanout(deliverFanout, c.getTx(frame, len(c.fan), nil), c.fan)
		c.fan = c.fan[:0]
	}
	if !acked {
		c.stats.unacked.count(payload, len(payload))
	}
	return acked
}

// consider is the per-candidate body of Send, shared verbatim by the linear
// scan and both index paths so their RNG draw sequences cannot diverge. It
// reports whether a copy survived the loss process (the ack).
func (m *Medium) consider(c *Shard, sender, dev *Interface, to wire.NodeID, frame Frame, src mobility.Position, txDelay time.Duration, now time.Duration) bool {
	if dev == sender || (to != wire.Broadcast && dev.id != to) {
		return false
	}
	pos, on := dev.locate(now)
	if !on {
		return false
	}
	dist := src.DistanceTo(pos)
	if dist > m.txRange {
		return false
	}
	acked := m.offerCopy(c, dev, frame, txDelay, dist, now)
	// Fault injection: a duplicate copy races the original with its own
	// loss draw and jitter. The probability check short-circuits so an
	// unconfigured medium draws exactly the same RNG sequence as before.
	if m.dupProb > 0 && c.rng.Bool(m.dupProb) {
		c.stats.duplicated.count(frame.Payload, len(frame.Payload))
		if m.offerCopy(c, dev, frame, txDelay, dist, now) {
			acked = true
		}
	}
	return acked
}

// offerCopy accounts for and schedules one frame copy toward one in-range
// receiver (a same-context copy joins the Send's fan-out batch), reporting
// whether the copy survived the loss process at send time. Every offered
// copy ends up exactly once in DeliveredFrames or LostFrames (or is still in
// flight) — the conservation ledger CheckConservation audits.
func (m *Medium) offerCopy(c *Shard, dev *Interface, frame Frame, txDelay time.Duration, dist float64, now time.Duration) bool {
	payload := frame.Payload
	c.stats.offered.count(payload, len(payload))
	if c.dropCopy() {
		c.stats.lost.count(payload, len(payload))
		return false
	}
	prop := time.Duration(dist / propagationSpeed * float64(time.Second))
	delay := txDelay + prop + c.rng.Jitter(jitterMax)
	if m.reorderProb > 0 && c.rng.Bool(m.reorderProb) {
		delay += c.rng.Jitter(m.reorderMax)
	}
	c.stats.inFlight++
	if dev.shard == c {
		// Every copy of a serial medium, and same-shard copies of a sharded
		// one: Send posts them together.
		c.fan = append(c.fan, sim.Copy{At: now + delay, Slot: dev.seq})
		return true
	}
	// Route the copy to the receiver's home shard. Cross-shard delay is
	// bounded below by txDelay, which is why a frame's minimum airtime is
	// the sharded run's lookahead.
	c.rt.PostTo(dev.shard.rt, now+delay, deliverCrossShard, c.getTx(frame, 1, dev))
	return true
}

// deliverFanout is the arrival callback of a copy posted in a Send's fan-out
// batch: shared is the transmission, slot the receiver's seq.
func deliverFanout(shared any, slot int32) {
	tx := shared.(*transmission)
	arrive(tx.m.devices[slot], tx)
}

// deliverCrossShard is the arrival callback of a copy routed to another
// shard in a record of its own.
func deliverCrossShard(a any) {
	tx := a.(*transmission)
	arrive(tx.dev, tx)
}

// arrive settles one copy of tx at dev. It runs on the receiver's home
// shard: it settles the conservation ledger (delivered or lost) in the
// receiver shard's counters, hands the frame to the receiver, and, for the
// transmission's last copy, recycles the record there — after recv returns,
// so a re-entrant Send inside the receiver draws fresh records. In-flight
// accounting may thus increment on one shard and decrement on another; the
// per-shard counters are summed with wraparound in Stats, so the merged
// ledger stays exact.
func arrive(dev *Interface, tx *transmission) {
	c := dev.shard
	payload := tx.frame.Payload
	c.stats.inFlight--
	if _, active := dev.locate(c.rt.Now()); active {
		c.stats.delivered.count(payload, len(payload))
		if c.digest != nil {
			c.digestCopy(dev.id, payload)
		}
		dev.recv(tx.frame)
	} else {
		c.stats.lost.count(payload, len(payload))
	}
	if tx.left--; tx.left == 0 {
		c.putTx(tx)
	}
}

// DigestFrames makes the medium hash every delivered copy's arrival time,
// receiver pseudonym and payload, for FrameDigest. It is a test hook for
// frame-level determinism walls: hashing reads what the run delivers and
// changes nothing it does. Call it before the run starts.
func (m *Medium) DigestFrames() {
	for _, c := range m.shards {
		c.digest = sha256.New()
	}
}

// FrameDigest returns the SHA-256 over every context's delivery hash, in
// context order. Each context hashes its own deliveries in its own event
// order, so the digest does not depend on how shard goroutines interleave.
// It is the zero digest unless DigestFrames was called.
func (m *Medium) FrameDigest() [sha256.Size]byte {
	var out [sha256.Size]byte
	if m.shards[0].digest == nil {
		return out
	}
	h := sha256.New()
	for _, c := range m.shards {
		h.Write(c.digest.Sum(nil))
	}
	h.Sum(out[:0])
	return out
}

// digestCopy hashes one delivered copy as (time, receiver, length,
// payload), fixed-width fields first so distinct copies never alias.
func (c *Shard) digestCopy(to wire.NodeID, payload []byte) {
	var hdr [20]byte
	binary.BigEndian.PutUint64(hdr[0:], uint64(c.rt.Now()))
	binary.BigEndian.PutUint64(hdr[8:], uint64(to))
	binary.BigEndian.PutUint32(hdr[16:], uint32(len(payload)))
	c.digest.Write(hdr[:])
	c.digest.Write(payload)
}

// dropCopy draws one loss decision: uniform by default, Gilbert–Elliott when
// burst loss is configured.
func (c *Shard) dropCopy() bool {
	b := c.burst
	if b == nil {
		return c.rng.Bool(c.m.lossRate)
	}
	if b.bad {
		if c.rng.Bool(b.badToGood) {
			b.bad = false
		}
	} else if c.rng.Bool(b.goodToBad) {
		b.bad = true
	}
	p := b.lossGood
	if b.bad {
		p = b.lossBad
	}
	return c.rng.Bool(p)
}

// Neighbors returns the pseudonyms of all active devices currently within
// range of i, in attach order. Intended for tests and diagnostics; protocol
// code should discover neighbours with Hello beacons.
func (i *Interface) Neighbors() []wire.NodeID {
	return i.AppendNeighbors(nil)
}

// AppendNeighbors appends the pseudonyms of all active in-range devices to
// dst and returns the extended slice, so a caller polling repeatedly can
// reuse one scratch buffer (dst[:0]) instead of allocating per poll.
func (i *Interface) AppendNeighbors(dst []wire.NodeID) []wire.NodeID {
	m := i.medium
	c := i.shard
	now := c.rt.Now()
	src, on := i.locate(now)
	if !on {
		return dst
	}
	if m.index != nil {
		if !m.windowed {
			m.index.refresh(now)
		}
		for _, seq := range m.index.collectInto(&c.scratch, src) {
			dev := m.devices[seq]
			if pos, on := dev.locate(now); dev != i && on && src.DistanceTo(pos) <= m.txRange {
				dst = append(dst, dev.id)
			}
		}
		return dst
	}
	for _, dev := range m.devices {
		if pos, on := dev.locate(now); dev != i && on && src.DistanceTo(pos) <= m.txRange {
			dst = append(dst, dev.id)
		}
	}
	return dst
}

// Stats aggregates channel counters. Frame counters are per transmission
// attempt or per receiver as noted; byte counters follow their frame
// counter.
type Stats struct {
	SentFrames       Counter // transmissions initiated
	OfferedFrames    Counter // per-receiver frame copies entering the loss process
	DeliveredFrames  Counter // per-receiver successful deliveries
	LostFrames       Counter // per-receiver losses (random loss or receiver gone)
	DuplicatedFrames Counter // extra copies spawned by WithDuplication
	SuppressedFrames Counter // sends attempted while the device was inactive
	UnackedFrames    Counter // unicasts whose addressee was unreachable at send time

	InFlightFrames uint64 // copies offered but not yet delivered or lost
}

// CheckConservation verifies the channel's packet ledger: every offered frame
// copy is delivered, lost, or still in flight — in frames and in bytes.
// A non-nil error means the medium (or a backbone sharing this ledger)
// leaked or double-counted traffic.
func (s Stats) CheckConservation() error {
	if got := s.DeliveredFrames.Frames + s.LostFrames.Frames + s.InFlightFrames; got != s.OfferedFrames.Frames {
		return fmt.Errorf("radio: frame ledger broken: offered %d != delivered %d + lost %d + in-flight %d",
			s.OfferedFrames.Frames, s.DeliveredFrames.Frames, s.LostFrames.Frames, s.InFlightFrames)
	}
	if s.DeliveredFrames.Bytes+s.LostFrames.Bytes > s.OfferedFrames.Bytes {
		return fmt.Errorf("radio: byte ledger broken: offered %d < delivered %d + lost %d",
			s.OfferedFrames.Bytes, s.DeliveredFrames.Bytes, s.LostFrames.Bytes)
	}
	return nil
}

// Counter tallies frames and bytes, overall and per packet kind.
type Counter struct {
	Frames uint64
	Bytes  uint64
	ByKind map[wire.Kind]uint64
}

func (c Counter) String() string {
	return fmt.Sprintf("%d frames / %d bytes", c.Frames, c.Bytes)
}

// tally is the live form of a Counter: per-kind counts sit in a fixed array
// indexed by the payload's kind byte, so counting a frame never hashes. The
// ByKind map exists only in snapshots.
type tally struct {
	frames, bytes uint64
	byKind        [256]uint64
}

// count records one frame of the given size. Empty payloads have no kind and
// count only toward frames and bytes.
func (t *tally) count(payload []byte, bytes int) {
	t.frames++
	t.bytes += uint64(bytes)
	if len(payload) > 0 {
		t.byKind[payload[0]]++
	}
}

// foldInto adds t to the snapshot counter c. ByKind gains an entry for each
// kind seen and stays nil when no kind was.
func (t *tally) foldInto(c *Counter) {
	c.Frames += t.frames
	c.Bytes += t.bytes
	for k, n := range t.byKind {
		if n == 0 {
			continue
		}
		if c.ByKind == nil {
			c.ByKind = make(map[wire.Kind]uint64)
		}
		c.ByKind[wire.Kind(k)] += n
	}
}

// liveStats is the live form of Stats, one per medium execution context and
// one per backbone.
type liveStats struct {
	sent, offered, delivered, lost, duplicated, suppressed, unacked tally

	inFlight uint64
}

// foldInto adds l to the snapshot s. In-flight counts sum with uint64
// wraparound, which keeps cross-shard deliveries exact: the receiver shard's
// decrement may underflow its own counter, but the sum over shards is the
// true in-flight count.
func (l *liveStats) foldInto(s *Stats) {
	l.sent.foldInto(&s.SentFrames)
	l.offered.foldInto(&s.OfferedFrames)
	l.delivered.foldInto(&s.DeliveredFrames)
	l.lost.foldInto(&s.LostFrames)
	l.duplicated.foldInto(&s.DuplicatedFrames)
	l.suppressed.foldInto(&s.SuppressedFrames)
	l.unacked.foldInto(&s.UnackedFrames)
	s.InFlightFrames += l.inFlight
}
