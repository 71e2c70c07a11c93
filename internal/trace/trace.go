// Package trace records what a simulation run did as typed events: route
// verification, detection requests, bait probes, verdicts, isolation and
// pseudonym renewal. Agents record through a *Recorder; a nil Recorder is
// valid and records nothing without allocating. An event becomes text only
// when a Log is dumped.
package trace

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"blackdp/internal/wire"
)

// Category classifies an event for filtering.
type Category string

// Event categories; every Kind belongs to exactly one.
const (
	CatVerify    Category = "verify"
	CatDetect    Category = "detect"
	CatIsolate   Category = "isolate"
	CatCluster   Category = "cluster"
	CatAuthority Category = "authority"
)

// Kind is one step of the protocol. Its entry in kinds gives its category,
// and the Event fields its description names are the ones it sets beyond At
// and Node.
type Kind uint8

const (
	// Route verification at a vehicle.
	Verified Kind = iota + 1
	NoRoute
	Prevented
	Detected
	Cleared
	Unresolved
	Unverified
	RouteProbe
	RouteProbeLost
	ProbeUnanswerable
	ForgedProbeReply

	// Detection at vehicles and cluster heads.
	DReqFiled
	DReqRetransmit
	Failover
	HeadCrashed
	HeadRecovered
	Examining
	DReqForwarded
	HandoffRetry
	BaitRREQ1
	BaitRREQ2
	TeammateProbe
	ProbeReply
	SingleProbeConviction
	Violation
	SuspectLeft
	CaseResolved
	VerdictRelayed
	VerdictDelivered

	// Isolation.
	Isolated
	IsolationPackets

	// Cluster membership and pseudonyms.
	RenewalRelayFailed
	RenewalDenied
	PseudonymRotated

	// Trusted authorities.
	Revoked
	RenewalsPaused
	Renewed
	RenewalRefused

	// NumKinds bounds the kinds: every kind lies in [Verified, NumKinds).
	NumKinds
)

// kinds gives every kind its category and its description, in which each
// {Field} stands for that Event field. This table is the one place a step
// becomes text; an event's error, when set, follows the description.
var kinds = [NumKinds]struct {
	cat  Category
	text string
}{
	Verified:          {CatVerify, "establishment to {Dest}: verified (suspect {Suspect} verdict {Verdict})"},
	NoRoute:           {CatVerify, "establishment to {Dest}: no-route (suspect {Suspect} verdict {Verdict})"},
	Prevented:         {CatVerify, "establishment to {Dest}: prevented (suspect {Suspect} verdict {Verdict})"},
	Detected:          {CatVerify, "establishment to {Dest}: detected (suspect {Suspect} verdict {Verdict})"},
	Cleared:           {CatVerify, "establishment to {Dest}: cleared (suspect {Suspect} verdict {Verdict})"},
	Unresolved:        {CatVerify, "establishment to {Dest}: unresolved (suspect {Suspect} verdict {Verdict})"},
	Unverified:        {CatVerify, "establishment to {Dest}: unverified (suspect {Suspect} verdict {Verdict})"},
	RouteProbe:        {CatVerify, "probing route to {Dest} via {Peer} (nonce {Count})"},
	RouteProbeLost:    {CatVerify, "probe to {Dest} unanswered; re-discovering"},
	ProbeUnanswerable: {CatVerify, "cannot answer probe from {Peer}"},
	ForgedProbeReply:  {CatVerify, "forged probe reply for {Dest}; reporting {Suspect}"},

	DReqFiled:             {CatDetect, "d_req filed against {Suspect} (cluster {Cluster}, attempt {Count})"},
	DReqRetransmit:        {CatDetect, "d_req against {Suspect} unanswered; retransmitting"},
	Failover:              {CatDetect, "head unresponsive; failing over to an adjacent cluster head"},
	HeadCrashed:           {CatDetect, "head for cluster {Cluster} crashed"},
	HeadRecovered:         {CatDetect, "head for cluster {Cluster} recovered"},
	Examining:             {CatDetect, "examining suspect {Suspect} (reported by {Peer}) at {At}"},
	DReqForwarded:         {CatDetect, "d_req for {Suspect} forwarded to {Peer}"},
	HandoffRetry:          {CatDetect, "hand-off of {Suspect} to {Peer} failed; retry {Count} in {Delay}"},
	BaitRREQ1:             {CatDetect, "probe stage 1 -> {Peer} (fake dest {Dest}, demand seq {Seq})"},
	BaitRREQ2:             {CatDetect, "probe stage 2 -> {Peer} (fake dest {Dest}, demand seq {Seq})"},
	TeammateProbe:         {CatDetect, "probe stage 3 -> {Peer} (fake dest {Dest}, demand seq {Seq})"},
	ProbeReply:            {CatDetect, "probe reply from {Peer} (suspect {Suspect})"},
	SingleProbeConviction: {CatDetect, "single-probe conviction of {Suspect} (seq {Seq})"},
	Violation:             {CatDetect, "violation confirmed: {Suspect} answered demand {Count} with seq {Seq} (next hop {Peer})"},
	SuspectLeft:           {CatDetect, "suspect {Suspect} left mid-examination"},
	CaseResolved:          {CatDetect, "verdict on {Suspect}: {Verdict} (teammate {Peer})"},
	VerdictRelayed:        {CatDetect, "verdict on {Suspect} relayed to {Peer}"},
	VerdictDelivered:      {CatDetect, "verdict on {Suspect} delivered to {Peer}"},

	Isolated:         {CatIsolate, "isolated {Suspect} (serial {Count})"},
	IsolationPackets: {CatIsolate, "isolation packets sent about {Suspect}: {Count}"},

	RenewalRelayFailed: {CatCluster, "renewal relay failed"},
	RenewalDenied:      {CatCluster, "certificate renewal denied"},
	PseudonymRotated:   {CatCluster, "pseudonym rotated {Peer} -> {Node}"},

	Revoked:        {CatAuthority, "revoked {Suspect} (serial {Count}) on report from {Peer}"},
	RenewalsPaused: {CatAuthority, "renewals paused for {Suspect} per notice from authority {Count}"},
	Renewed:        {CatAuthority, "renewed {Peer} -> {Dest}"},
	RenewalRefused: {CatAuthority, "renewal denied for {Peer}"},
}

// Category returns the category the kind belongs to.
func (k Kind) Category() Category {
	if k >= NumKinds {
		return ""
	}
	return kinds[k].cat
}

// Event is one recorded step. Which fields beyond At, Kind and Node carry
// meaning depends on the Kind.
type Event struct {
	At      time.Duration
	Kind    Kind
	Node    wire.NodeID // the agent that took the step
	Peer    wire.NodeID
	Suspect wire.NodeID // the node under detection; the tally's case key
	Dest    wire.NodeID
	Cluster wire.ClusterID
	Verdict wire.Verdict
	Seq     wire.SeqNum
	Count   uint64
	Delay   time.Duration
	Err     error
}

func (e Event) String() string {
	return fmt.Sprintf("%12s  %-10s %-9s %s", e.At.Round(time.Microsecond), e.Node, e.Kind.Category(), e.text())
}

// text describes the step in words, from its kind's description.
func (e Event) text() string {
	if e.Kind == 0 || e.Kind >= NumKinds {
		return fmt.Sprintf("Kind(%d)", e.Kind)
	}
	s := strings.NewReplacer(
		"{Node}", e.Node.String(), "{Peer}", e.Peer.String(),
		"{Suspect}", e.Suspect.String(), "{Dest}", e.Dest.String(),
		"{Cluster}", strconv.Itoa(int(e.Cluster)), "{Verdict}", e.Verdict.String(),
		"{Seq}", strconv.FormatUint(uint64(e.Seq), 10), "{Count}", strconv.FormatUint(e.Count, 10),
		"{Delay}", e.Delay.String(), "{At}", e.At.String(),
	).Replace(kinds[e.Kind].text)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// capacity bounds how many events a Recorder retains.
const capacity = 65536

// Recorder accumulates events up to a capacity (oldest dropped first). It
// belongs to the single simulation goroutine; read it through Snapshot. A
// nil *Recorder is a valid recorder that keeps nothing.
type Recorder struct {
	events  []Event // a ring once full: events[head] is the oldest
	head    int
	cap     int
	dropped uint64
}

// NewRecorder creates a recorder retaining the most recent 65536 events.
func NewRecorder() *Recorder { return &Recorder{cap: capacity} }

// Record retains e, overwriting the oldest event once the recorder is full.
// A nil recorder discards it.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if len(r.events) < r.cap {
		r.events = append(r.events, e)
		return
	}
	r.events[r.head] = e
	if r.head++; r.head == r.cap {
		r.head = 0
	}
	r.dropped++
}

// Log is an immutable snapshot of a recorder: the retained events plus the
// eviction count at snapshot time. Unlike a live *Recorder, a Log is plain
// data, safe to retain and read concurrently after the run finishes. The
// serve subsystem keeps one per completed job for its trace endpoint.
type Log struct {
	Events  []Event
	Dropped uint64
}

// Snapshot captures the recorder's current state as a Log. A nil recorder
// snapshots to the zero Log.
func (r *Recorder) Snapshot() Log {
	if r == nil {
		return Log{}
	}
	return Log{Events: slices.Concat(r.events[r.head:], r.events[:r.head]), Dropped: r.dropped}
}

// Filter returns the log's events matching the given categories (all, if
// none given) and node (any, if wire.Broadcast).
func (l Log) Filter(node wire.NodeID, cats ...Category) []Event {
	var out []Event
	for _, e := range l.Events {
		if node != wire.Broadcast && e.Node != node {
			continue
		}
		if len(cats) > 0 && !slices.Contains(cats, e.Kind.Category()) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Dump writes every event to w, one per line, noting evictions at the top.
func (l Log) Dump(w io.Writer) error {
	if l.Dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events evicted by the capacity bound)\n", l.Dropped); err != nil {
			return err
		}
	}
	for _, e := range l.Events {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}
