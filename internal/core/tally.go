package core

import (
	"time"

	"blackdp/internal/trace"
	"blackdp/internal/wire"
)

// CaseTally counts the packets one detection case consumed, reproducing the
// accounting behind the paper's Figure 5 ("number of detection packets
// needed by BlackDP through RSU (CH)"). Detection packets are everything
// from the d_req to the verdict delivery; isolation traffic (revocation and
// blacklist fan-out) is tallied separately because the paper's figure counts
// only detection.
type CaseTally struct {
	Suspect wire.NodeID

	DReqSent      int // reporter -> its cluster head (radio)
	DReqForwarded int // head -> head hand-offs (backbone)
	ProbesSent    int // bait RREQs from the disposable identity (incl. retries, teammate)
	ProbeReplies  int // suspect/teammate replies to bait probes
	RespBackbone  int // verdict relayed between heads (backbone)
	RespRadio     int // verdict delivered to a reporter (radio)

	// IsolationPackets counts the frames that isolating the suspect and its
	// exposed teammate sent, each once, at its sender: the isolating head's
	// blacklist broadcast, its revocation notices to adjacent heads and its
	// revocation request, and the TA's revocation notices. The blacklist
	// that other heads re-broadcast on a notice, and the one a head sends a
	// vehicle that joins later, are cluster upkeep and not counted.
	IsolationPackets int

	Verdict    wire.Verdict
	Teammate   wire.NodeID
	ReportedAt time.Duration
	ResolvedAt time.Duration
}

// DetectionPackets returns the Figure 5 quantity for this case.
func (c *CaseTally) DetectionPackets() int {
	return c.DReqSent + c.DReqForwarded + c.ProbesSent + c.ProbeReplies + c.RespBackbone + c.RespRadio
}

// Tally aggregates detection accounting across a run, keyed by suspect. All
// methods are safe on a nil receiver (accounting disabled).
type Tally struct {
	cases map[wire.NodeID]*CaseTally
	order []wire.NodeID
}

// NewTally returns an empty tally.
func NewTally() *Tally {
	return &Tally{cases: make(map[wire.NodeID]*CaseTally)}
}

// Case returns the per-suspect tally, creating it on first use. It returns
// nil on a nil tally.
func (t *Tally) Case(suspect wire.NodeID) *CaseTally {
	if t == nil {
		return nil
	}
	c, ok := t.cases[suspect]
	if !ok {
		c = &CaseTally{Suspect: suspect}
		t.cases[suspect] = c
		t.order = append(t.order, suspect)
	}
	return c
}

// Lookup returns the per-suspect tally without creating it.
func (t *Tally) Lookup(suspect wire.NodeID) (*CaseTally, bool) {
	if t == nil {
		return nil, false
	}
	c, ok := t.cases[suspect]
	return c, ok
}

// Cases returns every case in first-report order.
func (t *Tally) Cases() []*CaseTally {
	if t == nil {
		return nil
	}
	out := make([]*CaseTally, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.cases[id])
	}
	return out
}

// TotalDetectionPackets sums DetectionPackets over all cases.
func (t *Tally) TotalDetectionPackets() int {
	n := 0
	for _, c := range t.Cases() {
		n += c.DetectionPackets()
	}
	return n
}

// record counts one protocol step in its case. Steps that cost detection
// or isolation packets, and the verdict, are counted; the rest are ignored.
// Isolation traffic is charged only to a case that already exists: the
// notices about a convicted teammate's revocation are not a case of their
// own but go to the case that convicted it (see isolationCase).
func (t *Tally) record(ev trace.Event) {
	if t == nil {
		return
	}
	switch ev.Kind {
	case trace.DReqFiled:
		c := t.Case(ev.Suspect)
		c.DReqSent++
		if c.ReportedAt == 0 {
			c.ReportedAt = ev.At
		}
	case trace.DReqForwarded:
		t.Case(ev.Suspect).DReqForwarded++
	case trace.BaitRREQ1, trace.BaitRREQ2, trace.TeammateProbe:
		t.Case(ev.Suspect).ProbesSent++
	case trace.ProbeReply:
		t.Case(ev.Suspect).ProbeReplies++
	case trace.VerdictRelayed:
		t.Case(ev.Suspect).RespBackbone++
	case trace.VerdictDelivered:
		t.Case(ev.Suspect).RespRadio++
	case trace.IsolationPackets:
		if c := t.isolationCase(ev.Suspect); c != nil {
			c.IsolationPackets += int(ev.Count)
		}
	case trace.CaseResolved:
		t.Case(ev.Suspect).resolve(ev.Verdict, ev.Peer, ev.At)
	}
}

// isolationCase returns the case that isolation traffic about node belongs
// to: node's own case, else the first case that convicted node as its
// teammate. A TA names only the node it revokes, so its notices about a
// teammate reach the case this way; a head names the case itself.
func (t *Tally) isolationCase(node wire.NodeID) *CaseTally {
	if c, ok := t.cases[node]; ok {
		return c
	}
	for _, id := range t.order {
		if c := t.cases[id]; c.Teammate == node {
			return c
		}
	}
	return nil
}

func (c *CaseTally) resolve(v wire.Verdict, teammate wire.NodeID, at time.Duration) {
	if c.Verdict == wire.VerdictUnknown {
		c.Verdict = v
		c.Teammate = teammate
		c.ResolvedAt = at
		return
	}
	// Under injected faults a case can resolve twice: an early Unreachable
	// (forwarding failed) followed by a genuine conviction once the reporter
	// failed over to a live head. The conviction wins — the attacker WAS
	// detected, just late.
	if v == wire.VerdictMalicious && c.Verdict != wire.VerdictMalicious && c.Verdict != wire.VerdictAlreadyKnown {
		c.Verdict = v
		c.Teammate = teammate
		c.ResolvedAt = at
	}
}
