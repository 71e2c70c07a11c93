// Package core implements BlackDP, the paper's contribution: source and
// destination verification at legitimate vehicles, detection requests
// (d_req) to trusted Road Side Units, suspicious-node examination by bait
// probing under a disposable identity, cooperative-attacker exposure, and
// isolation via certificate revocation and blacklist dissemination.
//
// Three agents cooperate:
//
//   - VehicleAgent: a legitimate vehicle. It runs AODV plus the BlackDP
//     verification layer — it authenticates route replies, probes claimed
//     routes end to end with signed Hello packets, and files a d_req with
//     its cluster head when a route issuer behaves suspiciously.
//   - HeadAgent: an RSU cluster head. It manages cluster membership,
//     relays AODV traffic, examines reported suspects with fake route
//     requests from a disposable identity, confirms the AODV sequence-
//     number violation, chases named teammates, and isolates attackers.
//   - AuthorityAgent: a Trusted Authority node on the wired backbone. It
//     issues and renews pseudonymous certificates, processes revocation
//     requests, pauses renewals for revoked identities, and fans out
//     revocation notices to peer authorities and cluster heads.
package core

import (
	"blackdp/internal/cluster"
	"blackdp/internal/mobility"
	"blackdp/internal/pki"
	"blackdp/internal/radio"
	"blackdp/internal/sim"
	"blackdp/internal/trace"
	"blackdp/internal/wire"
)

// Env bundles the simulation-wide facilities every agent needs. One Env is
// shared by all agents of a run.
type Env struct {
	Sched    sim.Runtime
	RNG      *sim.RNG
	Trust    *pki.TrustStore
	Scheme   pki.Scheme
	Dir      *cluster.Directory
	Highway  mobility.Topology // road layout; a *mobility.Highway or any mesh
	Medium   *radio.Medium
	Backbone *radio.Backbone
	Tracer   *trace.Recorder // nil disables tracing; steps still reach Tally
	Tally    *Tally          // nil disables detection-packet accounting

	// Port is the radio shard context this agent's interfaces attach to.
	// nil in serial runs, where Medium.Attach uses the implicit serial
	// context; sharded world builds set it per agent alongside Sched.
	Port *radio.Shard
}

func (e *Env) check() {
	if e.Sched == nil || e.RNG == nil || e.Trust == nil || e.Scheme == nil ||
		e.Dir == nil || e.Highway == nil || e.Medium == nil || e.Backbone == nil {
		panic("core: Env is missing required facilities")
	}
}

// record is the one hook every protocol step goes through: it stamps the
// step with the virtual time, counts it in the detection tally, and keeps it
// in the trace when tracing is on. With either sink nil it allocates
// nothing for that sink.
func (e *Env) record(ev trace.Event) {
	ev.At = e.Sched.Now()
	e.Tally.record(ev)
	e.Tracer.Record(ev)
}

// AttachRadio attaches a radio interface on the agent's home shard: the
// serial context when Port is nil, the agent's shard otherwise. All agent
// code attaches through this so one Env field switch moves an agent between
// execution modes.
func (e *Env) AttachRadio(id wire.NodeID, loc mobility.Locator, recv radio.Receiver) *radio.Interface {
	if e.Port != nil {
		return e.Medium.AttachOn(e.Port, id, loc, recv)
	}
	return e.Medium.Attach(id, loc, recv)
}
