package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"blackdp"
	"blackdp/internal/attack"
	"blackdp/internal/pki"
	"blackdp/internal/radio"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
	"blackdp/perf/span"
)

// probe instruments serial worlds from outside: it times every scheduler
// event (sim.event, from one EventFired to the next), every vehicle and
// attacker frame reception nested in it (core.recv), and the Build and
// RunContext calls around them (scenario.build, scenario.run). It samples
// delivered payloads for the wire/pki replay and folds each world's layer
// counters into totals.
type probe struct {
	tr                          *span.Tracer
	hBuild, hRun, hEvent, hRecv span.Handle
	hDecode, hOpen              span.Handle

	eventOpen bool
	// rxSelf is the self time of events that delivered a frame to a vehicle
	// (scheduler pop plus radio fan-out); otherSelf that of every other
	// event: timers, head-side receptions, backbone deliveries.
	rxSelf, otherSelf time.Duration
	rxEvents          uint64
	pendingMax        int
	sched             *sim.Scheduler

	// Payload sampling for the replay: every stride-th reception (at most
	// limit per world) for the decode timing, and every secure envelope (at
	// most maxOpensPerWorld) for the pki opens, which are rare on the air.
	stride, limit int
	seen          uint64
	payloads      [][]byte
	secures       [][]byte

	c      counts
	replay replayStats
}

// maxOpensPerWorld bounds the pki replay: ECDSA opens cost ~0.05 ms each.
const maxOpensPerWorld = 50

func newProbe(stride, limit int) *probe {
	tr := span.New()
	return &probe{
		tr: tr, stride: stride, limit: limit,
		hBuild: tr.Name("scenario.build"), hRun: tr.Name("scenario.run"),
		hEvent: tr.Name("sim.event"), hRecv: tr.Name("core.recv"),
		hDecode: tr.Name("wire.decode"), hOpen: tr.Name("pki.open"),
		c: counts{byKind: map[string]uint64{}},
	}
}

// run builds cfg under a scenario.build span, installs the hooks, runs it
// under a scenario.run span, and then replays its sampled payloads.
func (p *probe) run(cfg blackdp.Config) (blackdp.Outcome, error) {
	p.tr.Begin(p.hBuild)
	w, err := blackdp.Build(cfg)
	p.tr.End()
	if err != nil {
		return blackdp.Outcome{}, err
	}
	p.attach(w)
	p.tr.Begin(p.hRun)
	o, err := w.RunContext(bgctx)
	if p.eventOpen {
		p.endEvent()
	}
	p.tr.End()
	if err != nil {
		return o, err
	}
	p.c.add(w, o)
	p.replayWorld(w)
	return o, nil
}

func (p *probe) attach(w *blackdp.World) {
	p.sched = w.Sched
	w.Sched.Observe(sim.Observer{EventFired: func(time.Duration) {
		if p.eventOpen {
			p.endEvent()
		}
		p.tr.Begin(p.hEvent)
		p.eventOpen = true
		if n := p.sched.Pending(); n > p.pendingMax {
			p.pendingMax = n
		}
	}})
	for _, v := range w.Vehicles {
		v.Interface().SetReceiver(p.timed(v.HandleFrame))
	}
	// Attackers hear through their interceptor, as World.arm wires them.
	if w.AttackerBH != nil {
		w.Attacker.Interface().SetReceiver(p.timed(w.AttackerBH.HandleFrame))
	}
	if w.TeammateBH != nil {
		w.Teammate.Interface().SetReceiver(p.timed(w.TeammateBH.HandleFrame))
	}
	for _, h := range w.Extras {
		h.Agent.Interface().SetReceiver(p.timed(h.BH.HandleFrame))
	}
}

func (p *probe) endEvent() {
	_, self, children := p.tr.End()
	if children > 0 {
		p.rxSelf += self
		p.rxEvents++
	} else {
		p.otherSelf += self
	}
	p.eventOpen = false
}

func (p *probe) timed(h radio.Receiver) radio.Receiver {
	return func(f radio.Frame) {
		p.tr.Begin(p.hRecv)
		h(f)
		p.tr.End()
		p.seen++
		if p.seen%uint64(p.stride) == 0 && len(p.payloads) < p.limit {
			p.payloads = append(p.payloads, append([]byte(nil), f.Payload...))
		}
		if f.Kind() == wire.KindSecure && len(p.secures) < maxOpensPerWorld {
			p.secures = append(p.secures, append([]byte(nil), f.Payload...))
		}
	}
}

// replayStats accumulates the wire/pki replay over every world.
type replayStats struct {
	decodes         int
	decodeTime      time.Duration
	opens, openErrs int
	openTime        time.Duration
}

// replayWorld decodes the world's sampled payloads as a vehicle does
// (envelope, then inner packet) and opens its sampled secure envelopes with
// the world's trust store and scheme, under wire.decode and pki.open spans.
func (p *probe) replayWorld(w *blackdp.World) {
	const rounds = 5 // repeat the decode pass so the span is long enough to time
	p.tr.Begin(p.hDecode)
	for r := 0; r < rounds; r++ {
		for _, b := range p.payloads {
			pkt, err := wire.Decode(b)
			if sec, ok := pkt.(*wire.Secure); ok && err == nil {
				_, _ = wire.Decode(sec.Inner)
			}
		}
	}
	dur, _, _ := p.tr.End()
	p.replay.decodes += rounds * len(p.payloads)
	p.replay.decodeTime += dur

	var secures []*wire.Secure
	for _, b := range p.secures {
		if pkt, err := wire.Decode(b); err == nil {
			secures = append(secures, pkt.(*wire.Secure))
		}
	}
	now := w.Sched.Now()
	p.tr.Begin(p.hOpen)
	for _, sec := range secures {
		if _, _, err := pki.Open(sec, w.Env.Trust, now, w.Env.Scheme); err != nil {
			p.replay.openErrs++ // e.g. a certificate revoked during the run
		}
	}
	dur, _, _ = p.tr.End()
	p.replay.opens += len(secures)
	p.replay.openTime += dur
	p.payloads, p.secures = p.payloads[:0], p.secures[:0]
}

// counts sums the layers' own counters over the instrumented worlds.
type counts struct {
	worlds                                     int
	events                                     uint64
	sent, delivered, lost, backbone            uint64
	byKind                                     map[string]uint64
	rreqFwd, rrepFwd, beacons, dataFwd         uint64
	joins, rejoins                             uint64
	dreq, exams, revocations, probes, authViol uint64
	forged, dropped                            uint64
	latencies                                  []time.Duration
}

func (c *counts) add(w *blackdp.World, o blackdp.Outcome) {
	c.worlds++
	c.events += w.Sched.Executed()
	st := w.Env.Medium.Stats()
	c.sent += st.SentFrames.Frames
	c.delivered += st.DeliveredFrames.Frames
	c.lost += st.LostFrames.Frames
	for k, n := range st.DeliveredFrames.ByKind {
		c.byKind[k.String()] += n
	}
	c.backbone += w.Env.Backbone.Stats().DeliveredFrames.Frames
	for _, v := range w.Vehicles {
		rs := v.Router().Stats()
		c.rreqFwd += rs.RREQForwarded
		c.rrepFwd += rs.RREPForwarded
		c.beacons += rs.BeaconsSent
		c.dataFwd += rs.DataForwarded
		vs := v.Stats()
		c.probes += vs.ProbesSent
		c.authViol += vs.AuthViolations
	}
	for _, h := range w.Heads {
		rs := h.Router().Stats()
		c.rreqFwd += rs.RREQForwarded
		c.rrepFwd += rs.RREPForwarded
		c.beacons += rs.BeaconsSent
		c.dataFwd += rs.DataForwarded
		ms := h.Membership().Stats()
		c.joins += ms.Joins
		c.rejoins += ms.Rejoins
		hs := h.Stats()
		c.dreq += hs.DReqReceived
		c.exams += hs.Examinations
		c.revocations += hs.Revocations
	}
	for _, bh := range hostiles(w) {
		s := bh.Stats()
		c.forged += s.RepliesForged
		c.dropped += s.DataDropped
	}
	if o.DetectionLatency > 0 {
		c.latencies = append(c.latencies, o.DetectionLatency)
	}
}

// hostiles lists the world's black-hole interceptors.
func hostiles(w *blackdp.World) []*attack.Blackhole {
	var out []*attack.Blackhole
	for _, bh := range []*attack.Blackhole{w.AttackerBH, w.TeammateBH} {
		if bh != nil {
			out = append(out, bh)
		}
	}
	for _, h := range w.Extras {
		out = append(out, h.BH)
	}
	return out
}

// runtimeSampler tracks the Go runtime across a traced phase: GC cycles and
// GC CPU time from runtime/metrics, and the peak live heap, sampled every
// 10 ms by a goroutine that Stop ends and waits for.
type runtimeSampler struct {
	start    []metrics.Sample
	peakHeap uint64
	stop     chan struct{}
	wg       sync.WaitGroup
}

var runtimeNames = []string{"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{start: readRuntime(), stop: make(chan struct{})}
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > rs.peakHeap {
				rs.peakHeap = v
			}
			select {
			case <-rs.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return rs
}

// Stop ends sampling and returns GC cycles, GC's share of CPU time, and the
// peak live heap in MiB over the sampled interval.
func (rs *runtimeSampler) Stop() (gcCycles, gcShare, heapPeakMiB float64) {
	close(rs.stop)
	rs.wg.Wait()
	end := readRuntime()
	gcCycles = float64(end[0].Value.Uint64() - rs.start[0].Value.Uint64())
	gcCPU := end[1].Value.Float64() - rs.start[1].Value.Float64()
	total := end[2].Value.Float64() - rs.start[2].Value.Float64()
	if total > 0 {
		gcShare = gcCPU / total
	}
	return gcCycles, gcShare, float64(rs.peakHeap) / (1 << 20)
}

// allocsOf runs fn and returns the heap allocations and bytes it made.
func allocsOf(fn func() error) (mallocs, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}
