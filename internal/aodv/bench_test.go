package aodv

import (
	"testing"
	"time"

	"blackdp/internal/wire"
)

// BenchmarkDiscovery measures a full 3-hop route discovery including the
// flood, the reply, and the collection window.
func BenchmarkDiscovery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := newBenchNet(b, 0, 900, 1800, 2700)
		b.StartTimer()
		var got *DiscoverResult
		if err := net.router(1).Discover(4, func(r DiscoverResult) { got = &r }); err != nil {
			b.Fatal(err)
		}
		net.sched.RunFor(2 * time.Second)
		if got == nil || got.Best == nil {
			b.Fatal("discovery failed")
		}
	}
}

// BenchmarkDataForwarding measures steady-state multi-hop data delivery.
func BenchmarkDataForwarding(b *testing.B) {
	net := newBenchNet(b, 0, 900, 1800, 2700)
	var done *DiscoverResult
	if err := net.router(1).Discover(4, func(r DiscoverResult) { done = &r }); err != nil {
		b.Fatal(err)
	}
	net.sched.RunFor(2 * time.Second)
	if done == nil || done.Best == nil {
		b.Fatal("no route")
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.router(1).SendData(4, payload); err != nil {
			b.Fatal(err)
		}
		net.sched.RunFor(50 * time.Millisecond)
	}
}

// BenchmarkRouteTableUpdate measures the forwarding-table hot path.
func BenchmarkRouteTableUpdate(b *testing.B) {
	tbl := newTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dest := wire.NodeID(i%64 + 1)
		tbl.update(dest, wire.NodeID(i%8+100), uint8(i%10), wire.SeqNum(i), 0, time.Duration(i)+time.Second)
	}
}

// newBenchNet mirrors newTestNet for benchmarks.
func newBenchNet(b *testing.B, xs ...float64) *testNet {
	b.Helper()
	return newTestNet(b, xs...)
}
