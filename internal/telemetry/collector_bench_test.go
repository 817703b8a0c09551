package telemetry

import (
	"sync/atomic"
	"testing"
)

// The recording paths under parallel load: every netrun hop records its
// ack latency from the goroutine that sent the frame, every finished run
// publishes its counters from the goroutine that ran it, and the job fleet
// runs several such goroutines at once. Each benchmark records from
// GOMAXPROCS goroutines into one long-lived Collector.

// BenchmarkCountSharedName has every goroutine add to one counter by
// name, as finished runs add to the fleet-wide netrun.* totals.
func BenchmarkCountSharedName(b *testing.B) {
	c := NewCollector()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Count(NetrunWireBits, 8)
		}
	})
}

// BenchmarkCountDistinctNames has each goroutine add to a counter of its
// own by name, as runs publish their links' netrun.topo.<l>.* shares.
func BenchmarkCountDistinctNames(b *testing.B) {
	c := NewCollector()
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		name := Indexed(NetrunTopo, int(next.Add(1)), "wire_bits")
		for pb.Next() {
			c.Count(name, 8)
		}
	})
}

// BenchmarkObserve has every goroutine add samples to one histogram by
// name, as the ack-latency histogram gets one per hop.
func BenchmarkObserve(b *testing.B) {
	c := NewCollector()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 1000.0
		for pb.Next() {
			c.Observe(NetrunAckNs, v)
			v += 1
		}
	})
}
