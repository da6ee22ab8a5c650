package trace

import (
	"sync/atomic"
	"testing"
)

// The benchmarks model the hot path the observability layer creates:
// every rank's goroutine records events while a live exposition endpoint
// (/metrics, expvar) periodically polls Count. The sharded flight
// recorder keeps counts incrementally and scans nothing, so polling does
// not stall the record path.

// pollEvery is how many records each goroutine performs per Count poll —
// roughly one scrape per screenful of events, far gentler than a real
// 1Hz Prometheus scrape against a µs-scale record path.
const pollEvery = 512

func BenchmarkRecorderSharded(b *testing.B) {
	r := New(0)
	var rank atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		me := int(rank.Add(1)) - 1
		i := 0
		for pb.Next() {
			r.Record(me, SendPosted, (me+1)%8, 0, i, "")
			i++
			if i%pollEvery == 0 {
				_ = r.Count(SendPosted)
			}
		}
	})
	if r.Len() != b.N {
		b.Fatalf("recorded %d events, want %d", r.Len(), b.N)
	}
}

// Record-only variants isolate the raw record path with no reader.

func BenchmarkRecordOnlySharded(b *testing.B) {
	r := New(0)
	var rank atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		me := int(rank.Add(1)) - 1
		for pb.Next() {
			r.Record(me, SendPosted, (me+1)%8, 0, 1, "")
		}
	})
}

// Flight-recorder mode: bounded ring under concurrent load.

func BenchmarkRecordOnlyShardedBounded(b *testing.B) {
	r := New(4096)
	var rank atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		me := int(rank.Add(1)) - 1
		for pb.Next() {
			r.Record(me, SendPosted, (me+1)%8, 0, 1, "")
		}
	})
}
