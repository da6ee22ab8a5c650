package main

import (
	"sync/atomic"

	"repro/internal/transport"
)

// numKinds covers transport.KindData through transport.KindChainAck.
const numKinds = int(transport.KindChainAck) + 1

// kindCount is one sending rank's frame and byte tallies by packet kind.
type kindCount struct {
	frames [numKinds]atomic.Int64
	bytes  [numKinds]atomic.Int64
	_      [32]byte
}

// timingFabric sits directly on the base fabric, under the chaos and
// reliability layers the world may stack on top. It counts frames and
// payload bytes by transport.Kind per sending rank and, when rec is set,
// records a transport.send span around the inner Send and a
// transport.deliver span around the delivery callback, both in the
// sending rank's buffer (Local delivers on the sender's goroutine, so
// the deliver span nests inside the send span that caused it).
type timingFabric struct {
	inner  transport.Fabric
	rec    *recorder
	counts []kindCount
}

// nonRetainingTiming is the timing fabric over a NonRetaining inner
// fabric. Only this variant claims NonRetaining: claiming it over Local
// would make the p2p path skip its defensive payload copy, changing the
// behaviour being measured.
type nonRetainingTiming struct{ *timingFabric }

// NonRetainingSend implements transport.NonRetaining.
func (nonRetainingTiming) NonRetainingSend() {}

// newTimingFabric wraps inner for a world of ranks physical ranks. It
// returns the Fabric to install and the counting core to read after the
// run.
func newTimingFabric(inner transport.Fabric, ranks int, rec *recorder) (transport.Fabric, *timingFabric) {
	t := &timingFabric{inner: inner, rec: rec, counts: make([]kindCount, ranks)}
	if _, ok := inner.(transport.NonRetaining); ok {
		return nonRetainingTiming{t}, t
	}
	return t, t
}

// Start installs the timed delivery callback on the inner fabric.
func (t *timingFabric) Start(deliver transport.DeliverFunc) error {
	if t.rec == nil {
		return t.inner.Start(deliver)
	}
	return t.inner.Start(func(dst int, pkt *transport.Packet) {
		start := now()
		deliver(dst, pkt)
		t.rec.add(pkt.Src, span{start: start, end: now(), parent: -1,
			peer: int32(dst), tag: int32(pkt.Tag), name: spTransportDeliver, kind: pkt.Kind})
	})
}

// Send counts the frame and forwards it, timed when tracing.
func (t *timingFabric) Send(pkt *transport.Packet) error {
	if pkt.Src >= 0 && pkt.Src < len(t.counts) && int(pkt.Kind) < numKinds {
		c := &t.counts[pkt.Src]
		c.frames[pkt.Kind].Add(1)
		c.bytes[pkt.Kind].Add(int64(len(pkt.Payload)))
	}
	if t.rec == nil {
		return t.inner.Send(pkt)
	}
	start := now()
	err := t.inner.Send(pkt)
	t.rec.add(pkt.Src, span{start: start, end: now(), parent: -1,
		peer: int32(pkt.Dst), tag: int32(pkt.Tag), name: spTransportSend, kind: pkt.Kind})
	return err
}

// Close closes the inner fabric.
func (t *timingFabric) Close() error { return t.inner.Close() }

// totals sums the per-rank tallies.
func (t *timingFabric) totals() (frames, bytes [numKinds]int64) {
	for i := range t.counts {
		for k := 0; k < numKinds; k++ {
			frames[k] += t.counts[i].frames[k].Load()
			bytes[k] += t.counts[i].bytes[k].Load()
		}
	}
	return frames, bytes
}
