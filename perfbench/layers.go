package main

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/transport"
)

// layerAcc accumulates the per-layer measurements of a traced phase.
type layerAcc struct {
	ops float64 // laps, steps or worlds traced, the per-op denominator

	sendSelfNs, sends      int64 // transport.send self time
	deliverNs, delivers    int64
	frames, bytes          [numKinds]int64
	mpiSend, hop           []float64 // µs; one mpiSend sample per hop
	mallocs, allocBytes    uint64
	validates, validateNs  int64 // from the obs registry
	allreduce, bcast       []float64
	counters               [metrics.ReplicaDedupDrops + 1]int64
	traceEvents, truncated int64
	rankSeconds            float64 // physical ranks × world wall time

	// Recovery path: measured by the workload from the spans, except
	// resume (kill to the next absorbed lap, µs), which comes from
	// untraced worlds.
	failover, takeover, resume []float64
	kills, resends             int
	extraScans                 int64 // neighbour scans beyond the two at start-up

	last []linked // spans of the most recent traced world
}

// absorbWorld links one finished world's spans and folds them, the
// timing fabric's tallies and the world's counters into the accumulator.
func (a *layerAcc) absorbWorld(rec *recorder, wc worldCfg, tf *timingFabric, out worldOut, mallocs, allocBytes uint64) {
	perRank := make([]linked, wc.phys)
	for r := 0; r < wc.phys; r++ {
		raw := rec.spansOf(r)
		var spans []span
		for _, s := range raw {
			if !s.name.instant() {
				spans = append(spans, s)
			}
		}
		spans = append(spans, pairSends(r, raw)...)
		l := link(spans)
		perRank[r] = l
		for i, s := range l.spans {
			d := s.end - s.start
			switch s.name {
			case spTransportSend:
				a.sendSelfNs += l.self[i]
				a.sends++
			case spTransportDeliver:
				a.deliverNs += d
				a.delivers++
			case spMPISend:
				a.mpiSend = append(a.mpiSend, float64(d)/1e3)
			case spAllreduce:
				a.allreduce = append(a.allreduce, float64(d)/1e3)
			case spBcast:
				a.bcast = append(a.bcast, float64(d)/1e3)
			}
		}
	}
	a.last = perRank
	a.hop = append(a.hop, hopTimes(rec, wc.phys)...)
	frames, bytes := tf.totals()
	for k := range frames {
		a.frames[k] += frames[k]
		a.bytes[k] += bytes[k]
	}
	a.mallocs += mallocs
	a.allocBytes += allocBytes
	v := wc.reg.Merged(obs.ValidateAll)
	a.validates += v.Count
	a.validateNs += v.Sum
	for c := range a.counters {
		a.counters[c] += wc.mets.Total(metrics.Counter(c))
	}
	a.traceEvents += wc.tracer.Recorded()
	a.truncated += wc.tracer.Truncated()
	a.rankSeconds += float64(wc.phys) * out.wall
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	samples    string // what the value was computed from
}

// report turns the accumulator into the per-layer metrics, named by the
// module that does the work.
func (a *layerAcc) report() []metric {
	var totalFrames, totalBytes int64
	for k := range a.frames {
		totalFrames += a.frames[k]
		totalBytes += a.bytes[k]
	}
	data := float64(a.frames[transport.KindData])
	c := func(x metrics.Counter) float64 { return float64(a.counters[x]) }
	hops := float64(len(a.mpiSend))
	ops := a.ops
	n := func(k int) string { return itoa(k) + " samples" }
	per := func(what string) string { return "per " + what }
	useful := data - c(metrics.FramesRetried)
	if useful < 0 {
		useful = 0
	}
	return []metric{
		{"transport.send_self_us", "us", ratio(float64(a.sendSelfNs), float64(a.sends)) / 1e3, n(int(a.sends))},
		{"transport.deliver_us", "us", ratio(float64(a.deliverNs), float64(a.delivers)) / 1e3, n(int(a.delivers))},
		{"transport.frames_per_op.data", "count", ratio(data, ops), per("op")},
		{"transport.frames_per_op.agreement", "count", ratio(float64(a.frames[transport.KindAgreement]), ops), per("op")},
		{"transport.frames_per_op.ack", "count", ratio(float64(a.frames[transport.KindAck]), ops), per("op")},
		{"transport.frames_per_op.control", "count", ratio(float64(a.frames[transport.KindControl]), ops), per("op")},
		{"transport.frames_per_op.chainack", "count", ratio(float64(a.frames[transport.KindChainAck]), ops), per("op")},
		{"transport.bytes_per_op", "bytes", ratio(float64(totalBytes), ops), per("op")},
		{"mpi.send_us", "us", quantile(a.mpiSend, 0.5), n(len(a.mpiSend))},
		{"mpi.hop_us", "us", quantile(a.hop, 0.5), n(len(a.hop))},
		{"mpi.allocs_per_hop", "count", ratio(float64(a.mallocs), hops), per("hop")},
		{"mpi.alloc_bytes_per_hop", "bytes", ratio(float64(a.allocBytes), hops), per("hop")},
		{"mpi.validate_all_us", "us", ratio(float64(a.validateNs), float64(a.validates)) / 1e3, n(int(a.validates))},
		{"mpi.agreement_frames_per_validate", "count", ratio(float64(a.frames[transport.KindAgreement]), float64(a.validates)), per("validate")},
		{"mpi.agreement_bytes_per_validate", "bytes", ratio(float64(a.bytes[transport.KindAgreement]), float64(a.validates)), per("validate")},
		{"collective.allreduce_us", "us", quantile(a.allreduce, 0.5), n(len(a.allreduce))},
		{"collective.bcast_us", "us", quantile(a.bcast, 0.5), n(len(a.bcast))},
		{"reliable.acks_per_data_frame", "ratio", ratio(float64(a.frames[transport.KindAck]), data), per("data frame")},
		{"reliable.useful_frame_ratio", "ratio", ratio(useful, float64(totalFrames)), itoa(int(totalFrames)) + " frames"},
		{"reliable.retries", "count", c(metrics.FramesRetried), "total"},
		{"reliable.dedup_drops", "count", c(metrics.FramesDeduped), "total"},
		{"replication.copies_per_send", "ratio", 1 + ratio(c(metrics.ReplicaSends), c(metrics.Sends)), per("send")},
		{"replication.chain_acks_per_lap", "count", ratio(float64(a.frames[transport.KindChainAck]), ops), per("op")},
		{"replication.dedup_drops", "count", c(metrics.ReplicaDedupDrops), "total"},
		{"membership.control_frames_per_rank_s", "frames/rank/s", ratio(float64(a.frames[transport.KindControl]), a.rankSeconds), "per rank-second"},
		{"membership.false_suspicions", "count", c(metrics.FalseSuspicions), "total"},
		{"trace.events_per_hop", "count", ratio(float64(a.traceEvents), hops), per("hop")},
		{"trace.truncated", "count", float64(a.truncated), "total"},
		{"detector.failover_us", "us", quantile(a.failover, 0.5), n(len(a.failover))},
		{"core.resends_per_kill", "count", ratio(float64(a.resends), float64(a.kills)), itoa(a.kills) + " kills"},
		{"core.neighbor_scans_per_kill", "count", ratio(float64(a.extraScans), float64(a.kills)), itoa(a.kills) + " kills"},
		{"election.takeover_us", "us", quantile(a.takeover, 0.5), n(len(a.takeover))},
		{"recovery.resume_us_p50", "us", quantile(a.resume, 0.5), n(len(a.resume)) + ", untraced"},
		{"recovery.resume_us_p90", "us", quantile(a.resume, 0.9),
			fmt.Sprintf("%d samples (%d beyond), untraced", len(a.resume), beyond(len(a.resume), 0.9))},
	}
}
