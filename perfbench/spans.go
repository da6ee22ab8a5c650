package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// spanName names a layer boundary the benchmark observes from outside the
// runtime. The hook points are recorded as instants (start == end) and
// paired into mpi.send spans when a world ends.
type spanName uint8

const (
	spBeforeSend       spanName = iota // hook instant
	spAfterSend                        // hook instant
	spAfterRecv                        // hook instant
	spMPISend                          // BeforeSend -> AfterSend on one rank
	spTransportSend                    // timing fabric: inner Send
	spTransportDeliver                 // timing fabric: DeliverFunc
	spAllreduce                        // collective.Allreduce call
	spBcast                            // collective.Bcast call
	spValidate                         // Comm.ValidateAll call
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spBeforeSend:       "hook.before_send",
	spAfterSend:        "hook.after_send",
	spAfterRecv:        "hook.after_recv",
	spMPISend:          "mpi.send",
	spTransportSend:    "transport.send",
	spTransportDeliver: "transport.deliver",
	spAllreduce:        "collective.allreduce",
	spBcast:            "collective.bcast",
	spValidate:         "mpi.validate_all",
}

func (n spanName) instant() bool { return n <= spAfterRecv }

// span is one interval on one rank. parent is an index into the same
// rank's span list (-1: none); op identifies the message the span served,
// shared by the send, transport and receive spans of that message.
type span struct {
	start, end int64 // ns since the recorder's epoch
	op         uint64
	parent     int32
	peer       int32
	tag        int32
	name       spanName
	kind       transport.Kind
}

// recorder holds the per-rank span buffers of one traced world. Writers
// append without a lock, so the hook path takes none; two replicas of a
// logical rank share one buffer and claim distinct slots. Buffers are
// reused across worlds; a full buffer drops further spans and counts them.
type recorder struct {
	bufs    []appendBuf[span]
	dropped atomic.Int64
}

// newRecorder sizes the buffers for one world of ranks ranks. Rank 0 is
// the ring root, the collective root and the agreement coordinator, so
// its buffer is four times the others.
func newRecorder(ranks, perRank int) *recorder {
	r := &recorder{bufs: make([]appendBuf[span], ranks)}
	for i := range r.bufs {
		n := perRank
		if i == 0 {
			n *= 4
		}
		r.bufs[i].v = make([]span, n)
	}
	return r
}

func (r *recorder) add(rank int, s span) {
	if _, ok := r.bufs[rank].add(s); !ok {
		r.dropped.Add(1)
	}
}

// spansOf returns rank's recorded spans. Call only after the world ended.
func (r *recorder) spansOf(rank int) []span {
	s, _ := r.bufs[rank].get()
	return s
}

func (r *recorder) reset() {
	for i := range r.bufs {
		r.bufs[i].reset()
	}
	r.dropped.Store(0)
}

// hook returns the world hook for a traced run: it stamps the three
// message hook points on the calling rank and then defers to next (the
// workload's fault plan, or nil).
func (r *recorder) hook(next mpi.HookFunc) mpi.HookFunc {
	return func(ev mpi.HookEvent) mpi.Action {
		name := numSpanNames
		switch ev.Point {
		case mpi.HookBeforeSend:
			name = spBeforeSend
		case mpi.HookAfterSend:
			name = spAfterSend
		case mpi.HookAfterRecv:
			name = spAfterRecv
		}
		if name != numSpanNames {
			t := now()
			r.add(ev.Rank, span{start: t, end: t, parent: -1, peer: int32(ev.Peer), tag: int32(ev.Tag), name: name})
		}
		if next == nil {
			return mpi.ActNone
		}
		return next(ev)
	}
}

// --- analysis, run once per world after it ended ---------------------------

// linked is a rank's spans after analysis: hook instants paired into
// mpi.send spans, parents assigned by interval containment, ops
// propagated from parent to child, and each span's self time.
type linked struct {
	spans []span
	self  []int64
}

// pairSends turns rank's BeforeSend/AfterSend instants into mpi.send
// spans, pairing FIFO per (peer, tag), and gives each the op id of the
// message it sent. A send that failed has no AfterSend and stays unpaired.
func pairSends(rank int, in []span) []span {
	open := map[msgKey][]int64{}
	sent := map[msgKey]uint64{}
	var out []span
	for _, s := range in {
		k := msgKey{int32(rank), s.peer, s.tag}
		switch s.name {
		case spBeforeSend:
			open[k] = append(open[k], s.start)
		case spAfterSend:
			q := open[k]
			if len(q) == 0 {
				continue
			}
			sent[k]++
			out = append(out, span{start: q[0], end: s.start, op: opID(k, sent[k]), parent: -1,
				peer: s.peer, tag: s.tag, name: spMPISend})
			open[k] = q[1:]
		}
	}
	return out
}

// link assigns each interval span the innermost span on the same rank
// that contains it as parent, and computes self time as duration minus
// the union of the direct children's intervals.
func link(spans []span) linked {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // union of direct children
	lastEnd := make([]int64, len(spans)) // furthest child end seen
	var stack []int32
	for i := range spans {
		s := &spans[i]
		self[i] = s.end - s.start
		lastEnd[i] = s.start
		for len(stack) > 0 {
			top := &spans[stack[len(stack)-1]]
			if top.start <= s.start && s.end <= top.end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			s.parent = p
			if s.op == 0 {
				s.op = spans[p].op
			}
			from := s.start
			if lastEnd[p] > from {
				from = lastEnd[p]
			}
			if s.end > from {
				covered[p] += s.end - from
				lastEnd[p] = s.end
			}
		}
		stack = append(stack, int32(i))
	}
	for i := range self {
		self[i] -= covered[i]
	}
	return linked{spans: spans, self: self}
}

// msgKey identifies a point-to-point channel for hop pairing.
type msgKey struct{ src, dst, tag int32 }

// hopTimes pairs every AfterRecv on rank d from r with the latest
// AfterSend on r to d on the same tag that precedes it, and returns the
// hop latencies in µs. Pairing with the latest preceding send tolerates
// receipts that fire no hook (see ringWorld) and the second sender of a
// replicated channel.
func hopTimes(rec *recorder, ranks int) []float64 {
	sends := map[msgKey][]int64{}
	recvs := map[msgKey][]int64{}
	for r := 0; r < ranks; r++ {
		for _, s := range rec.spansOf(r) {
			switch s.name {
			case spAfterSend:
				k := msgKey{int32(r), s.peer, s.tag}
				sends[k] = append(sends[k], s.start)
			case spAfterRecv:
				k := msgKey{s.peer, int32(r), s.tag}
				recvs[k] = append(recvs[k], s.start)
			}
		}
	}
	var out []float64
	for k, rv := range recvs {
		sv := sends[k]
		sort.Slice(sv, func(i, j int) bool { return sv[i] < sv[j] })
		for _, t := range rv {
			if i := sort.Search(len(sv), func(i int) bool { return sv[i] > t }); i > 0 {
				out = append(out, float64(t-sv[i-1])/1e3)
			}
		}
	}
	return out
}

// opID names the ordinal-th message on channel k.
func opID(k msgKey, ordinal uint64) uint64 {
	h := uint64(k.src)*0x9E3779B97F4A7C15 ^ uint64(k.dst)*0xC2B2AE3D27D4EB4F ^ uint64(uint32(k.tag))*0x165667B19E3779F9
	return h ^ ordinal
}

// writeSpans writes one world's linked spans as JSON lines, one span per
// line, for offline inspection.
func writeSpans(path string, perRank []linked) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type row struct {
		Rank   int    `json:"rank"`
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
		Parent int32  `json:"parent"`
		Op     uint64 `json:"op"`
		Peer   int32  `json:"peer"`
		Tag    int32  `json:"tag"`
		Kind   string `json:"kind,omitempty"` // packet kind of transport spans
	}
	for rank, l := range perRank {
		for i, s := range l.spans {
			r := row{rank, i, spanNames[s.name], s.start, s.end, l.self[i], s.parent, s.op, s.peer, s.tag, ""}
			if s.name == spTransportSend || s.name == spTransportDeliver {
				r.Kind = s.kind.String()
			}
			if err := enc.Encode(r); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
