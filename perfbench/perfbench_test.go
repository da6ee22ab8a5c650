package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/reliable"
	"repro/internal/transport"
)

// nonRetainingFabric is a Local that claims NonRetaining, standing in for
// a fabric (such as TCP) that copies inside Send.
type nonRetainingFabric struct{ *transport.Local }

func (nonRetainingFabric) NonRetainingSend() {}

func TestTimingFabricClaimsNonRetainingOnlyWhenInnerDoes(t *testing.T) {
	fab, _ := newTimingFabric(transport.NewLocal(), 2, nil)
	if _, ok := fab.(transport.NonRetaining); ok {
		t.Fatal("timing fabric over Local claims NonRetaining")
	}
	fab, _ = newTimingFabric(nonRetainingFabric{transport.NewLocal()}, 2, nil)
	if _, ok := fab.(transport.NonRetaining); !ok {
		t.Fatal("timing fabric over a NonRetaining fabric does not claim it")
	}
}

// TestTimingFabricKeepsDefensiveCopy checks the claim end to end: over
// Local, the p2p path must still copy the payload, so a sender that
// reuses its buffer right after Send cannot change what is received.
func TestTimingFabricKeepsDefensiveCopy(t *testing.T) {
	fab, _ := newTimingFabric(transport.NewLocal(), 2, nil)
	w, err := mpi.NewWorld(2, mpi.WithFabric(fab))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			buf := []byte("original")
			if err := c.Send(1, 7, buf); err != nil {
				return err
			}
			copy(buf, "CLOBBER!")
			return nil
		}
		pl, _, err := c.Recv(0, 7)
		got = pl
		return err
	})
	if err != nil || res.FirstError() != nil {
		t.Fatalf("run: %v %v", err, res.FirstError())
	}
	if string(got) != "original" {
		t.Fatalf("received %q, want %q", got, "original")
	}
}

func TestTimingFabricCountsByKindAndKeepsFIFO(t *testing.T) {
	const ranks, perSender = 4, 300
	rec := newRecorder(ranks, 4*perSender)
	fab, tf := newTimingFabric(transport.NewLocal(), ranks, rec)
	var mu sync.Mutex
	lastSeq := map[[2]int]uint64{}
	var reorders int
	if err := fab.Start(func(dst int, pkt *transport.Packet) {
		mu.Lock()
		defer mu.Unlock()
		k := [2]int{pkt.Src, dst}
		if pkt.Seq <= lastSeq[k] {
			reorders++
		}
		lastSeq[k] = pkt.Seq
	}); err != nil {
		t.Fatal(err)
	}
	kinds := []transport.Kind{transport.KindData, transport.KindAgreement, transport.KindAck,
		transport.KindControl, transport.KindChainAck}
	var wantFrames, wantBytes [numKinds]int64
	for i := 0; i < perSender; i++ {
		k := kinds[i%len(kinds)]
		wantFrames[k] += ranks
		wantBytes[k] += int64(ranks * (i % 17))
	}
	var wg sync.WaitGroup
	for src := 0; src < ranks; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				dst := (src + 1 + i%2) % ranks
				pkt := &transport.Packet{Src: src, Dst: dst, Kind: kinds[i%len(kinds)],
					Seq: uint64(i + 1), Payload: make([]byte, i%17)}
				if err := fab.Send(pkt); err != nil {
					t.Error(err)
				}
			}
		}(src)
	}
	wg.Wait()
	if reorders != 0 {
		t.Fatalf("%d packets overtook an earlier one on the same (src, dst)", reorders)
	}
	frames, bytes := tf.totals()
	if frames != wantFrames || bytes != wantBytes {
		t.Fatalf("frames %v bytes %v, want %v %v", frames, bytes, wantFrames, wantBytes)
	}
	// Every send and every delivery left one span in its sender's buffer.
	for src := 0; src < ranks; src++ {
		var sends, delivers int
		for _, s := range rec.spansOf(src) {
			switch s.name {
			case spTransportSend:
				sends++
			case spTransportDeliver:
				delivers++
			}
		}
		if sends != perSender || delivers != perSender {
			t.Fatalf("rank %d: %d send and %d deliver spans, want %d each", src, sends, delivers, perSender)
		}
	}
}

func TestLinkParentsAndSelfTime(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, op: 7, name: spMPISend},
		{start: 10, end: 30, name: spTransportSend},
		{start: 12, end: 28, name: spTransportDeliver},
		{start: 50, end: 60, name: spTransportSend},
		{start: 200, end: 210, name: spMPISend},
	}
	for i := range spans {
		spans[i].parent = -1
	}
	l := link(spans)
	wantParent := []int32{-1, 0, 1, 0, -1}
	wantSelf := []int64{70, 4, 16, 10, 10}
	for i, s := range l.spans {
		if s.parent != wantParent[i] || l.self[i] != wantSelf[i] {
			t.Errorf("span %d (%s): parent %d self %d, want %d %d",
				i, spanNames[s.name], s.parent, l.self[i], wantParent[i], wantSelf[i])
		}
	}
	if l.spans[2].op != 7 {
		t.Errorf("grandchild op %d, want the root's op 7", l.spans[2].op)
	}
}

func TestSpanNamesAreDistinctAndComplete(t *testing.T) {
	seen := map[string]spanName{}
	for n := spanName(0); n < numSpanNames; n++ {
		name := spanNames[n]
		if name == "" {
			t.Errorf("span %d has no name", n)
		} else if prev, dup := seen[name]; dup {
			t.Errorf("spans %d and %d share the name %q", prev, n, name)
		}
		seen[name] = n
	}
}

// TestWriteSpansLabelsEachSpan checks the JSONL dump names every span by
// its own kind.
func TestWriteSpansLabelsEachSpan(t *testing.T) {
	var spans []span
	for n := spMPISend; n < numSpanNames; n++ {
		spans = append(spans, span{start: int64(10 * n), end: int64(10*n + 5), parent: -1, name: n})
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, []linked{link(spans)}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(spans) {
		t.Fatalf("%d lines, want %d", len(lines), len(spans))
	}
	for i, line := range lines {
		var row struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		if want := spanNames[spMPISend+spanName(i)]; row.Name != want {
			t.Errorf("line %d named %q, want %q", i, row.Name, want)
		}
	}
}

func TestAppendBufReportsOverflow(t *testing.T) {
	a := newAppendBuf[int64](2)
	for i := int64(0); i < 3; i++ {
		if idx, ok := a.add(i); idx != int(i) || ok != (i < 2) {
			t.Fatalf("add %d: index %d kept %v", i, idx, ok)
		}
	}
	if got, complete := a.get(); len(got) != 2 || complete {
		t.Fatalf("get: %v complete=%v, want 2 items and an overflow", got, complete)
	}
	a.reset()
	if got, complete := a.get(); len(got) != 0 || !complete {
		t.Fatalf("after reset: %v complete=%v", got, complete)
	}
}

func TestPairSendsAndHops(t *testing.T) {
	rec := newRecorder(3, 16)
	add := func(rank int, at int64, name spanName, peer int32) {
		rec.add(rank, span{start: at, end: at, parent: -1, peer: peer, tag: 1, name: name})
	}
	add(0, 10, spBeforeSend, 2) // a send to a dead peer: no AfterSend
	add(0, 20, spBeforeSend, 1)
	add(0, 25, spAfterSend, 1)
	add(1, 40, spAfterRecv, 0)
	add(0, 50, spBeforeSend, 1)
	add(0, 52, spAfterSend, 1)
	add(1, 60, spAfterRecv, 0)
	sends := pairSends(0, rec.spansOf(0))
	if len(sends) != 2 || sends[0].op == sends[1].op {
		t.Fatalf("paired sends %+v, want two with distinct ops", sends)
	}
	if sends[0].start != 20 || sends[0].end != 25 || sends[1].start != 50 || sends[1].end != 52 {
		t.Errorf("sends [%d,%d] [%d,%d], want [20,25] [50,52]", sends[0].start, sends[0].end, sends[1].start, sends[1].end)
	}
	hops := hopTimes(rec, 3)
	if len(hops) != 2 || hops[0] != 15e-3 || hops[1] != 8e-3 {
		t.Fatalf("hops %v µs, want [0.015 0.008]", hops)
	}
}

// TestTimingFabricSitsUnderReliableAndReplication checks that the timing
// fabric is the base the world stacks its layers on: with the reliability
// sublayer and chain replication on, it sees their acks and chain acks.
func TestTimingFabricSitsUnderReliableAndReplication(t *testing.T) {
	const logical, r, msgs = 2, 2, 10
	fab, tf := newTimingFabric(transport.NewLocal(), logical*r, nil)
	w, err := mpi.NewWorld(logical, mpi.WithFabric(fab), mpi.WithReliability(reliable.Options{}),
		mpi.WithReplication(mpi.ReplicationOptions{R: r, Mode: mpi.ReplChain}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		for i := 0; i < msgs; i++ {
			if p.Rank() == 0 {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
					return err
				}
			} else if _, _, err := c.Recv(0, 3); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || res.FirstError() != nil {
		t.Fatalf("run: %v %v", err, res.FirstError())
	}
	frames, _ := tf.totals()
	if frames[transport.KindData] < msgs*r || frames[transport.KindAck] == 0 || frames[transport.KindChainAck] == 0 {
		t.Fatalf("frames by kind %v: want data >= %d and some acks and chain acks", frames, msgs*r)
	}
}

// TestWorkloadsPassTheirChecks runs one world of every workload that
// uses the oracle detector, untraced and traced, and expects every output
// check to pass and the traced worlds to yield their layer samples.
// (ring-hardened runs SWIM, which fences live replicas when a rank is
// starved of CPU for longer than its suspicion timeout, as under the race
// detector; README.md lists that defect, and the benchmark runs
// themselves exercise that workload.)
func TestWorkloadsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-size ring world")
	}
	for _, traced := range []bool{false, true} {
		b := &bench{seed: 3, traced: traced, layers: &layerAcc{}}
		if traced {
			b.rec = newRecorder(ringN, 7*ringLaps+64)
		}
		steps := []func() error{
			func() error { return b.bspWorld(probeN, probeSteps, 1) },
			func() error { return b.recoveryWorld(8, 16, 1, 2) },
			func() error { return b.ringWorld(false) },
		}
		for i, step := range steps {
			if err := step(); err != nil {
				t.Fatalf("traced=%v world %d: %v", traced, i, err)
			}
		}
		if b.failed != 0 {
			t.Fatalf("traced=%v: %d of %d checks failed: %v", traced, b.failed, b.attempted, b.problems)
		}
		if traced {
			a := b.layers
			if len(a.allreduce) == 0 || len(a.failover) == 0 || len(a.hop) == 0 || a.sends == 0 || a.ops == 0 {
				t.Fatalf("traced layers missing samples: allreduce=%d failover=%d hop=%d sends=%d ops=%v",
					len(a.allreduce), len(a.failover), len(a.hop), a.sends, a.ops)
			}
		}
	}
}
