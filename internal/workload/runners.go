package workload

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/inject"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// runLowestAliveElection kills the k lowest ranks and has every survivor
// run the Fig. 12 election, returning each survivor's choice.
func runLowestAliveElection(n, k int) (map[int]int, time.Duration, error) {
	w, err := mpi.NewWorld(n, mpi.WithDeadline(60*time.Second))
	if err != nil {
		return nil, 0, err
	}
	var mu sync.Mutex
	elected := map[int]int{}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Rank() < k {
			p.Die()
		}
		for p.Registry().AliveCount() > n-k {
			time.Sleep(time.Millisecond)
		}
		r := election.LowestAlive(p, c)
		mu.Lock()
		elected[p.Rank()] = r
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for rank, rr := range res.Ranks {
		if rank >= k && rr.Err != nil {
			return nil, 0, fmt.Errorf("rank %d: %w", rank, rr.Err)
		}
	}
	return elected, res.Elapsed, nil
}

// runValidateBench measures repeated ValidateAll calls on a world with f
// pre-failed ranks (highest ranks die so rank 0 coordinates).
func runValidateBench(n, f, reps int) (time.Duration, int64, int, error) {
	mets := metrics.NewWorld(n)
	w, err := mpi.NewWorld(n, mpi.WithDeadline(60*time.Second), mpi.WithMetrics(mets))
	if err != nil {
		return 0, 0, 0, err
	}
	var mu sync.Mutex
	var elapsed time.Duration
	agreed := -1
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Rank() >= n-f {
			p.Die()
		}
		for p.Registry().AliveCount() > n-f {
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		var cnt int
		for i := 0; i < reps; i++ {
			var verr error
			cnt, verr = c.ValidateAll()
			if verr != nil {
				return verr
			}
		}
		if p.Rank() == 0 {
			mu.Lock()
			elapsed = time.Since(start)
			agreed = cnt
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for rank, rr := range res.Ranks {
		if rank < n-f && rr.Err != nil {
			return 0, 0, 0, fmt.Errorf("rank %d: %w", rank, rr.Err)
		}
	}
	return elapsed, mets.Total(metrics.AgreementMsgs), agreed, nil
}

// runCollectiveSemantics reproduces the Section II collective rules as a
// table: per-rank broadcast outcomes under a mid-tree death, the
// collective gate, and the post-validate recovery.
func runCollectiveSemantics(Options) ([]*Table, error) {
	const n = 8
	t1 := NewTable("E14a: Bcast return codes with mid-tree death (Section II)",
		"rank", "bcast-outcome")
	t2 := NewTable("E14b: collective gate and repair",
		"phase", "outcome")

	outcomes := make([]string, n)
	w, err := mpi.NewWorld(n,
		mpi.WithDeadline(60*time.Second),
		mpi.WithHook(func(ev mpi.HookEvent) mpi.Action {
			if ev.Rank == 6 && ev.Point == mpi.HookAfterRecv {
				return mpi.ActKill
			}
			return mpi.ActNone
		}))
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	gateBefore, gateAfter, allreduceSum := "", "", int64(-1)
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		_, bErr := collective.Bcast(c, 0, []byte("payload"))
		mu.Lock()
		switch {
		case bErr == nil:
			outcomes[p.Rank()] = "success"
		case mpi.IsRankFailStop(bErr):
			outcomes[p.Rank()] = "MPI_ERR_RANK_FAIL_STOP"
		default:
			outcomes[p.Rank()] = bErr.Error()
		}
		mu.Unlock()

		// Gate: once the failure notification lands, collectives are
		// disabled until validate_all repairs the communicator. (The root
		// can leave the broadcast before rank 6 dies, so wait for the
		// notification before sampling the gate.)
		for p.Registry().AliveCount() > n-1 {
			time.Sleep(time.Millisecond)
		}
		if gerr := c.CollectiveOK(); p.Rank() == 0 {
			mu.Lock()
			if mpi.IsRankFailStop(gerr) {
				gateBefore = "disabled (MPI_ERR_RANK_FAIL_STOP)"
			} else {
				gateBefore = fmt.Sprint(gerr)
			}
			mu.Unlock()
		}
		if _, verr := c.ValidateAll(); verr != nil {
			return verr
		}
		out, aerr := collective.Allreduce(c, collective.EncodeInt64s([]int64{1}), collective.SumInt64)
		if aerr != nil {
			return aerr
		}
		v, derr := collective.DecodeInt64s(out)
		if derr != nil {
			return derr
		}
		if p.Rank() == 0 {
			mu.Lock()
			gateAfter = "re-enabled"
			allreduceSum = v[0]
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for rank := 0; rank < n; rank++ {
		if rank == 6 {
			t1.Add(rank, "killed mid-tree (after receiving, before forwarding)")
			continue
		}
		if res.Ranks[rank].Err != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, res.Ranks[rank].Err)
		}
		t1.Add(rank, outcomes[rank])
	}
	t1.Note("return codes are intentionally inconsistent: the root left the tree before the death")
	t2.Add("collective gate after failure", gateBefore)
	t2.Add("gate after MPI_Comm_validate_all", gateAfter)
	t2.Add("allreduce(+1) over survivors", fmt.Sprintf("%d (want %d)", allreduceSum, n-1))
	return []*Table{t1, t2}, nil
}

// runPlacementSweep answers the paper's Section III-E question ("how can
// a developer know when they have addressed ALL of the problematic fault
// scenarios?") by brute force over a small ring: every (victim, hook
// point, ordinal) single-failure placement — and, with the root as the
// victim, every placement under RootElect — is executed; the table
// reports how many placements the design survived.
func runPlacementSweep(opt Options) ([]*Table, error) {
	t := NewTable("E16: exhaustive single-failure placement sweep (Sec. III-E)",
		"victim", "placements", "survived", "resends-total", "dups-dropped-total")
	n, iters := 4, 4
	if opt.Quick {
		iters = 3
	}
	points := []func(rank, ord int) inject.Trigger{
		func(r, o int) inject.Trigger { return inject.AfterNthRecv(r, o) },
		func(r, o int) inject.Trigger { return inject.AfterNthSend(r, o) },
		func(r, o int) inject.Trigger { return inject.BeforeNthSend(r, o) },
	}
	for victim := 0; victim < n; victim++ {
		placements, survived := 0, 0
		resends, dropped := 0, 0
		for _, mk := range points {
			for ord := 1; ord <= iters; ord++ {
				placements++
				plan := inject.NewPlan().Add(mk(victim, ord))
				cfg := core.Config{Iters: iters, Variant: core.VariantFull, Termination: core.TermValidateAll}
				if victim == 0 {
					cfg.RootPolicy = core.RootElect
				}
				report, res, _, err := ringOnce(opt, n, cfg,
					func(m *mpi.Config) { m.Hook = plan.Hook() })
				if err != nil {
					continue
				}
				ok := true
				for rank, rr := range res.Ranks {
					if rr.Killed {
						continue
					}
					if !rr.Finished || rr.Err != nil || !report.Rank(rank).Terminated {
						ok = false
					}
				}
				if ok {
					survived++
					resends += report.TotalResends()
					dropped += report.TotalDupsDropped()
				}
			}
		}
		label := fmt.Sprint(victim)
		if victim == 0 {
			label = "0 (root, elect)"
		}
		t.Add(label, placements, survived, resends, dropped)
	}
	t.Note("survived == placements means no single-failure placement breaks the design")
	return []*Table{t}, nil
}

// runLargeN scales the two matching-heavy workloads — the full FT ring
// and a world-wide validate_all — to world sizes far beyond the paper's
// examples, over the Local fabric. It exists to demonstrate that the
// indexed matching engine keeps per-operation cost flat as the number of
// (source, tag) keys grows; the linear-scan engine it replaced degraded
// quadratically here (EXPERIMENTS.md E17 has head-to-head numbers).
func runLargeN(opt Options) ([]*Table, error) {
	t := NewTable("E17: large-N scaling over the indexed matching engine",
		"ranks", "ring-iters", "ring-elapsed", "us/hop", "validate-elapsed", "agreement-msgs")
	iters := 4
	for _, n := range opt.sizes([]int{256, 1024, 4096}) {
		report, res, _, err := ringOnce(opt, n, core.Config{Iters: iters, Variant: core.VariantFull}, nil)
		if err != nil {
			return nil, fmt.Errorf("ring n=%d: %w", n, err)
		}
		if got := len(report.Rank(0).RootValues); got != iters {
			return nil, fmt.Errorf("ring n=%d: root absorbed %d/%d iterations", n, got, iters)
		}
		vElapsed, vMsgs, _, err := runValidateBench(n, 0, 1)
		if err != nil {
			return nil, fmt.Errorf("validate n=%d: %w", n, err)
		}
		hops := iters * n
		t.Add(n, iters, res.Elapsed,
			float64(res.Elapsed.Microseconds())/float64(hops), vElapsed, vMsgs)
	}
	t.Note("us/hop flat in ranks = O(1) matching; the pre-index engine grew linearly with queue depth")
	return []*Table{t}, nil
}

// runTransportComparison runs the same FT ring over the in-memory fabric,
// TCP loopback with the pooled binary framing, and a latency-model fabric.
func runTransportComparison(opt Options) ([]*Table, error) {
	t := NewTable("E15: same ring, different fabrics",
		"fabric", "ranks", "iters", "elapsed", "us/iter")
	n, iters := 8, 64
	if opt.Quick {
		iters = 16
	}
	fabrics := []struct {
		name string
		make func() transport.Fabric
	}{
		{"local (in-memory)", func() transport.Fabric { return transport.NewLocal() }},
		{"tcp (binary codec)", func() transport.Fabric { return transport.NewTCP(n) }},
		{"local + 100us latency", func() transport.Fabric {
			return transport.NewLatency(transport.NewLocal(), 100*time.Microsecond)
		}},
	}
	for _, f := range fabrics {
		_, res, _, err := ringOnce(opt, n, core.Config{Iters: iters, Variant: core.VariantFull},
			func(m *mpi.Config) { m.Fabric = f.make() })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		t.Add(f.name, n, iters, res.Elapsed,
			float64(res.Elapsed.Microseconds())/float64(iters))
	}
	t.Note("identical engine semantics over all three; only the wire differs")
	return []*Table{t}, nil
}
