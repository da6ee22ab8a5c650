package main

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/reliable"
	"repro/internal/trace"
)

// Workload sizes. Each world is a fixed amount of work; a run builds
// worlds back to back until its time is up.
const (
	ringN, ringLaps        = 256, 400
	hardN, hardR, hardLaps = 32, 2, 250
	// SWIM's default 2 ms period suspects a rank after 4 ms without an
	// ack, and stalls that long occur on a shared 2-vCPU machine: in one
	// of ten 35 s runs it fenced live replicas (README.md, known defects).
	hardSwimPeriod          = 10 * time.Millisecond
	bspN, bspSteps, bspVec  = 64, 128, 16
	bspValidateEvery        = 16
	recN, recLaps, recKills = 32, 64, 2 // plus one root kill per world
	// Traced-run probes of layers a workload skips: one BSP world of
	// probeN ranks, and recovery worlds of the recovery workload's size.
	probeN, probeSteps                      = 8, 32
	probeResumeWorlds, probeTracedRecWorlds = 40, 8
)

// ringWorld runs the paper's FT ring once: one token, root-elect,
// validate_all termination. hardened adds the production stack:
// chain replication, the reliability sublayer, SWIM, metrics, an obs
// registry and a bounded flight recorder.
func (b *bench) ringWorld(hardened bool) error {
	n, r, laps := ringN, 1, ringLaps
	if hardened {
		n, r, laps = hardN, hardR, hardLaps
	}
	report := core.NewReport(n)
	sends := newAppendBuf[int64](r*laps + 16)
	// The only hook the untraced run needs: stamp the root's ring sends.
	// The root originates marker k+1 right after absorbing marker k, so
	// consecutive originations bound one lap. (The after-receive hook is
	// not used: core consumes some receipts from a retired request's
	// payload, which fires no hook, and under replication that happens on
	// most laps of the standby root.) Every replica of logical rank 0
	// fires the hook, and each stops at the heap measurement point.
	hook := func(ev mpi.HookEvent) mpi.Action {
		if ev.Point == mpi.HookAfterSend && ev.Tag == core.TagRing && ev.Rank == 0 {
			if i, _ := sends.add(now()); i >= r*laps/2 {
				b.markHeap()
			}
		}
		return mpi.ActNone
	}
	cfg := core.Config{Iters: laps, Variant: core.VariantFull,
		Termination: core.TermValidateAll, RootPolicy: core.RootElect}
	wc := worldCfg{logical: n, phys: n * r, hook: hook, body: core.Body(cfg, report)}
	if hardened {
		wc.mets = metrics.NewWorld(n * r)
		wc.reg = obs.NewRegistry(n * r)
		wc.tracer = trace.New(1 << 16)
		wc.opts = []mpi.Option{
			mpi.WithReplication(mpi.ReplicationOptions{R: r, Mode: mpi.ReplChain}),
			mpi.WithReliability(reliable.Options{}),
			mpi.WithSwim(membership.Options{Seed: b.seed, Period: hardSwimPeriod}),
			mpi.WithMetrics(wc.mets), mpi.WithObservability(wc.reg), mpi.WithTracer(wc.tracer),
		}
	}
	out, err := b.runWorld(wc)
	if err != nil {
		return err
	}
	if b.traced {
		b.layers.ops += float64(laps)
	}
	b.checkRanks(out.res, nil)
	for l := 0; l < n; l++ {
		b.check(report.Rank(l).Terminated, "rank %d did not terminate", l)
	}
	// Every marker absorbed exactly once, carrying the live ring size.
	root := report.Rank(0)
	for m := 0; m < laps; m++ {
		v, ok := root.RootValues[int64(m)]
		b.check(ok && v == int64(n), "marker %d: absorbed=%v value=%d want %d", m, ok, v, n)
	}
	b.check(root.Iterations == laps, "root absorbed %d laps, want %d", root.Iterations, laps)
	ts, complete := sends.get()
	b.check(complete && len(ts) == r*laps, "root ring sends %d, want %d", len(ts), r*laps)
	b.setup(out.setup)
	if len(ts) != r*laps {
		return nil
	}
	// With R replicas of the root every origination is stamped R times;
	// the first stamp of each is when the marker left.
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	first := func(k int) int64 { return ts[k*r] }
	for k := 1; k < laps; k++ {
		b.op(float64(first(k)-first(k-1)) / 1e3)
	}
	b.throughput(float64(laps-1), float64(first(laps-1)-first(0))/1e9)
	return nil
}

// bspWorld runs a bulk-synchronous solver loop: every step is an
// Allreduce of a 16×int64 vector and a Bcast from rank 0, and every 16th
// step ends with ValidateAll. Inputs come from the world seed.
func (b *bench) bspWorld(n, steps int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	contrib := make([][]byte, steps)
	want := make([][]byte, steps)
	payload := make([][]byte, steps)
	for s := range contrib {
		v := make([]int64, bspVec)
		sum := make([]int64, bspVec)
		p := make([]int64, bspVec)
		for i := range v {
			v[i] = rng.Int63n(1<<20) - 1<<19
			sum[i] = int64(n) * v[i]
			p[i] = rng.Int63()
		}
		contrib[s] = collective.EncodeInt64s(v)
		want[s] = collective.EncodeInt64s(sum)
		payload[s] = collective.EncodeInt64s(p)
	}
	stepUS := make([]float64, 0, steps)
	var okSteps atomic.Int64
	rec := b.rec
	traced := b.traced
	body := func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		me := p.Rank()
		for s := 0; s < steps; s++ {
			t0 := now()
			sum, err := collective.Allreduce(c, contrib[s], collective.SumInt64)
			if err != nil {
				return err
			}
			t1 := now()
			var in []byte
			if me == 0 {
				in = payload[s]
			}
			got, err := collective.Bcast(c, 0, in)
			if err != nil {
				return err
			}
			t2 := now()
			ok := bytes.Equal(sum, want[s]) && bytes.Equal(got, payload[s])
			t3 := t2
			if (s+1)%bspValidateEvery == 0 {
				failed, err := c.ValidateAll()
				if err != nil {
					return err
				}
				t3 = now()
				ok = ok && failed == 0
			}
			if me == 0 {
				stepUS = append(stepUS, float64(t3-t0)/1e3)
				if s == steps/2 {
					b.markHeap()
				}
			}
			if traced {
				rec.add(me, span{start: t0, end: t1, parent: -1, peer: -1, name: spAllreduce})
				rec.add(me, span{start: t1, end: t2, parent: -1, peer: -1, name: spBcast})
				if t3 != t2 {
					rec.add(me, span{start: t2, end: t3, parent: -1, peer: -1, name: spValidate})
				}
			}
			if ok {
				okSteps.Add(1)
			}
		}
		return nil
	}
	out, err := b.runWorld(worldCfg{logical: n, phys: n, body: body})
	if err != nil {
		return err
	}
	b.checkRanks(out.res, nil)
	b.attempted += n * steps
	if bad := n*steps - int(okSteps.Load()); bad > 0 {
		b.failed += bad
		b.problem("%d of %d rank-steps returned a wrong Allreduce sum, Bcast payload or ValidateAll count", bad, n*steps)
	}
	b.setup(out.setup)
	total := 0.0
	for _, us := range stepUS {
		b.op(us)
		total += us
	}
	b.throughput(float64(len(stepUS)), total/1e6)
	if b.traced {
		b.layers.ops += float64(steps)
	}
	return nil
}

// killRecord is one kill the fault plan made.
type killRecord struct {
	at      int64
	rank    int
	wasRoot bool
}

// recoveryWorld runs the FT ring under a seeded fault plan: `kills`
// random non-root ranks die after a random receive, and the root dies
// after its k-th receive, all under the oracle detector.
func (b *bench) recoveryWorld(n, laps, kills int, seed int64) error {
	cands := make([]int, n-1)
	for i := range cands {
		cands[i] = i + 1
	}
	plan, _ := inject.RandomPlan(seed, cands, kills, laps)
	plan.Add(inject.AfterNthRecv(0, 1+rand.New(rand.NewSource(^seed)).Intn(laps)))
	planHook := plan.Hook()

	absorbs := newAppendBuf[int64](4*laps + 16)
	var root atomic.Int32 // lowest rank the plan has not killed
	var mu sync.Mutex     // guards dead and killLog; taken only on a kill
	dead := make([]bool, n)
	var killLog []killRecord
	hook := func(ev mpi.HookEvent) mpi.Action {
		act := planHook(ev)
		if act == mpi.ActKill {
			t := now()
			mu.Lock()
			dead[ev.Rank] = true
			killLog = append(killLog, killRecord{at: t, rank: ev.Rank, wasRoot: int32(ev.Rank) == root.Load()})
			r := int(root.Load())
			for r < n-1 && dead[r] {
				r++
			}
			root.Store(int32(r))
			mu.Unlock()
			return act
		}
		if ev.Point == mpi.HookAfterRecv && ev.Tag == core.TagRing && int32(ev.Rank) == root.Load() {
			if i, _ := absorbs.add(now()); i == laps/2 {
				b.markHeap()
			}
		}
		return act
	}
	report := core.NewReport(n)
	cfg := core.Config{Iters: laps, Variant: core.VariantFull,
		Termination: core.TermValidateAll, RootPolicy: core.RootElect}
	out, err := b.runWorld(worldCfg{logical: n, phys: n, hook: hook, body: core.Body(cfg, report)})
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	b.checkRanks(out.res, func(rank int) bool { return dead[rank] })
	killed := 0
	for _, rr := range out.res.Ranks {
		if rr.Killed {
			killed++
		}
	}
	b.check(killed == len(killLog), "%d ranks killed, plan fired %d", killed, len(killLog))
	// Each marker is absorbed at most once across every root, carrying a
	// ring size between the survivors and the full ring. A root killed
	// while holding the token takes that marker's absorption with it (the
	// runtime's documented contract, see TestExhaustiveRootFaultPlacement):
	// the one marker allowed missing per such death is the successor of
	// the dead root's last recorded absorption.
	seen := make([]int, laps)
	for rank := 0; rank < n; rank++ {
		for m, v := range report.Rank(rank).RootValues {
			if m >= 0 && m < int64(laps) {
				seen[m]++
			}
			b.check(v >= int64(n-killed) && v <= int64(n), "marker %d value %d outside [%d,%d]", m, v, n-killed, n)
		}
	}
	held := map[int]bool{}
	next := 0
	for _, k := range killLog {
		if !k.wasRoot {
			continue
		}
		for m := range report.Rank(k.rank).RootValues {
			if int(m)+1 > next {
				next = int(m) + 1
			}
		}
		held[next] = true
		next++
	}
	for m, k := range seen {
		b.check(k == 1 || (k == 0 && held[m]), "marker %d absorbed %d times", m, k)
	}
	b.check(report.TotalDupsForwarded() == 0, "%d duplicates forwarded", report.TotalDupsForwarded())

	ts, complete := absorbs.get()
	b.check(complete, "absorb stamps overflowed")
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	b.setup(out.setup)
	b.throughput(1, out.wall)
	// A kill after the last lap was absorbed has nothing to resume; the
	// marker checks above already cover a ring that stopped early.
	for _, k := range killLog {
		if i := sort.Search(len(ts), func(i int) bool { return ts[i] > k.at }); i < len(ts) {
			b.op(float64(ts[i]-k.at) / 1e3)
		}
	}
	if b.traced {
		b.layers.ops++
		b.recoveryLayers(n, killLog, report)
		b.layers.extraScans += out.mets.Total(metrics.NeighborScans) - int64(2*n)
	}
	return nil
}

// recoveryLayers measures, from the traced world's spans, how long each
// kill took to reach a survivor's send to a replacement neighbour
// (detector plus core failover) and, for a root kill, the new root's
// first ring send (election takeover).
func (b *bench) recoveryLayers(n int, kills []killRecord, report *core.Report) {
	a := b.layers
	dead := make([]bool, n)
	for _, k := range kills {
		dead[k.rank] = true
		dist := func(from, to int) int { return (to - from + n) % n }
		newRoot := 0
		for newRoot < n-1 && dead[newRoot] {
			newRoot++
		}
		fo, to := int64(-1), int64(-1)
		for r := 0; r < n; r++ {
			for _, s := range b.rec.spansOf(r) {
				if s.name != spAfterSend || s.tag != core.TagRing || s.start <= k.at || r == k.rank {
					continue
				}
				skips := int(s.peer) != k.rank && dist(r, k.rank) < dist(r, int(s.peer))
				if skips && (fo < 0 || s.start < fo) {
					fo = s.start
				}
				if k.wasRoot && r == newRoot && (to < 0 || s.start < to) {
					to = s.start
				}
			}
		}
		if fo >= 0 {
			a.failover = append(a.failover, float64(fo-k.at)/1e3)
		}
		if to >= 0 {
			a.takeover = append(a.takeover, float64(to-k.at)/1e3)
		}
	}
	a.kills += len(kills)
	a.resends += report.TotalResends()
}
