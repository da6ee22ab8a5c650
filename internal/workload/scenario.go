package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/election"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The scenario harness behind every seeded soak (E18-E24). A soak is a
// list of declarative Scenario rows; runScenario builds one seeded world
// for a row, runs its app body and checks its named invariants, and
// returns a Verdict. An experiment sweeps its rows over its seeds and
// renders tables from the verdicts; any broken verdict fails it, naming
// the scenario, the seed and the invariant.

// Scenario is one soak row: the world to build, the app to run on it and
// the invariants every seed must keep.
type Scenario struct {
	// Name labels the row in tables and verdicts.
	Name string
	// Ranks is the logical world size (each rank is backed by
	// Replication.R physical slots in a replicated world).
	Ranks int
	// Deadline bounds one world's wall-clock run (0 = 60s).
	Deadline time.Duration
	// Chaos builds the seed's network-fault plan; nil runs on clean links.
	Chaos func(seed int64) *chaos.Plan
	// Kill derives the seed's kill schedule; nil kills nobody.
	Kill func(seed int64) Kill
	// Detector selects failure detection ("" = oracle); Heartbeat and
	// Swim tune it.
	Detector  string
	Heartbeat detector.HeartbeatOptions
	Swim      membership.Options
	// Elastic and Replication switch on the runtime's repair modes.
	Elastic     *mpi.ElasticOptions
	Replication *mpi.ReplicationOptions
	// Meter records latency histograms on every seed, not only when a
	// Collector asks for them.
	Meter bool
	// Trace records the causal event stream. The runner then audits it
	// for message conservation, checks causality and reconstructs the
	// recovery incidents, for the invariants and tables to read.
	Trace bool
	// Body is the application every rank runs.
	Body Body
	// Invariants are checked in order after the run; the first that
	// fails breaks the seed.
	Invariants []Invariant

	// use supplies caller-owned instruments instead of fresh ones per
	// seed (the ftring demos feed their -obs endpoint and -trace-out
	// stream this way).
	use instruments
}

// instruments are the recorders a world reports into.
type instruments struct {
	mets *metrics.World
	reg  *obs.Registry
	rec  *trace.Recorder
}

// Kill is one seed's fault schedule.
type Kill struct {
	// Victims are the physical slots the seed kills; Victims[0] is the
	// primary victim the tables report.
	Victims []int
	// Laps gives, per victim, the lap at which a lap-driven body kills
	// it (-1 where no lap applies: see Point).
	Laps []int
	// Point is where the primary victim dies; the other victims always
	// die at the top of their kill lap.
	Point KillPoint
	// Hook kills from an operation boundary inside the runtime.
	Hook mpi.HookFunc
	// Primary reports that Victims[0] is a primary replica, whose death
	// promotes a standby, rather than a standby.
	Primary bool
	// Rekill kills Victims[0] again, from outside the application, once
	// the automatic refill has restored its slot at generation 2.
	Rekill bool
}

// KillPoint is where a lap-driven body kills the primary victim.
type KillPoint int

const (
	// AtLap kills it at the top of its kill lap.
	AtLap KillPoint = iota
	// MidCollective kills it between the Bcast and the Allreduce of its
	// kill lap's collective phase, while every other rank enters the
	// Allreduce.
	MidCollective
	// ForwardWindow leaves it to Hook, which kills it inside the chain
	// forward window; the body does not kill it.
	ForwardWindow
)

// String is the point's table label.
func (p KillPoint) String() string {
	switch p {
	case MidCollective:
		return "mid-collective"
	case ForwardWindow:
		return "forward-window"
	}
	return "lap-start"
}

// Role is the primary victim's table label: "primary", "standby", or
// "none" when the seed kills nobody.
func (k Kill) Role() string {
	switch {
	case len(k.Victims) == 0:
		return "none"
	case k.Primary:
		return "primary"
	}
	return "standby"
}

// victims is a kill schedule that names its victims and leaves the
// killing to the body, a wrapper such as prefailed, or the chaos plan.
func victims(v ...int) func(int64) Kill {
	return func(int64) Kill { return Kill{Victims: v} }
}

// has reports whether rank is one of the schedule's victims.
func (k Kill) has(rank int) bool {
	for _, v := range k.Victims {
		if v == rank {
			return true
		}
	}
	return false
}

// victim is the primary victim, or -1 when the seed kills nobody.
func (k Kill) victim() int {
	if len(k.Victims) == 0 {
		return -1
	}
	return k.Victims[0]
}

// lap is the primary victim's kill lap, or -1.
func (k Kill) lap() int {
	if len(k.Laps) == 0 {
		return -1
	}
	return k.Laps[0]
}

// Body builds the rank function for one seeded world. It runs after the
// world exists, so it may subscribe to the world's registry first.
type Body func(r *run) func(p *mpi.Proc) error

// Invariant is one named property a seed must keep; Check returns nil
// when it holds and the detail of the violation when it does not.
type Invariant struct {
	Name  string
	Check func(r *run) error
}

// run is one seeded world in flight: what the runner built, what the
// body recorded, and what the invariants read.
type run struct {
	row  *Scenario
	seed int64
	kill Kill
	w    *mpi.World
	mets *metrics.World
	plan *chaos.Plan
	res  *mpi.RunResult

	// Filled after the run when the row traces.
	audit     *trace.AuditReport
	causal    []string
	incidents []*trace.Incident

	// Body records. mu guards laps, resends and fetched; values has one
	// slot per rank, each written only by its own rank.
	mu      sync.Mutex
	report  *core.Report     // paper ring: per-rank stats
	iters   int              // paper ring: iterations driven
	laps    map[int][]lapRec // per physical slot: token arrivals at logical rank 0
	values  []int            // per rank: validate_all count or elected leader
	samples []time.Duration  // ground-truth death -> suspicion raised
	resends int64            // elastic ring: app-level resends past a corpse
	fetched int64            // elastic ring: lap the reincarnation recovered
}

// lapRec is one token arrival at logical rank 0.
type lapRec struct {
	lap, hops int64
}

// record appends one token arrival to phys's record.
func (r *run) record(phys int, lr lapRec) {
	r.mu.Lock()
	r.laps[phys] = append(r.laps[phys], lr)
	r.mu.Unlock()
}

// Verdict is the outcome of one seed of one scenario: the facts the
// tables report and, when an invariant failed, which one.
type Verdict struct {
	Scenario string
	Seed     int64
	// Broken is "<invariant>: <detail>" for the first invariant that
	// failed ("run: ..." when the world itself failed), or "" when the
	// seed passed.
	Broken string
	Kill   Kill
	// Elapsed is the world's wall-clock run time.
	Elapsed time.Duration
	// Laps is the longest token record at logical rank 0.
	Laps int
	// Markers of Iters paper-ring markers were absorbed (distinct).
	Markers, Iters int
	// Resends and Fetched are the elastic ring's app-level resends and
	// recovered lap (-1 when nothing was recovered).
	Resends, Fetched int64
	// Samples are the death -> suspicion latencies the detector showed.
	Samples []time.Duration
	// Incidents are the recoveries reconstructed from the trace, and
	// Unaccounted the sends its audit could not reconcile.
	Incidents   []*trace.Incident
	Unaccounted int
	// Lat holds the world's latency histograms, merged over ranks.
	Lat latTally

	counts []int64
	faults map[chaos.EventKind]int
}

// Count is the world total of counter c.
func (v Verdict) Count(c metrics.Counter) int64 {
	if int(c) < len(v.counts) {
		return v.counts[c]
	}
	return 0
}

// Injected is how many faults of kind k the chaos plan injected.
func (v Verdict) Injected(k chaos.EventKind) int { return v.faults[k] }

// Err names the scenario, seed and broken invariant, or is nil.
func (v Verdict) Err() error {
	if v.Broken == "" {
		return nil
	}
	return fmt.Errorf("%s seed %d: %s", v.Scenario, v.Seed, v.Broken)
}

// runScenario builds one seeded world for row, runs its body, and checks
// its invariants.
func runScenario(opt Options, row Scenario, seed int64) Verdict {
	r := &run{row: &row, seed: seed, laps: map[int][]lapRec{}, fetched: -1}
	if row.Kill != nil {
		r.kill = row.Kill(seed)
	}
	nphys := row.Ranks
	if row.Replication != nil {
		nphys *= row.Replication.R
	}
	in := row.use
	if in.mets == nil {
		in.mets = metrics.NewWorld(nphys)
	}
	if in.reg == nil {
		if row.Meter {
			in.reg = obs.NewRegistry(nphys)
		} else {
			in.reg = opt.newObs(nphys)
		}
	}
	if in.rec == nil && row.Trace {
		in.rec = trace.New(0)
	}
	r.mets = in.mets
	cfg := mpi.Config{
		Size: row.Ranks, Deadline: row.Deadline, Hook: r.kill.Hook,
		Metrics: in.mets, Obs: in.reg, Tracer: in.rec,
		Detector: row.Detector, Heartbeat: row.Heartbeat, Swim: row.Swim,
		Elastic: row.Elastic, Replication: row.Replication,
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 60 * time.Second
	}
	if row.Chaos != nil {
		r.plan = row.Chaos(seed)
		cfg.Chaos = r.plan
	}

	opt.Collector.Attach(in.mets, in.reg)
	err := r.execute(cfg)
	opt.Collector.Absorb(in.mets, in.reg)
	if row.Trace {
		events := in.rec.Events()
		r.audit = trace.Audit(events)
		r.causal = trace.CheckCausal(events)
		r.incidents = trace.Recoveries(events)
		opt.Collector.AbsorbAudit(r.audit)
	}

	v := r.verdict(in.reg)
	switch {
	case r.res != nil && r.res.TimedOut:
		v.Broken = fmt.Sprintf("run: wedged, stuck ranks %v", r.res.Stuck)
	case err != nil:
		v.Broken = "run: " + err.Error()
	default:
		for _, inv := range row.Invariants {
			if ierr := inv.Check(r); ierr != nil {
				v.Broken = inv.Name + ": " + ierr.Error()
				break
			}
		}
	}
	return v
}

// execute builds the world and runs the body on it, with the schedule's
// out-of-band re-kill when it has one.
func (r *run) execute(cfg mpi.Config) error {
	w, err := mpi.NewWorld(cfg.Size, func(c *mpi.Config) { *c = cfg })
	if err != nil {
		return err
	}
	r.w = w
	fn := r.row.Body(r)
	if r.kill.Rekill {
		// Depletion: once the world refills the primary victim's slot at
		// generation 2, kill the refill too. This runs outside every rank
		// function; the app itself never calls Kill or Spawn.
		victim := r.kill.Victims[0]
		done := make(chan struct{})
		go func() {
			defer close(done)
			for end := time.Now().Add(60 * time.Second); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
				if w.Registry().Generation(victim) == 2 {
					w.Kill(victim)
					return
				}
			}
		}()
		defer func() { <-done }()
	}
	r.res, err = w.Run(fn)
	return err
}

// verdict collects the facts the tables need from a finished run.
func (r *run) verdict(reg *obs.Registry) Verdict {
	v := Verdict{
		Scenario: r.row.Name, Seed: r.seed, Kill: r.kill,
		Resends: r.resends, Fetched: r.fetched, Samples: r.samples,
		Incidents: r.incidents, Lat: latTally{},
		faults: map[chaos.EventKind]int{},
	}
	if r.res != nil {
		v.Elapsed = r.res.Elapsed
	}
	for _, c := range metrics.Counters() {
		v.counts = append(v.counts, r.mets.Total(c))
	}
	if r.plan != nil {
		for k := chaos.EvDrop; k <= chaos.EvPartition; k++ {
			v.faults[k] = r.plan.Count(k)
		}
	}
	v.Lat.merge(reg)
	for _, laps := range r.laps {
		v.Laps = max(v.Laps, len(laps))
	}
	if r.report != nil && r.res != nil {
		v.Markers, _ = r.markers()
		v.Iters = r.iters
	}
	if r.audit != nil {
		v.Unaccounted = len(r.audit.Unaccounted)
	}
	return v
}

// sweep runs every row over seeds consecutive seeds from opt.Seed and
// returns each row's verdicts. It never stops early: a broken seed is
// recorded and the sweep goes on.
func sweep(opt Options, seeds int, rows []Scenario) [][]Verdict {
	out := make([][]Verdict, len(rows))
	for i, row := range rows {
		for s := 0; s < seeds; s++ {
			out[i] = append(out[i], runScenario(opt, row, opt.Seed+int64(s)))
		}
	}
	return out
}

// brokenErr fails a sweep when any verdict is broken, naming the first.
func brokenErr(groups ...[]Verdict) error {
	var first error
	broken, total := 0, 0
	for _, g := range groups {
		for _, v := range g {
			total++
			if err := v.Err(); err != nil {
				broken++
				if first == nil {
					first = err
				}
			}
		}
	}
	if first == nil {
		return nil
	}
	return fmt.Errorf("%d of %d seeds broken; first: %w", broken, total, first)
}

// soakSeeds is an experiment's sweep length: full, or quick under -quick.
func soakSeeds(opt Options, full, quick int) int {
	if opt.Quick {
		return quick
	}
	return full
}

// ---- app bodies ----

// paperRing is the paper's ring (core.Body) under cfg.
func paperRing(cfg core.Config) Body {
	return func(r *run) func(*mpi.Proc) error {
		r.report = core.NewReport(r.row.Ranks)
		r.iters = cfg.Iters
		return core.Body(cfg, r.report)
	}
}

// tokenSpec shapes the fault-unaware token ring.
type tokenSpec struct {
	laps int
	// collEvery adds a Bcast + Allreduce phase after every collEvery-th
	// lap (0 = none).
	collEvery int
	// waitRepair parks logical rank 0 before the last replicaWaitLaps
	// laps until the kill is confirmed and any due promotion landed, so
	// the repair and a post-repair delivery fall inside the run.
	waitRepair bool
	// heal holds the survivors open at the end until every victim's slot
	// has been refilled (twice for a Rekill victim) and every replica
	// group is back at full degree.
	heal bool
}

// replicaWaitLaps is how many laps run after the waitRepair point.
const replicaWaitLaps = 2

// tokenTag is the ring token's message tag.
const tokenTag = 1

// tokenRing is the paper's Fig. 2 fault-UNAWARE ring: fixed peers,
// blocking calls, no failure handling of any kind. Over a replicated
// world the replication layer beneath absorbs the kills; every replica
// of logical rank 0 records the laps it observed. Victims die at the top
// of their kill lap; the primary victim dies where its Point says.
func tokenRing(spec tokenSpec) Body {
	return func(r *run) func(*mpi.Proc) error {
		k := r.kill
		return func(p *mpi.Proc) error {
			c := p.World()
			c.SetErrhandler(mpi.ErrorsReturn)
			if p.Gen() > 1 {
				// An automatic refill joins as a warm standby: it cannot
				// replay the message history its siblings consumed, so it
				// holds the slot and restores the failure budget.
				return nil
			}
			me, L, phys := p.Rank(), p.Size(), p.PhysRank()
			buf := make([]byte, 8)
			for lap := 0; lap < spec.laps; lap++ {
				for i, v := range k.Victims {
					if phys == v && lap == k.Laps[i] && (i > 0 || k.Point == AtLap) {
						p.Die()
					}
				}
				if spec.waitRepair && me == 0 && lap == spec.laps-replicaWaitLaps {
					waitForRepair(r.mets, k.Primary)
				}
				if me == 0 {
					binary.LittleEndian.PutUint64(buf, uint64(lap))
					if err := c.Send(1%L, tokenTag, buf); err != nil {
						return err
					}
					pl, _, err := c.Recv(L-1, tokenTag)
					if err != nil {
						return err
					}
					r.record(phys, lapRec{lap: int64(binary.LittleEndian.Uint64(pl))})
				} else {
					pl, _, err := c.Recv(me-1, tokenTag)
					if err != nil {
						return err
					}
					if err := c.Send((me+1)%L, tokenTag, pl); err != nil {
						return err
					}
				}
				if spec.collEvery > 0 && lap%spec.collEvery == spec.collEvery-1 {
					if err := collectivePhase(p, lap, k.Point == MidCollective && phys == k.Victims[0] && lap == k.Laps[0]); err != nil {
						return err
					}
				}
			}
			if spec.heal && len(k.Victims) > 0 {
				return heal(r, phys)
			}
			return nil
		}
	}
}

// collectivePhase runs a Bcast and an Allreduce over the replica groups,
// checking both results; die kills the caller between the two, while
// every other rank is entering the Allreduce.
func collectivePhase(p *mpi.Proc, lap int, die bool) error {
	c, me, L := p.World(), p.Rank(), p.Size()
	want := []byte(fmt.Sprintf("coll-%d", lap))
	var in []byte
	if me == 0 {
		in = want
	}
	got, err := collective.Bcast(c, 0, in)
	if err != nil {
		return fmt.Errorf("lap %d Bcast: %w", lap, err)
	}
	if string(got) != string(want) {
		return fmt.Errorf("lap %d Bcast got %q, want %q", lap, got, want)
	}
	if die {
		p.Die()
	}
	sum, err := collective.Allreduce(c, collective.EncodeInt64s([]int64{int64(me)}), collective.SumInt64)
	if err != nil {
		return fmt.Errorf("lap %d Allreduce: %w", lap, err)
	}
	vals, err := collective.DecodeInt64s(sum)
	if err != nil {
		return err
	}
	if len(vals) != 1 || vals[0] != int64(L*(L-1)/2) {
		return fmt.Errorf("lap %d Allreduce got %v, want [%d]", lap, vals, L*(L-1)/2)
	}
	return nil
}

// waitForRepair polls the world counters until the kill is confirmed
// (and, when the victim was a primary, until the standby promotion
// landed), bounded well inside the world deadline. A timeout falls
// through: the promotion invariant reports the failure.
func waitForRepair(mets *metrics.World, needProm bool) {
	for end := time.Now().Add(30 * time.Second); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		if mets.Total(metrics.Confirms) >= 1 &&
			(!needProm || mets.Total(metrics.ReplicaPromotions) >= 1) {
			return
		}
	}
}

// heal holds a survivor open until every victim slot has been refilled
// to its final generation and every replica group is back at degree R.
func heal(r *run, phys int) error {
	k, w, R := r.kill, r.w, r.row.Replication.R
	gens := func() []int {
		out := make([]int, len(k.Victims))
		for i, v := range k.Victims {
			out[i] = w.Registry().Generation(v)
		}
		return out
	}
	for end := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		healed := true
		for i, g := range gens() {
			want := 2
			if i == 0 && k.Rekill {
				want = 3
			}
			healed = healed && g >= want
		}
		for l := 0; healed && l < r.row.Ranks; l++ {
			healed = len(w.LiveReplicas(l)) == R
		}
		if healed {
			return nil
		}
		if !time.Now().Before(end) {
			return fmt.Errorf("phys %d: groups not healed to R=%d (victim gens %v)", phys, R, gens())
		}
	}
}

// elasticBaseLaps is how many laps the elastic ring's token makes while
// the failure and repair play out; elasticVerifyLaps more run once rank
// 0 has seen the slot revive, and must traverse the FULL ring.
const (
	elasticBaseLaps   = 16
	elasticVerifyLaps = 2
)

// tokMsg is the elastic ring token: the lap counter, the number of
// forwards it took this lap, and the stop flag that drains the ring.
type tokMsg struct {
	lap  int64
	hops int64
	stop bool
}

func (m tokMsg) encode() []byte {
	b := make([]byte, 17)
	binary.LittleEndian.PutUint64(b[0:8], uint64(m.lap))
	binary.LittleEndian.PutUint64(b[8:16], uint64(m.hops))
	if m.stop {
		b[16] = 1
	}
	return b
}

func decodeTok(b []byte) (tokMsg, error) {
	if len(b) != 17 {
		return tokMsg{}, fmt.Errorf("token payload %d bytes", len(b))
	}
	return tokMsg{
		lap:  int64(binary.LittleEndian.Uint64(b[0:8])),
		hops: int64(binary.LittleEndian.Uint64(b[8:16])),
		stop: b[16] == 1,
	}, nil
}

// elasticRing is the E21 protocol: one token circulates; the victim dies
// HOLDING it at its kill lap; the left neighbor resends past the corpse;
// AutoRespawn reincarnates the slot, which recovers its ring position
// from a neighbor's state provider; the ring resumes at full size; and an
// epilogue validate + shrink proves the world is whole again.
func elasticRing(r *run) func(*mpi.Proc) error {
	n, victim, killLap := r.row.Ranks, r.kill.victim(), r.kill.lap()
	totalLaps := elasticBaseLaps + elasticVerifyLaps
	return func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		me := p.Rank()

		// Every incarnation publishes the last lap it drove, so a
		// reincarnated neighbor can rejoin at the ring's current position
		// instead of a checkpoint (the paper's "natural fault tolerance").
		var lastLap atomic.Int64
		lastLap.Store(-1)
		p.SetStateProvider(func() []byte {
			b := make([]byte, 8)
			binary.LittleEndian.PutUint64(b, uint64(lastLap.Load()))
			return b
		})

		if p.Gen() > 1 {
			// The reincarnation recovers its ring position from its left
			// neighbor (alive by construction: one victim per seed).
			b, err := p.FetchState((me - 1 + n) % n)
			if err != nil {
				return fmt.Errorf("gen%d FetchState: %w", p.Gen(), err)
			}
			if len(b) != 8 {
				return fmt.Errorf("state payload %d bytes", len(b))
			}
			r.mu.Lock()
			r.fetched = int64(binary.LittleEndian.Uint64(b))
			r.mu.Unlock()
			// Deliberately do NOT fast-forward lastLap: the in-flight
			// token may be resent to this incarnation and must still be
			// forwarded, not deduplicated away.
		}

		// sendTok forwards to the first alive rank to the right, skipping
		// known-dead slots (paper Fig. 7's "send past the failure").
		var lastMsg []byte
		lastSentTo := -1
		resent := true // nothing outstanding yet
		sendTok := func(msg []byte) error {
			for off := 1; off < n; off++ {
				to := (me + off) % n
				info, err := c.RankState(to)
				if err != nil {
					return err
				}
				if info.State != mpi.RankOK {
					continue
				}
				if err := c.Send(to, tokenTag, msg); err != nil {
					if mpi.IsRankFailStop(err) {
						continue // died between the check and the send
					}
					return err
				}
				lastMsg, lastSentTo, resent = msg, to, false
				return nil
			}
			return fmt.Errorf("rank %d: no alive right neighbor", me)
		}

		// recvTok blocks for the next token. A peer death completes the
		// posted receive with a fail-stop error: recognize the failure to
		// re-arm wildcard receives, and if the dead rank was the last one
		// we handed the token to, the token died with it — resend it past
		// the corpse.
		recvTok := func() (tokMsg, error) {
			for {
				pl, _, err := c.Recv(mpi.AnySource, tokenTag)
				if err == nil {
					return decodeTok(pl)
				}
				if !mpi.IsRankFailStop(err) {
					return tokMsg{}, err
				}
				f := mpi.FailedRankOf(err)
				if f >= 0 {
					_ = c.RecognizeLocal(f) // may race a revive; best effort
				}
				if f == lastSentTo && !resent {
					resent = true
					r.mu.Lock()
					r.resends++
					r.mu.Unlock()
					if err := sendTok(lastMsg); err != nil {
						return tokMsg{}, err
					}
				}
			}
		}

		if me == 0 {
			for lap := 0; lap < totalLaps; lap++ {
				if lap == elasticBaseLaps {
					// Verification laps only count once the reincarnation
					// is installed and every slot reports alive.
					deadline := time.Now().Add(60 * time.Second)
					for {
						full := p.Registry().Generation(victim) == 2
						for rank := 1; rank < n && full; rank++ {
							info, err := c.RankState(rank)
							if err != nil {
								return err
							}
							full = info.State == mpi.RankOK
						}
						if full {
							break
						}
						if time.Now().After(deadline) {
							return fmt.Errorf("ring never returned to full size")
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
				lastLap.Store(int64(lap))
				if err := sendTok(tokMsg{lap: int64(lap)}.encode()); err != nil {
					return err
				}
				for {
					m, err := recvTok()
					if err != nil {
						return err
					}
					r.record(0, lapRec{lap: m.lap, hops: m.hops})
					if m.lap == int64(lap) {
						break
					}
				}
			}
			// Drain the ring: the stop token makes one full pass.
			if err := sendTok(tokMsg{stop: true}.encode()); err != nil {
				return err
			}
			if _, err := recvTok(); err != nil {
				return err
			}
		} else {
			for {
				m, err := recvTok()
				if err != nil {
					return err
				}
				if m.stop {
					if err := sendTok(m.encode()); err != nil {
						return err
					}
					break
				}
				if m.lap <= lastLap.Load() {
					continue // duplicate of a lap this slot already drove
				}
				if me == victim && p.Gen() == 1 && m.lap == int64(killLap) {
					p.Die() // dies HOLDING the token: the message is lost
				}
				lastLap.Store(m.lap)
				m.hops++
				if err := sendTok(m.encode()); err != nil {
					return err
				}
			}
		}

		// Epilogue: the whole world — reincarnation included — agrees on
		// the membership and shrinks. Everyone is alive, so the agreed
		// failure set is empty and the "shrunk" communicator is full-size:
		// elasticity undoes the shrink that run-through stabilization
		// would otherwise make permanent.
		nf, err := c.ValidateAll()
		if err != nil {
			return err
		}
		if nf != 0 {
			return fmt.Errorf("rank %d: epilogue validate reported %d failures", me, nf)
		}
		nc, err := c.Shrink()
		if err != nil {
			return err
		}
		if nc.Size() != n {
			return fmt.Errorf("rank %d: epilogue shrink size %d, want %d", me, nc.Size(), n)
		}
		return nil
	}
}

// validateAll has every rank run MPI_Comm_validate_all once and records
// the failure count it agreed on.
func validateAll(r *run) func(*mpi.Proc) error {
	r.values = make([]int, r.row.Ranks)
	return func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		cnt, err := c.ValidateAll()
		if err != nil {
			return err
		}
		r.values[p.Rank()] = cnt
		return nil
	}
}

// changRoberts has every rank run the Chang-Roberts ring election and
// records the leader it settled on.
func changRoberts(r *run) func(*mpi.Proc) error {
	r.values = make([]int, r.row.Ranks)
	return func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		leader, err := election.ChangRoberts(p, c)
		if err != nil {
			return err
		}
		r.values[p.Rank()] = leader
		return nil
	}
}

// awaitConfirms samples detection latency straight from the registry's
// suspicion feed (so it works past the histogram-registry cap) while
// rank 0 waits until every victim's death is confirmed. Only rank 0
// waits: the world (and every monitor) stays up until all rank functions
// return, and a thousand ranks polling in parallel would cost more
// scheduler churn than the protocol under measurement.
func awaitConfirms(r *run) func(*mpi.Proc) error {
	r.w.Registry().SubscribeSuspicion(func(ev detector.SuspicionEvent) {
		if ev.Kind == detector.SuspectRaised && ev.SinceDeath >= 0 {
			r.mu.Lock()
			r.samples = append(r.samples, ev.SinceDeath)
			r.mu.Unlock()
		}
	})
	return func(p *mpi.Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		deadline := time.Now().Add(90 * time.Second)
		for _, v := range r.kill.Victims {
			for !p.Registry().Confirmed(v) {
				if time.Now().After(deadline) {
					return fmt.Errorf("death of rank %d never confirmed", v)
				}
				time.Sleep(swimSoakPeriod / 4)
			}
		}
		return nil
	}
}

// prefailed runs body after the seed's victims have died, once every
// survivor's registry shows the deaths.
func prefailed(body Body) Body {
	return func(r *run) func(*mpi.Proc) error {
		fn := body(r)
		alive := r.row.Ranks - len(r.kill.Victims)
		return func(p *mpi.Proc) error {
			if r.kill.has(p.Rank()) {
				p.Die()
			}
			for p.Registry().AliveCount() > alive {
				time.Sleep(time.Millisecond)
			}
			return fn(p)
		}
	}
}

// dyingAfter has the seed's victims die d into body, while the survivors
// are already running it.
func dyingAfter(d time.Duration, body Body) Body {
	return func(r *run) func(*mpi.Proc) error {
		fn := body(r)
		return func(p *mpi.Proc) error {
			if r.kill.has(p.Rank()) {
				time.Sleep(d)
				p.Die()
			}
			return fn(p)
		}
	}
}

// ---- shared invariants ----

// survivorsClean: every rank the schedule does not kill finished with no
// error. fencedOK also excuses ranks a detector fenced — a false
// suspicion kills a healthy rank before the failure is reported, which is
// the detector's contract at work, not a wrong answer.
func survivorsClean(fencedOK bool) Invariant {
	return Invariant{"survivors finished with no error", func(r *run) error {
		for rank, rr := range r.res.Ranks {
			if r.kill.has(rank) || (fencedOK && rr.Killed) {
				continue
			}
			if rr.Err != nil {
				return fmt.Errorf("rank %d: %w", rank, rr.Err)
			}
			if !rr.Finished {
				return fmt.Errorf("rank %d did not finish", rank)
			}
		}
		return nil
	}}
}

// victimKilled: every victim of the schedule actually died.
var victimKilled = Invariant{"victim killed", func(r *run) error {
	for _, v := range r.kill.Victims {
		if !r.res.Ranks[v].Killed {
			return fmt.Errorf("victim %d not recorded killed", v)
		}
	}
	return nil
}}

// markers tallies the paper ring's marker absorptions over every rank
// (a new root may absorb after an election): the distinct markers
// absorbed, and the first violation of exactly-once — a marker absorbed
// twice, or one whose value is not the count of ranks alive to forward it.
func (r *run) markers() (absorbed int, err error) {
	n, killed := r.row.Ranks, 0
	for _, rr := range r.res.Ranks {
		if rr.Killed {
			killed++
		}
	}
	seen := map[int64]bool{}
	for rank := 0; rank < n; rank++ {
		for _, marker := range sortedKeys(r.report.Rank(rank).RootValues) {
			v := r.report.Rank(rank).RootValues[marker]
			if seen[marker] && err == nil {
				err = fmt.Errorf("marker %d absorbed twice", marker)
			}
			if (v < int64(n-killed) || v > int64(n)) && err == nil {
				err = fmt.Errorf("marker %d carried %d, want %d..%d", marker, v, n-killed, n)
			}
			seen[marker] = true
		}
	}
	return len(seen), err
}

// markersOnce: every ring iteration's marker was absorbed exactly once.
var markersOnce = Invariant{"markers absorbed exactly once", func(r *run) error {
	absorbed, err := r.markers()
	if err != nil {
		return err
	}
	if absorbed != r.iters {
		return fmt.Errorf("%d of %d markers absorbed", absorbed, r.iters)
	}
	return nil
}}

// lapsInOrder: every token record at logical rank 0 carries laps
// 0,1,2,... with no gap, duplicate or reordering; a victim's own record
// is a clean prefix, every other one is complete (want laps), and every
// surviving replica of logical rank 0 left one.
func lapsInOrder(want int) Invariant {
	return Invariant{"root laps exactly once, in order", func(r *run) error {
		full := 0
		for phys, laps := range r.laps {
			for i, lr := range laps {
				if lr.lap != int64(i) {
					return fmt.Errorf("root replica %d arrival %d carried lap %d: %v", phys, i, lr.lap, laps)
				}
			}
			if r.kill.has(phys) {
				continue
			}
			if len(laps) != want {
				return fmt.Errorf("root replica %d recorded %d laps, want %d", phys, len(laps), want)
			}
			full++
		}
		wantFull := 1
		if r.row.Replication != nil {
			wantFull = r.row.Replication.R
		}
		for _, v := range r.kill.Victims {
			if v%r.row.Ranks == 0 { // prefix-striped: replicas of logical 0 are slots k*Ranks
				wantFull--
			}
		}
		if full != wantFull {
			return fmt.Errorf("%d complete root records, want %d", full, wantFull)
		}
		return nil
	}}
}

// agree: every survivor reports the same value — want, or any common
// non-negative value when want < 0. fencedOK excuses fenced ranks.
func agree(name string, want int, fencedOK bool) Invariant {
	return Invariant{name, func(r *run) error {
		common := want
		for rank, rr := range r.res.Ranks {
			if r.kill.has(rank) || (fencedOK && rr.Killed) {
				continue
			}
			if common < 0 {
				common = r.values[rank]
			}
			if got := r.values[rank]; got != common || got < 0 {
				return fmt.Errorf("rank %d reported %d, want %d (all: %v)", rank, got, common, r.values)
			}
		}
		return nil
	}}
}

// counts: each listed world counter totals exactly want(r).
func counts(name string, want func(r *run) int64, cs ...metrics.Counter) Invariant {
	return Invariant{name, func(r *run) error {
		for _, c := range cs {
			if got, w := r.mets.Total(c), want(r); got != w {
				return fmt.Errorf("%s = %d, want %d", c, got, w)
			}
		}
		return nil
	}}
}

// exactly is a fixed counts target.
func exactly(n int64) func(*run) int64 { return func(*run) int64 { return n } }

// nonzero: each listed world counter moved.
func nonzero(name string, cs ...metrics.Counter) Invariant {
	return Invariant{name, func(r *run) error {
		for _, c := range cs {
			if r.mets.Total(c) == 0 {
				return fmt.Errorf("%s is zero", c)
			}
		}
		return nil
	}}
}

// The trace invariants, for rows that record one.
var (
	auditClean = Invariant{"conservation audit clean", func(r *run) error {
		if !r.audit.Clean() {
			return fmt.Errorf("%d unaccounted send(s), %d orphan delivery(ies)",
				len(r.audit.Unaccounted), len(r.audit.OrphanDelivers))
		}
		return nil
	}}
	causalClean = Invariant{"causal check clean", func(r *run) error {
		if len(r.causal) > 0 {
			return errors.New(r.causal[0])
		}
		return nil
	}}
)

// ---- latency tables ----

// latTally merges latency histograms family-by-family across runs.
type latTally map[obs.Family]obs.HistSnapshot

func (l latTally) merge(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, fs := range reg.Snapshot().Families {
		l[fs.Family] = l[fs.Family].Merge(fs.Merged)
	}
}

// mergeLat merges the latency histograms of every verdict.
func mergeLat(vs ...[]Verdict) latTally {
	l := latTally{}
	for _, g := range vs {
		for _, v := range g {
			for f, s := range v.Lat {
				l[f] = l[f].Merge(s)
			}
		}
	}
	return l
}

// addRows renders families (nil = every family) that have samples as
// quantile rows, each led by the lead cells.
func (l latTally) addRows(t *Table, families []obs.Family, lead ...any) {
	if families == nil {
		families = obs.Families()
	}
	for _, f := range families {
		snap := l[f]
		if snap.Count == 0 {
			continue
		}
		t.Add(append(lead, f.String(), snap.Count,
			time.Duration(snap.Quantile(0.50)), time.Duration(snap.Quantile(0.95)),
			time.Duration(snap.Quantile(0.99)), time.Duration(snap.Max))...)
	}
}

// latColumns are the quantile-table columns after the lead ones.
var latColumns = []string{"family", "samples", "p50", "p95", "p99", "max"}

// durQuantile returns the q-quantile of samples (nearest-rank).
func durQuantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}
