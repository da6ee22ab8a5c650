package workload

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/inject"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The E18-E24 soaks as scenario rows, plus the table each renders from
// its verdicts. Every soak runs through runScenario; see scenario.go.

// lossy is a chaos plan applying rates to every link.
func lossy(rates chaos.Rates) func(int64) *chaos.Plan {
	return func(seed int64) *chaos.Plan { return chaos.NewPlan(seed).Default(rates) }
}

// repairRates is the network weather the elastic and replication soaks
// (E21, E22, E24) absorb their kills under: lossy and duplicating enough
// to exercise the ARQ under the repair protocols without turning the run
// into a reliability benchmark.
func repairRates() chaos.Rates {
	return chaos.Rates{Drop: 0.05, Dup: 0.05, Corrupt: 0.01}
}

// passed counts the verdicts that kept every invariant.
func passed(g []Verdict) int {
	n := 0
	for _, v := range g {
		if v.Broken == "" {
			n++
		}
	}
	return n
}

// total sums counter c over verdicts.
func total(g []Verdict, c metrics.Counter) int64 {
	var sum int64
	for _, v := range g {
		sum += v.Count(c)
	}
	return sum
}

// injected sums the chaos faults of kind k over verdicts.
func injected(g []Verdict, k chaos.EventKind) int {
	sum := 0
	for _, v := range g {
		sum += v.Injected(k)
	}
	return sum
}

// elapsed sums the verdicts' run times.
func elapsed(g []Verdict) time.Duration {
	var sum time.Duration
	for _, v := range g {
		sum += v.Elapsed
	}
	return sum
}

// ---- E18: chaos soak ----

// soakRates is the E18 fault mix — 10% drop, 5% duplication, 1% payload
// corruption on every link.
func soakRates() chaos.Rates {
	return chaos.Rates{Drop: 0.10, Dup: 0.05, Corrupt: 0.01}
}

// chaosRows are E18's three workloads — the full FT ring, validate_all
// with a pre-failed rank, and Chang-Roberts after the lowest rank dies —
// each on a fabric injecting soakRates on every link. Their invariants are
// what "no duplicate delivery, no corrupted payload above the codec"
// means observable from the application: every marker absorbed exactly
// once, agreement on the failed count, a unanimous leader.
func chaosRows() []Scenario {
	return []Scenario{
		{
			Name: "ft ring (Fig. 5)", Ranks: 4, Chaos: lossy(soakRates()), Meter: true,
			Body: paperRing(core.Config{Iters: 8, Variant: core.VariantFull,
				Termination: core.TermValidateAll}),
			Invariants: []Invariant{survivorsClean(false), markersOnce},
		},
		{
			Name: "validate_all", Ranks: 4, Chaos: lossy(soakRates()), Meter: true,
			Kill: victims(3), Body: prefailed(validateAll),
			Invariants: []Invariant{survivorsClean(false), agree("validate_all agreed", 1, false)},
		},
		{
			// Unlike the message-free Fig. 12 scan, Chang-Roberts'
			// circulating tokens give the chaos fabric traffic to attack.
			Name: "election", Ranks: 4, Chaos: lossy(soakRates()), Meter: true,
			Kill: victims(0), Body: prefailed(changRoberts),
			Invariants: []Invariant{survivorsClean(false), agree("unanimous leader", 1, false)},
		},
	}
}

func runChaosSoak(opt Options) ([]*Table, error) {
	rows := chaosRows()
	groups := sweep(opt, soakSeeds(opt, 20, 4), rows)
	t := NewTable("E18: chaos soak — 10% drop, 5% dup, 1% corrupt on every link",
		"workload", "seeds", "ok", "dropped", "duplicated", "corrupted",
		"retried", "deduped", "rejected", "elapsed")
	tLat := NewTable("E18b: latency quantiles under chaos (merged over seeds)",
		append([]string{"workload"}, latColumns...)...)
	for i, g := range groups {
		t.Add(rows[i].Name, len(g), passed(g), injected(g, chaos.EvDrop),
			injected(g, chaos.EvDup), injected(g, chaos.EvCorrupt),
			total(g, metrics.FramesRetried), total(g, metrics.FramesDeduped),
			total(g, metrics.FramesRejected), elapsed(g))
		mergeLat(g).addRows(tLat, nil, rows[i].Name)
	}
	t.Note("ok must equal seeds: every run completes with exact-once app-level delivery")
	t.Note("rejected = corrupted frames caught by the end-to-end CRC before reaching matching")
	tLat.Note("retry_backoff/chaos_delay sample the reliability sublayer pacing and injected jitter")
	return []*Table{t, tLat}, brokenErr(groups...)
}

// ---- E19: heartbeat soak ----

// hbSoakOptions is the heartbeat tuning for the E19 soak: fast enough to
// keep the sweep short, with the self-fence horizon pushed out so only
// the partition workload (which tunes it down) ever self-fences.
func hbSoakOptions() detector.HeartbeatOptions {
	return detector.HeartbeatOptions{
		Interval:       2 * time.Millisecond,
		Timeout:        30 * time.Millisecond,
		SelfFenceAfter: 2 * time.Second,
	}
}

// heartbeatRows are E19's three workloads on the heartbeat detector — no
// oracle shortcut anywhere:
//
//  1. the full FT ring under delay jitter with rank 2 killed after its
//     second receive (RootElect, so a falsely fenced root cannot wedge it),
//  2. validate_all with rank 3 fully partitioned from the start — a
//     guaranteed FALSE suspicion whose fences can never arrive, so the
//     victim must self-fence before anyone may report it failed, and
//  3. Chang-Roberts under jitter with rank 2 dying 5ms into the election.
//
// Delay jitter can make the phi estimator falsely suspect a healthy rank;
// the fence kills the suspect before the failure is reported, so the app
// only ever sees fail-stop. The ring and election invariants therefore
// excuse extra fenced ranks but never a wrong answer (Registry.Confirm
// panics the world on an accuracy violation, so completion certifies it).
func heartbeatRows() []Scenario {
	jitter := lossy(chaos.Rates{Delay: 0.25, Jitter: 4 * time.Millisecond})
	partitioned := hbSoakOptions()
	partitioned.SelfFenceAfter = 150 * time.Millisecond // beat ARQ escalation (~400ms)
	return []Scenario{
		{
			Name: "ft ring + jitter + kill", Ranks: 4, Chaos: jitter, Meter: true,
			Kill: func(int64) Kill {
				return Kill{Victims: []int{2}, Hook: inject.NewPlan().Add(inject.AfterNthRecv(2, 2)).Hook()}
			},
			Detector: mpi.DetectorHeartbeat, Heartbeat: hbSoakOptions(),
			Body: paperRing(core.Config{Iters: 8, Variant: core.VariantFull,
				Termination: core.TermValidateAll, RootPolicy: core.RootElect}),
			Invariants: []Invariant{victimKilled, survivorsClean(true), markersOnce},
		},
		{
			Name: "validate_all + partition", Ranks: 4, Meter: true,
			Chaos: func(seed int64) *chaos.Plan {
				return chaos.NewPlan(seed).Partition(3, -1, 1, ^uint64(0)).Partition(-1, 3, 1, ^uint64(0))
			},
			Kill:     victims(3),
			Detector: mpi.DetectorHeartbeat, Heartbeat: partitioned,
			Body:       validateAll,
			Invariants: []Invariant{victimKilled, survivorsClean(false), agree("validate_all agreed", 1, false)},
		},
		{
			// The tokens the victim held die with it; re-initiation on the
			// heartbeat-detected notification must still drain the ring to
			// a leader every survivor agrees on.
			Name: "election + jitter + kill", Ranks: 4, Chaos: jitter, Meter: true,
			Kill:     victims(2),
			Detector: mpi.DetectorHeartbeat, Heartbeat: hbSoakOptions(),
			Body:       dyingAfter(5*time.Millisecond, changRoberts),
			Invariants: []Invariant{victimKilled, survivorsClean(true), agree("unanimous leader", -1, true)},
		},
	}
}

func runHeartbeatSoak(opt Options) ([]*Table, error) {
	rows := heartbeatRows()
	groups := sweep(opt, soakSeeds(opt, 20, 4), rows)
	t := NewTable("E19: heartbeat soak — delay jitter, kills, scheduled partitions",
		"workload", "seeds", "ok", "heartbeats", "suspicions", "false-susp",
		"cleared", "fences", "self-fences", "confirms", "elapsed")
	tLat := NewTable("E19b: detection latency quantiles (merged over seeds)",
		append([]string{"workload"}, latColumns...)...)
	for i, g := range groups {
		t.Add(rows[i].Name, len(g), passed(g), total(g, metrics.Heartbeats),
			total(g, metrics.Suspicions), total(g, metrics.FalseSuspicions),
			total(g, metrics.SuspicionsCleared), total(g, metrics.Fences),
			total(g, metrics.SelfFences), total(g, metrics.Confirms), elapsed(g))
		mergeLat(g).addRows(tLat, nil, rows[i].Name)
	}
	t.Note("ok must equal seeds: every run terminates with the app-level invariant intact")
	t.Note("false-susp > 0 is expected (jitter, partitions); each one was fenced before being reported")
	tLat.Note("suspicion_latency = ground-truth death to first suspicion; fence_rtt = suspicion to confirmed")
	return []*Table{t, tLat}, brokenErr(groups...)
}

// ---- E20: SWIM scaling soak ----

// swimSoakPeriod is the protocol period shared by every E20 world; the
// heartbeat baseline uses it as its ping interval so "frames per rank
// per period" means the same wall-clock budget in both rows.
const swimSoakPeriod = 16 * time.Millisecond

// swimSoakOptions is the SWIM tuning for the E20 soak.
func swimSoakOptions() membership.Options {
	return membership.Options{
		Period:         swimSoakPeriod,
		SelfFenceAfter: 5 * time.Second,
		Seed:           7,
	}
}

// swimFramesPerRankPeriodMax is the O(1) bound on swim control traffic:
// one probe, roughly one ack, the occasional indirect relay and fence —
// per rank per protocol period, independent of world size. The mesh
// baseline pays N-1 pings per interval and exists in the table to show
// exactly that contrast.
const swimFramesPerRankPeriodMax = 8.0

// swimDetectFloor is the absolute detection-latency ceiling used when
// the mesh baseline is itself fast: swim p99 must stay under
// max(2 x mesh p99, floor) at EVERY world size — a bound independent of
// N is what "flat vs N" means operationally. The floor is generous
// because the large worlds run thousands of probe loops on however few
// cores CI has: measured detection at N=4096 is ~170ms alone but
// ~750ms with a full test suite competing for one core, and that
// scheduler tax is not the detector's to answer for. A genuine O(N)
// regression at 4096 ranks x 16ms periods would overshoot this bound
// by an order of magnitude, so it still bites.
const swimDetectFloor = 2 * time.Second

// detectionRow is one measured detection world: three spread-out ranks
// die after the detector has a few periods of history (so the samples
// measure detection, not warmup), and rank 0 waits until all three
// deaths are confirmed.
func detectionRow(n int, mode string) Scenario {
	row := Scenario{
		Ranks: n, Deadline: 120 * time.Second, Detector: mode,
		Kill:       victims(n/4, n/2, 3*n/4),
		Body:       dyingAfter(5*swimSoakPeriod, awaitConfirms),
		Invariants: []Invariant{survivorsClean(true)},
	}
	if mode == mpi.DetectorSwim {
		row.Name = fmt.Sprintf("swim n=%d", n)
		row.Swim = swimSoakOptions()
	} else {
		row.Name = fmt.Sprintf("heartbeat mesh n=%d", n)
		row.Heartbeat = detector.HeartbeatOptions{
			Interval: swimSoakPeriod, Timeout: 3 * swimSoakPeriod, SelfFenceAfter: 5 * time.Second,
		}
	}
	return row
}

// swimRows are E20's worlds: a same-period heartbeat mesh baseline, then
// SWIM at growing N.
func swimRows(opt Options) []Scenario {
	meshN := 64
	if opt.Quick {
		meshN = 32 // the N^2 mesh is the expensive row under -race CI
	}
	sizes := []int{64, 256, 1024}
	if raceEnabled {
		// The race detector multiplies scheduler and memory cost by an
		// order of magnitude; a thousand probe loops on a CI core under
		// that instrumentation measures the instrumentation, not the
		// detector. Race builds keep the bounds at the sizes they can
		// schedule honestly; the native short and full runs cover 1024
		// and 4096.
		sizes = []int{64, 256}
	} else if !opt.Quick {
		sizes = append(sizes, 4096)
	}
	rows := []Scenario{detectionRow(meshN, mpi.DetectorHeartbeat)}
	for _, n := range sizes {
		rows = append(rows, detectionRow(n, mpi.DetectorSwim))
	}
	return rows
}

// framesPerRankPeriod is a detection world's control traffic per rank
// per protocol period.
func framesPerRankPeriod(v Verdict, n int) float64 {
	periods := float64(v.Elapsed) / float64(swimSoakPeriod)
	return float64(v.Count(metrics.ControlFrames)) / float64(n) / periods
}

// runSwimSoak is E20: the SWIM detector scaled across world sizes, with
// a same-period heartbeat mesh as the baseline. Two sweep-wide bounds are
// checked over the verdicts, not just tabulated:
//
//   - detection latency stays flat as N grows: every swim row's p99 must
//     land under max(2 x mesh p99, swimDetectFloor) — a bound that does
//     not scale with N;
//   - control traffic per rank is O(1): frames/rank/period must stay
//     under swimFramesPerRankPeriodMax at every N, while the mesh
//     baseline's column visibly grows as N-1.
func runSwimSoak(opt Options) ([]*Table, error) {
	rows := swimRows(opt)
	return swimTables(rows, sweep(opt, 1, rows))
}

// swimTables renders E20 from one verdict per row and checks the
// sweep-wide bounds over them.
func swimTables(rows []Scenario, groups [][]Verdict) ([]*Table, error) {
	t := NewTable("E20: SWIM soak — detection latency and per-rank control traffic vs N",
		"detector", "ranks", "samples", "detect-p50", "detect-p99",
		"frames/rank/period", "false-susp", "gossip-learns", "confirms", "elapsed")
	mesh := groups[0][0]
	bound := max(2*durQuantile(mesh.Samples, 0.99), swimDetectFloor)
	var boundErr error
	for i, g := range groups {
		v, n := g[0], rows[i].Ranks
		label := "swim"
		if rows[i].Detector == mpi.DetectorHeartbeat {
			label = "heartbeat mesh"
		}
		p99, frames := durQuantile(v.Samples, 0.99), framesPerRankPeriod(v, n)
		t.Add(label, n, len(v.Samples), durQuantile(v.Samples, 0.50), p99, frames,
			v.Count(metrics.FalseSuspicions), v.Count(metrics.GossipLearns),
			v.Count(metrics.Confirms), v.Elapsed)
		if i == 0 || boundErr != nil {
			continue
		}
		if p99 > bound {
			boundErr = fmt.Errorf("swim n=%d: detection p99 %v exceeds %v (2x mesh p99 %v with %v floor) — latency is not flat vs N",
				n, p99, bound, durQuantile(mesh.Samples, 0.99), swimDetectFloor)
		} else if frames > swimFramesPerRankPeriodMax {
			boundErr = fmt.Errorf("swim n=%d: %.2f control frames/rank/period exceeds %.1f — traffic is not O(1)",
				n, frames, swimFramesPerRankPeriodMax)
		}
	}
	t.Note("asserted over the sweep: swim p99 <= max(2 x mesh p99, %v) at every N, frames/rank/period <= %.1f",
		swimDetectFloor, swimFramesPerRankPeriodMax)
	t.Note("mesh frames/rank/period grows as N-1; swim's stays constant — the point of the gossip detector")
	if err := brokenErr(groups...); err != nil {
		return []*Table{t}, err
	}
	return []*Table{t}, boundErr
}

// ---- E21: elastic soak ----

// elasticRingRanks is the fixed world size of the elastic ring protocol.
const elasticRingRanks = 8

// ElasticDemoRanks is the world size of the elastic repair demo;
// cmd/ftring sizes its metrics recorder to it for the -elastic demo.
const ElasticDemoRanks = elasticRingRanks

// elasticRow is the E21 world: the elastic ring under chaos, one seeded
// victim dying HOLDING the token (the worst case: the message is lost
// with the process). The victim and kill lap derive from the seed, so a
// sweep covers different ring positions and phases. The run must show
// the full repair chain:
//
//	kill -> failure notification -> left neighbor resends past the corpse
//	-> AutoRespawn reincarnates the slot at generation 2 -> the newcomer
//	recovers its position from a neighbor's state provider -> the ring
//	resumes at full size, exactly once per lap.
func elasticRow(opt Options) Scenario {
	n := elasticRingRanks
	return Scenario{
		Name: "elastic ring", Ranks: n, Deadline: 120 * time.Second,
		Chaos: lossy(repairRates()),
		Kill: func(seed int64) Kill {
			// Never rank 0: the root must survive.
			return Kill{Victims: []int{1 + int(seed)%(n-1)}, Laps: []int{3 + int(seed)%8}}
		},
		Detector: opt.Detector, Heartbeat: opt.Heartbeat, Swim: opt.Swim,
		Elastic: &mpi.ElasticOptions{AutoRespawn: true, RespawnDelay: time.Millisecond},
		Body:    elasticRing,
		Invariants: []Invariant{
			victimKilled, survivorsClean(true),
			{"victim respawned once at gen 2", func(r *run) error {
				if len(r.res.Respawns) != 1 {
					return fmt.Errorf("%d respawns, want 1", len(r.res.Respawns))
				}
				if rr := r.res.Respawns[0]; rr.Slot != r.kill.victim() || rr.Gen != 2 || !rr.Finished || rr.Err != nil {
					return fmt.Errorf("respawn %+v", rr)
				}
				return nil
			}},
			lapsInOrder(elasticBaseLaps + elasticVerifyLaps),
			{"verification laps cross the full ring", func(r *run) error {
				laps := r.laps[0]
				for _, lr := range laps[min(elasticBaseLaps, len(laps)):] {
					if lr.hops != int64(n-1) {
						return fmt.Errorf("lap %d crossed %d hops, want %d — the reincarnation is not in the data path",
							lr.lap, lr.hops, n-1)
					}
				}
				return nil
			}},
			{"recovered state at least as fresh as the kill lap", func(r *run) error {
				// The left neighbor had already driven the lap the victim
				// died holding.
				if r.fetched < int64(r.kill.lap()) {
					return fmt.Errorf("recovered lap %d older than kill lap %d", r.fetched, r.kill.lap())
				}
				return nil
			}},
			counts("respawn counter", exactly(1), metrics.Respawns),
			counts("full-size epilogue shrink", exactly(int64(n)), metrics.Shrinks),
		},
	}
}

// elasticTable renders one row per elastic verdict.
func elasticTable(title string, vs []Verdict) *Table {
	t := NewTable(title, "seed", "victim", "kill-lap", "laps", "resends", "recovered-lap",
		"stale-rejected", "shrinks", "elapsed")
	for _, v := range vs {
		t.Add(v.Seed, v.Kill.victim(), v.Kill.lap(), v.Laps, v.Resends, v.Fetched,
			v.Count(metrics.StaleGenRejected), v.Count(metrics.Shrinks), v.Elapsed)
	}
	return t
}

// RunElasticDemo runs one seeded elastic repair world (the E21 row) over
// the caller's metrics recorder and histogram registry — both sized to
// ElasticDemoRanks — and returns the one-row result table. This is the
// entry point behind cmd/ftring's -elastic mode, so a live -obs endpoint
// scrapes the respawn/shrink/stale-generation counters of the world as it
// repairs itself.
func RunElasticDemo(seed int64, mets *metrics.World, reg *obs.Registry) (*Table, error) {
	row := elasticRow(Options{})
	row.use = instruments{mets: mets, reg: reg}
	v := runScenario(Options{}, row, seed)
	return elasticTable("elastic repair demo — kill, respawn, exactly-once resumption under chaos",
		[]Verdict{v}), v.Err()
}

// runElasticSoak is E21: twenty seeded elastic repair runs (six in quick
// mode).
func runElasticSoak(opt Options) ([]*Table, error) {
	groups := sweep(opt, soakSeeds(opt, 20, 6), []Scenario{elasticRow(opt)})
	t := elasticTable("E21: elastic soak — kill, respawn, exactly-once resumption under chaos", groups[0])
	t.Note("asserted per seed: victim respawned at gen 2, rank 0 saw every lap exactly once in order,")
	t.Note("verification laps crossed all %d ranks, recovered state >= kill lap, epilogue shrink returned to full size",
		elasticRingRanks)
	return []*Table{t}, brokenErr(groups...)
}

// ---- E22: replication soak ----

// The paper's answer to failure is an ABFT protocol: the application
// recognizes failures, resends past corpses and deduplicates by marker.
// Replication is the opposite trade: each logical rank is backed by R hot
// replicas, every send fans out to all of them, receives are
// deduplicated below the matching layer, and a replica death promotes a
// standby — so the application needs NO recovery protocol at all. E22
// proves that claim by running the fault-UNAWARE token ring over an R=2
// replicated world under chaos, killing one replica per seed.
const (
	replicaRingRanks = 4
	// replicaBaseLaps is how many laps the token makes while the kill and
	// promotion play out; the kill lap is always well inside this.
	replicaBaseLaps = 16
	// replicaOverheadLaps sizes the failure-free overhead measurement
	// (R=1 vs R=2): long enough that per-lap cost dominates world setup.
	replicaOverheadLaps = 64
)

// ReplicaDemoRanks is the LOGICAL ring size of the replication demo;
// cmd/ftring multiplies it by -replicas to size its metrics recorder and
// histogram registry (replication worlds meter every physical slot).
const ReplicaDemoRanks = replicaRingRanks

// replicaRow is the E22 world: the token ring over r replicas per
// logical rank in the given mode, under chaos, with one seeded replica
// killed at the top of a seeded lap. The victim derives from the seed,
// so a sweep covers primaries, standbys, the root's own replicas, and
// different phases of the ring. With spec.heal (which needs the kill) the
// world re-replicates the killed slot itself and the run waits until the
// group is whole.
func replicaRow(opt Options, r int, mode string, spec tokenSpec) Scenario {
	nphys := replicaRingRanks * r
	row := Scenario{
		Name: fmt.Sprintf("R=%d %s", r, mode), Ranks: replicaRingRanks,
		Deadline: 120 * time.Second, Meter: true,
		Chaos: lossy(repairRates()),
		Kill: func(seed int64) Kill {
			// Prefix-striped: replica 0 of logical l is slot l.
			victim := int(seed) % nphys
			return Kill{Victims: []int{victim}, Laps: []int{2 + int(seed)%8}, Primary: victim < replicaRingRanks}
		},
		Detector: opt.Detector, Heartbeat: opt.Heartbeat, Swim: opt.Swim,
		Replication: &mpi.ReplicationOptions{R: r, Mode: mode,
			AutoRefill: spec.heal, RefillBackoff: time.Millisecond},
		Body: tokenRing(spec),
		Invariants: []Invariant{
			victimKilled, survivorsClean(false), lapsInOrder(spec.laps),
			// A dead primary promotes exactly one standby; a dead standby
			// promotes nobody.
			counts("promotions", func(r *run) int64 {
				if r.kill.Primary {
					return 1
				}
				return 0
			}, metrics.ReplicaPromotions),
			// Zero recovery protocol: the ABFT counters never move.
			counts("no app-level recovery", exactly(0), metrics.Validates, metrics.Resends),
		},
	}
	if spec.heal {
		row.Invariants = append(row.Invariants, nonzero("auto re-replication", metrics.ReplicaRefills))
	}
	if r > 1 && mode == mpi.ReplFanout {
		row.Invariants = append(row.Invariants,
			nonzero("fan-out copies deduplicated", metrics.ReplicaSends, metrics.ReplicaDedupDrops))
	}
	return row
}

// RunReplicaDemo runs one seeded replication world (the E22 row) with R
// replicas per logical rank in the given replication mode (mpi.ReplFanout
// or mpi.ReplChain) over the caller's metrics recorder and histogram
// registry — both sized to ReplicaDemoRanks*R — and returns the one-row
// result table. This is the entry point behind cmd/ftring's -replicas
// mode, so a live -obs endpoint scrapes the promotion and dedup counters
// as a replica is killed mid-run. With refill set, the world
// re-replicates the killed slot automatically and the run does not
// return until the group is back at degree R. A non-nil rec records the
// causal trace (for -trace-out / traceconv -audit). With R == 1 there is
// no replica to absorb a failure, so the run is failure-free.
func RunReplicaDemo(seed int64, r int, mode string, refill bool,
	rec *trace.Recorder, mets *metrics.World, reg *obs.Registry) (*Table, error) {
	row := replicaRow(Options{}, r, mode, tokenSpec{laps: replicaBaseLaps, heal: refill && r >= 2})
	if r < 2 {
		row.Kill = nil
	}
	row.use = instruments{mets: mets, reg: reg, rec: rec}
	v := runScenario(Options{}, row, seed)
	t := NewTable("replication demo — hot replicas, transparent failover under chaos",
		"seed", "R", "mode", "victim-phys", "role", "kill-lap", "laps", "promotions",
		"dedup-drops", "replica-sends", "refills", "elapsed")
	t.Add(seed, r, mode, v.Kill.victim(), v.Kill.Role(), v.Kill.lap(), v.Laps,
		v.Count(metrics.ReplicaPromotions), v.Count(metrics.ReplicaDedupDrops),
		v.Count(metrics.ReplicaSends), v.Count(metrics.ReplicaRefills), v.Elapsed)
	return t, v.Err()
}

// overheadRows measure what replication costs when nothing fails: the
// same token ring, same lap count, no chaos and no kill, over the plain
// world (the R=1 baseline), R=2 fan-out and R=2 chain.
func overheadRows(opt Options) []Scenario {
	laps := replicaOverheadLaps
	if opt.Quick {
		laps = replicaOverheadLaps / 4
	}
	spec := tokenSpec{laps: laps}
	rows := []Scenario{{
		Name: "R=1 (no replication)", Ranks: replicaRingRanks, Deadline: 120 * time.Second,
		Body:       tokenRing(spec),
		Invariants: []Invariant{survivorsClean(false), lapsInOrder(laps)},
	}}
	for _, m := range []struct{ name, mode string }{
		{"R=2 fan-out", mpi.ReplFanout},
		{"R=2 chain", mpi.ReplChain},
	} {
		row := replicaRow(opt, 2, m.mode, spec)
		row.Name, row.Chaos, row.Kill = m.name, nil, nil
		rows = append(rows, row)
	}
	return rows
}

// replicaFamilies are the latency families E22c reports.
var replicaFamilies = []obs.Family{obs.ReplicaPromotion, obs.ReplicationOverhead,
	obs.NotifyLatency, obs.SendComplete}

// runReplicaSoak is E22: twenty seeded replication runs (six in quick
// mode) of the kill row in opt.RepMode, the failure-free overhead table,
// and the promotion-latency quantiles merged over the kill sweep.
func runReplicaSoak(opt Options) ([]*Table, error) {
	mode := opt.RepMode
	if mode == "" {
		mode = mpi.ReplFanout
	}
	kills := sweep(opt, soakSeeds(opt, 20, 6),
		[]Scenario{replicaRow(opt, 2, mode, tokenSpec{laps: replicaBaseLaps})})
	t := NewTable(fmt.Sprintf("E22: replication soak — one replica killed per seed, fault-unaware ring, R=2 %s", mode),
		"seed", "victim-phys", "role", "kill-lap", "laps", "promotions",
		"dedup-drops", "replica-sends", "elapsed")
	for _, v := range kills[0] {
		t.Add(v.Seed, v.Kill.victim(), v.Kill.Role(), v.Kill.lap(), v.Laps,
			v.Count(metrics.ReplicaPromotions), v.Count(metrics.ReplicaDedupDrops),
			v.Count(metrics.ReplicaSends), v.Elapsed)
	}
	t.Note("asserted per seed: every surviving replica of rank 0 saw every lap exactly once in order,")
	t.Note("no rank function ever observed an error, validates=resends=0 (the app has NO recovery protocol),")
	t.Note("promotions=1 iff the victim was a primary")

	rows := overheadRows(opt)
	ov := sweep(opt, 1, rows)
	tOv := NewTable("E22b: failure-free overhead — same ring, same laps, no faults",
		"config", "phys-ranks", "laps", "elapsed", "us/lap", "overhead-x", "replica-sends")
	base := ov[0][0].Elapsed
	for i, g := range ov {
		v, phys := g[0], rows[i].Ranks
		if rows[i].Replication != nil {
			phys *= rows[i].Replication.R
		}
		tOv.Add(rows[i].Name, phys, v.Laps, v.Elapsed,
			float64(v.Elapsed.Microseconds())/float64(v.Laps),
			float64(v.Elapsed)/float64(base), v.Count(metrics.ReplicaSends))
	}
	tOv.Note("overhead-x vs the plain runtime: the price of every send fanned out and every rank duplicated")

	tLat := NewTable("E22c: replication latency quantiles (merged over seeds)", latColumns...)
	mergeLat(kills...).addRows(tLat, replicaFamilies)
	tLat.Note("replica_promotion = detector Confirm to standby promoted; replication_overhead = extra fan-out copies per send")
	return []*Table{t, tOv, tLat}, brokenErr(append(kills, ov...)...)
}

// ---- E23: recovery forensics ----

// Every other soak measures recovery as one opaque number (kill -> done).
// E23 uses the causal trace to DECOMPOSE it: each seeded world records
// its events, the kill produces a trace incident, and trace.Recoveries
// splits the incident into detection (kill -> first suspicion),
// agreement/fence (suspicion -> confirmation), repair (confirmation ->
// resend past the corpse / respawn / standby promotion) and resume
// (repair -> first post-repair delivery). The sweep crosses the three
// repair strategies the runtime implements with the three detectors:
//
//	resend    — the paper's ABFT ring: survivors re-route around the corpse
//	respawn   — elastic worlds: the slot reincarnates at generation+1
//	promotion — replication: a hot standby takes over transparently
//
// Every run is also a conservation check: the audit must account for
// every send (delivered, chaos-dropped, deduplicated, purged or
// dead-dropped — anything else is a runtime bug), the causality check
// must find no HLC or token violation, and the kill must leave at least
// one reconstructable incident.
var (
	recoveryRepairs   = []string{"resend", "respawn", "promotion"}
	recoveryDetectors = []string{mpi.DetectorOracle, mpi.DetectorHeartbeat, mpi.DetectorSwim}
)

// recoveryChaosRates is the network weather the forensics run under:
// lossy enough to exercise the ARQ (so the audit sees drops, dedups and
// purges, not just clean deliveries) without destabilizing the
// millisecond-scale detectors.
func recoveryChaosRates() chaos.Rates {
	return chaos.Rates{Drop: 0.03, Dup: 0.03, Corrupt: 0.01}
}

// recoveryRow is one E23 cell: the repair strategy's world under the
// detector, traced. The millisecond-scale monitor tunings keep detection
// latency visible but small next to the world deadlines.
func recoveryRow(repair, det string) Scenario {
	opt := Options{Detector: det, Heartbeat: hbSoakOptions(), Swim: swimSoakOptions()}
	var row Scenario
	switch repair {
	case "resend":
		// The paper's ABFT ring under chaos with a seeded mid-iteration
		// kill: survivors recognize the failure, resend past the corpse,
		// and revalidate. The gate is that the run completes and the
		// victim died; the markers column reports delivery, ungated.
		row = Scenario{
			Ranks: 4, Chaos: lossy(recoveryChaosRates()),
			Kill: func(seed int64) Kill {
				victim := 1 + int(seed)%3 // never rank 0
				return Kill{Victims: []int{victim},
					Hook: inject.NewPlan().Add(inject.AfterNthRecv(victim, 2)).Hook()}
			},
			Detector: det, Heartbeat: opt.Heartbeat, Swim: opt.Swim,
			Body: paperRing(core.Config{Iters: 8, Variant: core.VariantFull,
				Termination: core.TermValidateAll, RootPolicy: core.RootElect}),
			Invariants: []Invariant{victimKilled},
		}
	case "respawn":
		// The elastic world respawns ANY confirmed-dead slot, so a false
		// suspicion (a reincarnation's first heartbeats delayed under CI
		// load) becomes respawn churn, not just a mislabeled row. Run
		// these cells' monitors with wide margins; the longer detection
		// phase lands honestly in the table.
		opt.Heartbeat = detector.HeartbeatOptions{
			Interval: 5 * time.Millisecond, Timeout: 150 * time.Millisecond,
			SelfFenceAfter: 10 * time.Second,
		}
		opt.Swim = membership.Options{
			Period: 40 * time.Millisecond, SelfFenceAfter: 10 * time.Second, Seed: 7,
		}
		row = elasticRow(opt)
	case "promotion":
		// With real detectors the unaware ring can outrun detection
		// entirely; parking rank 0 until the repair lands puts it — and a
		// post-repair delivery — inside the run.
		row = replicaRow(opt, 2, mpi.ReplFanout,
			tokenSpec{laps: replicaBaseLaps, waitRepair: det != mpi.DetectorOracle})
	}
	row.Name = repair + "/" + det
	row.Trace = true
	row.Invariants = append(row.Invariants, auditClean, causalClean,
		Invariant{"kill left a recovery incident", func(r *run) error {
			if len(r.incidents) == 0 {
				return fmt.Errorf("no recovery incident in the trace")
			}
			return nil
		}})
	return row
}

// recoveryRows are E23's cells, repair-major.
func recoveryRows() []Scenario {
	var rows []Scenario
	for _, repair := range recoveryRepairs {
		for _, det := range recoveryDetectors {
			rows = append(rows, recoveryRow(repair, det))
		}
	}
	return rows
}

// runRecoveryForensics is E23's entry point.
func runRecoveryForensics(opt Options) ([]*Table, error) {
	rows := recoveryRows()
	groups := sweep(opt, soakSeeds(opt, 20, 2), rows)
	t := NewTable("E23: recovery forensics — trace-derived phase decomposition under chaos",
		"repair", "detector", "seeds", "incidents",
		"detect-p50", "agree-p50", "repair-p50", "resume-p50",
		"total-p50", "total-p95", "markers", "unaccounted")
	var short []string
	for i, g := range groups {
		var detect, agree, repaired, resume, tot []time.Duration
		incidents, unaccounted, absorbed, iters := 0, 0, 0, 0
		var shortSeeds []int64
		for _, v := range g {
			incidents += len(v.Incidents)
			unaccounted += v.Unaccounted
			absorbed += v.Markers
			iters += v.Iters
			if v.Markers < v.Iters {
				shortSeeds = append(shortSeeds, v.Seed)
			}
			for _, in := range v.Incidents {
				if in.HasSuspected {
					detect = append(detect, in.Detection)
				}
				if in.HasConfirmed {
					agree = append(agree, in.Agreement)
				}
				if in.HasRepair {
					repaired = append(repaired, in.RepairTime)
				}
				if in.HasResume {
					resume = append(resume, in.ResumeTime)
				}
				tot = append(tot, in.Total)
			}
		}
		markers := "-"
		if iters > 0 {
			markers = fmt.Sprintf("%d/%d", absorbed, iters)
		}
		if len(shortSeeds) > 0 {
			short = append(short, fmt.Sprintf("%s seeds %v", rows[i].Name, shortSeeds))
		}
		repair, det, _ := strings.Cut(rows[i].Name, "/")
		t.Add(repair, det, len(g), incidents,
			durQuantile(detect, 0.50), durQuantile(agree, 0.50),
			durQuantile(repaired, 0.50), durQuantile(resume, 0.50),
			durQuantile(tot, 0.50), durQuantile(tot, 0.95), markers, unaccounted)
	}
	t.Note("detect/agree are 0 under the oracle: deaths confirm instantly, the whole latency lands in repair+resume")
	t.Note("unaccounted is asserted zero per seed: any send the audit cannot reconcile fails the experiment")
	t.Note("markers = ring markers absorbed / driven over the resend seeds; reported, not gated")
	if len(short) > 0 {
		t.Note("markers lost: %v", short)
	}
	return []*Table{t}, brokenErr(groups...)
}

// ---- E24: durability soak ----

// E22 proved transparent failover for the easy kills: a replica dies at a
// lap boundary and the fan-out absorbs it. E24 attacks the three
// durability gaps that survive E22:
//
//  1. The chain forward window. In ReplChain mode the primary relays each
//     accepted frame to its standbys; killing it between acceptance and
//     relay used to lose a frame the SENDER believed delivered (its ARQ
//     saw the link-level ack). The tail-ack protocol closes this: the
//     sender holds every chain send in an outbox until all live group
//     members confirm, and a promotion replays the unconfirmed entries.
//     E24 seeds kills INSIDE the window via the deterministic
//     HookChainForward placement.
//  2. Collectives over replica groups. A primary dies while every other
//     participant is inside a Bcast/Allreduce; the promotion must happen
//     below the collective layer with no aborted op.
//  3. Replica-group depletion. Every kill permanently lowered the failure
//     budget. With AutoRefill the world respawns the lost member itself;
//     E24 drives a full depletion cycle — kill the primary, wait for the
//     automatic refill, kill the REFILL too — and requires every group
//     back at degree R by the epilogue, with zero app-level Spawn calls.
//
// Each seeded world also records a causal trace and must pass the
// conservation audit and the causality check, so the tail-ack replay
// path is held to the same forensic standard as normal traffic.
const (
	durRingRanks = 3 // logical ring size
	durLaps      = 18
	durCollEvery = 3 // collective phase every N laps
)

// durabilityKill is E24's seed-derived kill schedule. The primary
// victim's group takes the full depletion cycle (primary kill -> auto
// refill -> kill the refill -> second refill); the standby victim belongs
// to a DIFFERENT group so two groups heal concurrently. In chain mode,
// even seeds kill the primary inside the forward window (the tail-ack
// gap); odd seeds — and all fan-out seeds — kill it between the Bcast
// and the Allreduce of a collective phase, so the promotion lands
// mid-collective for the other ranks.
func durabilityKill(mode string) func(int64) Kill {
	return func(seed int64) Kill {
		prim := int(seed) % durRingRanks // primary of logical l is phys l
		k := Kill{
			Victims: []int{prim, durRingRanks + (prim+1)%durRingRanks},
			Laps:    []int{durCollEvery - 1 + (int(seed)%2)*durCollEvery, 2 + int(seed)%6},
			Point:   MidCollective,
			Primary: true,
			Rekill:  true,
		}
		if mode == mpi.ReplChain && seed%2 == 0 {
			// Fell the primary immediately before its Nth standby forward:
			// the frame is accepted but not yet relayed. Fire once: the
			// promoted standby (and any refill) shares the logical rank.
			ordinal := int32(2 + seed%4)
			var forwards atomic.Int32
			k.Laps[0], k.Point = -1, ForwardWindow
			k.Hook = func(ev mpi.HookEvent) mpi.Action {
				if ev.Point == mpi.HookChainForward && ev.Rank == prim && forwards.Add(1) == ordinal {
					return mpi.ActKill
				}
				return mpi.ActNone
			}
		}
		return k
	}
}

// durabilityRow is the E24 world in one replication mode: the token ring
// with a Bcast + Allreduce phase every durCollEvery laps, over R=2 groups
// with automatic re-replication, under chaos and the durability kills.
func durabilityRow(mode string) Scenario {
	row := Scenario{
		Name: "durability " + mode, Ranks: durRingRanks, Deadline: 120 * time.Second,
		Meter: true, Trace: true, Chaos: lossy(repairRates()), Kill: durabilityKill(mode),
		Replication: &mpi.ReplicationOptions{R: 2, Mode: mode,
			AutoRefill: true, RefillBackoff: time.Millisecond},
		Body: tokenRing(tokenSpec{laps: durLaps, collEvery: durCollEvery, heal: true}),
		Invariants: []Invariant{
			survivorsClean(false), lapsInOrder(durLaps),
			// The primary kill promotes exactly one standby; the standby
			// kill and the depletion kill (a parked gen-2 standby) promote
			// nobody.
			counts("promotions", exactly(1), metrics.ReplicaPromotions),
			// Three automatic refills: primary victim gen 1->2 and 2->3,
			// standby victim gen 1->2 — all world-driven.
			counts("refills", exactly(3), metrics.ReplicaRefills),
			{"three respawns recorded", func(r *run) error {
				if len(r.res.Respawns) != 3 {
					return fmt.Errorf("%d respawns recorded: %+v", len(r.res.Respawns), r.res.Respawns)
				}
				return nil
			}},
			counts("no app-level recovery", exactly(0), metrics.Validates, metrics.Resends),
		},
	}
	if mode == mpi.ReplChain {
		row.Invariants = append(row.Invariants,
			nonzero("chain tail-acked", metrics.ChainAcks),
			Invariant{"forward-window kill replayed the outbox", func(r *run) error {
				if r.kill.Point == ForwardWindow && r.mets.Total(metrics.ChainResends) == 0 {
					return fmt.Errorf("%s is zero", metrics.ChainResends)
				}
				return nil
			}})
	}
	row.Invariants = append(row.Invariants, auditClean, causalClean)
	return row
}

// durabilityFamilies are the latency families E24b reports.
var durabilityFamilies = []obs.Family{obs.RereplicationLatency, obs.ReplicaPromotion, obs.RecoveryTotal}

// runDurabilitySoak is E24: twenty seeds (four in quick mode) per
// replication mode, followed by the re-replication latency quantiles.
func runDurabilitySoak(opt Options) ([]*Table, error) {
	modes := []string{mpi.ReplFanout, mpi.ReplChain}
	var rows []Scenario
	for _, m := range modes {
		rows = append(rows, durabilityRow(m))
	}
	groups := sweep(opt, soakSeeds(opt, 20, 4), rows)
	t := NewTable("E24: durability soak — tail-acked chain, auto re-replication, replicated collectives",
		"mode", "seed", "prim-victim", "kill-placement", "standby-victim", "laps",
		"promotions", "refills", "chain-resends", "chain-acks", "elapsed")
	for i, g := range groups {
		for _, v := range g {
			t.Add(modes[i], v.Seed, v.Kill.Victims[0], v.Kill.Point, v.Kill.Victims[1], v.Laps,
				v.Count(metrics.ReplicaPromotions), v.Count(metrics.ReplicaRefills),
				v.Count(metrics.ChainResends), v.Count(metrics.ChainAcks), v.Elapsed)
		}
	}
	t.Note("asserted per seed: every lap exactly-once, conservation audit unaccounted=0, causality clean,")
	t.Note("promotions=1, refills=3 (primary victim heals twice, standby victim once) with ZERO app Spawn calls,")
	t.Note("every replica group back at degree R by the epilogue, validates=resends=0")
	t.Note("forward-window kills (chain, even seeds) additionally assert chain-resends>0: the tail-ack outbox replayed")

	tLat := NewTable("E24b: durability latency quantiles (merged over seeds, both modes)", latColumns...)
	mergeLat(groups...).addRows(tLat, durabilityFamilies)
	tLat.Note("rereplication_latency = detector confirm of the lost replica to the automatic Spawn restoring the slot")
	return []*Table{t, tLat}, brokenErr(groups...)
}
