// Command perfbench is the repository benchmark: closed-loop workloads over
// the fault-tolerant MPI runtime, timed end to end and, in a traced run,
// per layer, all from outside the runtime (public entry points, a timing
// fabric and a hook of its own). See README.md for the workloads, the
// metrics and the layer map.
//
//	go run . --workload ring --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check makes the
// command exit with status 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// workload is one named set of inputs.
type workload struct {
	name string
	// op names what ops_per_s and op_us_* count on this workload.
	opRate, opLatency string
	params            map[string]any
	// ranks is the largest physical world the workload builds (sizes the
	// span buffers); spansPerRank bounds one traced world's spans per rank.
	ranks, spansPerRank int
	world               func(b *bench, idx int) error
	usesCollectives     bool
	kills               bool
}

func worldSeed(seed int64, idx int) int64 { return seed*1_000_003 + int64(idx) }

var workloads = []*workload{
	{
		name: "ring", opRate: "laps/s", opLatency: "lap",
		params: map[string]any{"n": ringN, "laps_per_world": ringLaps, "variant": "full",
			"termination": "validate-all", "root_policy": "elect", "fabric": "local", "detector": "oracle"},
		ranks: ringN, spansPerRank: 7*ringLaps + 64,
		world: func(b *bench, _ int) error { return b.ringWorld(false) },
	},
	{
		name: "ring-hardened", opRate: "laps/s", opLatency: "lap",
		params: map[string]any{"logical_n": hardN, "replicas": hardR, "replication": "chain",
			"laps_per_world": hardLaps, "reliable": true, "detector": "swim",
			"swim_period_ms": hardSwimPeriod.Milliseconds(), "obs": true,
			"metrics": true, "flight_recorder_events": 1 << 16},
		ranks: hardN * hardR, spansPerRank: 24*hardLaps + 64,
		world: func(b *bench, _ int) error { return b.ringWorld(true) },
	},
	{
		name: "bsp", opRate: "steps/s", opLatency: "step",
		params: map[string]any{"n": bspN, "steps_per_world": bspSteps, "allreduce": "16xint64 sum",
			"bcast_bytes": 8 * bspVec, "validate_every": bspValidateEvery},
		ranks: bspN, spansPerRank: 64 * bspSteps,
		world: func(b *bench, idx int) error {
			return b.bspWorld(bspN, bspSteps, worldSeed(b.seed, idx))
		},
		usesCollectives: true,
	},
	{
		name: "recovery", opRate: "worlds/s", opLatency: "kill-to-resume",
		params: map[string]any{"n": recN, "laps_per_world": recLaps, "random_kills": recKills,
			"root_kills": 1, "detector": "oracle"},
		ranks: recN, spansPerRank: 8*recLaps + 64,
		world: func(b *bench, idx int) error {
			return b.recoveryWorld(recN, recLaps, recKills, worldSeed(b.seed, idx))
		},
		kills: true,
	},
}

// bench is one run of one workload.
type bench struct {
	wl     *workload
	seed   int64
	traced bool // the current phase installs the timing fabric and span hook
	rec    *recorder
	layers *layerAcc

	// End-to-end samples of the current phase.
	setupS, opUS []float64
	ops, opSec   float64
	worlds       int

	attempted, failed int
	problems          []string

	heapArmed atomic.Bool   // the next markHeap call measures
	heapDone  chan struct{} // closed once the armed measurement is taken
	heapLive  atomic.Uint64
}

func (b *bench) setup(s float64)             { b.setupS = append(b.setupS, s) }
func (b *bench) op(us float64)               { b.opUS = append(b.opUS, us) }
func (b *bench) throughput(ops, sec float64) { b.ops += ops; b.opSec += sec }

func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one checked output; it returns ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		b.problem(format, args...)
	}
	return ok
}

// resetSamples starts a new phase's end-to-end samples.
func (b *bench) resetSamples() {
	b.setupS, b.opUS = nil, nil
	b.ops, b.opSec, b.worlds = 0, 0, 0
}

// phase builds worlds back to back until d has passed (at least one).
func (b *bench) phase(d time.Duration) error {
	end := time.Now().Add(d)
	for b.worlds == 0 || time.Now().Before(end) {
		if err := b.wl.world(b, b.worlds); err != nil {
			return err
		}
		b.worlds++
	}
	return nil
}

func itoa(n int) string { return fmt.Sprint(n) }

func main() {
	name := flag.String("workload", "", "workload: ring, ring-hardened, bsp or recovery")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"),
		"directory for the traced run's span dump (empty: no dump)")
	flag.Parse()
	var wl *workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ring|ring-hardened|bsp|recovery --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	b := &bench{wl: wl, seed: *seed}
	metricsOut, info, err := b.run(time.Duration(*seconds*float64(time.Second)), *traced == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	correct := b.failed == 0
	for _, p := range b.problems {
		fmt.Println("# check failed:", p)
	}
	fmt.Printf("# fail_ratio %.6g (%d failed / %d attempted)\n", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range metricsOut {
		fmt.Printf("# %-40s %14.6g %-7s %s\n", m.name, m.value, m.unit, m.samples)
		ms[m.name] = val{m.value, m.unit}
	}
	for _, m := range info {
		fmt.Printf("# %-40s %14.6g %-7s %s (not in BENCHMARK.json)\n", m.name, m.value, m.unit, m.samples)
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": b.attempted, "failed": b.failed, "metrics": ms,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// run performs one untraced or traced run and returns its metrics, and
// the ones it only prints.
func (b *bench) run(d time.Duration, traced bool, spansDir string) (out, info []metric, err error) {
	record := map[string]any{
		"workload": b.wl.name, "seed": b.seed, "seconds": d.Seconds(), "trace": traced,
		"params": b.wl.params, "machine": machine(),
	}
	total0, steal0, haveTicks := cpuTicks()
	defer func() {
		if total1, steal1, ok := cpuTicks(); ok && haveTicks && total1 > total0 {
			record["cpu_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
		}
		printRecord(record)
	}()
	// Warm-up: one world whose timings are discarded (lazy set-up, gob
	// type caches, heap growth); its output checks still count.
	if err := b.wl.world(b, -1); err != nil {
		return nil, nil, err
	}
	b.resetSamples()
	if !traced {
		if err := b.phase(d); err != nil {
			return nil, nil, err
		}
		e2e, tails := b.endToEnd()
		// The harness's own samples would otherwise count as live heap.
		b.setupS, b.opUS = nil, nil
		heap, err := b.heapWorld()
		if err != nil {
			return nil, nil, err
		}
		e2e = append(e2e, metric{"heap_live_mb", "MiB", heap, "live heap half way through one quiet world, after two forced GCs"})
		record["worlds"] = b.worlds
		return e2e, tails, nil
	}
	// Traced run: an untraced baseline for the first 30% of the time,
	// then the traced phase; the difference in median op latency is the
	// tracing overhead.
	if err := b.phase(d * 3 / 10); err != nil {
		return nil, nil, err
	}
	base := quantile(b.opUS, 0.5)
	p90 := b.tail(0.9)
	p90.samples += ", untraced first 30% of the run"
	var resume []float64
	if b.wl.kills {
		resume = b.opUS
	}
	baseWorlds := b.worlds
	b.resetSamples()
	b.rec = newRecorder(b.wl.ranks, b.wl.spansPerRank)
	b.layers = &layerAcc{}
	b.traced = true
	if err := b.phase(d * 7 / 10); err != nil {
		return nil, nil, err
	}
	tracedP50 := quantile(b.opUS, 0.5)
	tracedWorlds := b.worlds
	layers := b.layers
	last := layers.last
	dropped := b.rec.dropped.Load()
	probed, err := b.probe()
	if err != nil {
		return nil, nil, err
	}
	if resume != nil {
		layers.resume = resume
	}
	out = layers.report()
	for i := range out {
		if probed[out[i].name] {
			out[i].samples += " (probe world)"
		}
	}
	out = append(out, p90, metric{"bench.trace_overhead_pct", "%", 100 * (ratio(tracedP50, base) - 1),
		fmt.Sprintf("op_us_p50 traced %.4g vs untraced %.4g", tracedP50, base)})
	record["worlds"] = map[string]int{"untraced": baseWorlds, "traced": tracedWorlds}
	record["spans_dropped"] = dropped
	if spansDir != "" {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", b.wl.name, b.seed))
		if err := writeSpans(path, capSpans(last, 50_000)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: span dump:", err)
		} else {
			record["spans_file"] = path
		}
	}
	return out, nil, nil
}

// heapWorld builds one more world, after the timed phase, that measures
// the live heap at a fixed point half way through it: the ring root's
// middle origination, rank 0's middle BSP step, or the recovery root's
// middle absorption. A forced GC there makes the figure independent of
// when the collector happened to run. The world indices are fixed, so its
// inputs depend only on the seed.
func (b *bench) heapWorld() (float64, error) {
	for try := 0; try < 3; try++ {
		b.heapDone = make(chan struct{})
		b.heapArmed.Store(true)
		if err := b.wl.world(b, -2-try); err != nil {
			return 0, err
		}
		if v := b.heapLive.Load(); v > 0 {
			return float64(v) / (1 << 20), nil
		}
	}
	return 0, fmt.Errorf("no heap measurement point reached in %s worlds", b.wl.name)
}

// probe measures, in worlds of its own, the layers this workload never
// exercises, so every per-layer metric is a measurement on every
// workload: collectives in one small traced BSP world, and the recovery
// path in worlds of the recovery workload's size (untraced ones for the
// kill-to-resume times, traced ones for the layers). It returns the
// metric names it supplied.
func (b *bench) probe() (map[string]bool, error) {
	acc := b.layers
	probed := map[string]bool{}
	if !b.wl.usesCollectives {
		b.layers = &layerAcc{}
		if err := b.bspWorld(probeN, probeSteps, b.seed); err != nil {
			return nil, err
		}
		acc.allreduce, acc.bcast = b.layers.allreduce, b.layers.bcast
		probed["collective.allreduce_us"], probed["collective.bcast_us"] = true, true
	}
	if !b.wl.kills {
		b.traced = false
		b.resetSamples()
		for i := 0; i < probeResumeWorlds; i++ {
			if err := b.recoveryWorld(recN, recLaps, recKills, worldSeed(b.seed, -10-i)); err != nil {
				return nil, err
			}
		}
		acc.resume = b.opUS
		b.traced = true
		b.layers = &layerAcc{}
		for i := 0; i < probeTracedRecWorlds; i++ {
			if err := b.recoveryWorld(recN, recLaps, recKills, worldSeed(b.seed, -100-i)); err != nil {
				return nil, err
			}
		}
		p := b.layers
		acc.failover, acc.takeover = p.failover, p.takeover
		acc.kills, acc.resends, acc.extraScans = p.kills, p.resends, p.extraScans
		for _, n := range []string{"detector.failover_us", "election.takeover_us",
			"core.resends_per_kill", "core.neighbor_scans_per_kill",
			"recovery.resume_us_p50", "recovery.resume_us_p90"} {
			probed[n] = true
		}
	}
	b.layers = acc
	return probed, nil
}

// capSpans keeps whole ranks, in rank order, up to max spans in total.
func capSpans(perRank []linked, max int) []linked {
	total := 0
	for i, l := range perRank {
		if total+len(l.spans) > max {
			return perRank[:i]
		}
		total += len(l.spans)
	}
	return perRank
}

// endToEnd computes the end-to-end metrics of the measured phase, and
// the p90 and p99, which are printed but not bounded: a tail is the ops a
// collection or a stall of the shared machine overlaps, and it moved with
// the machine's speed by more than the bound (see README.md). The traced
// run reports the p90 as a per-layer metric.
func (b *bench) endToEnd() (e2e, tails []metric) {
	wl := b.wl
	return []metric{
		{"setup_s", "s", quantile(b.setupS, 0.5), fmt.Sprintf("median of %d worlds", len(b.setupS))},
		{"ops_per_s", "1/s", ratio(b.ops, b.opSec), fmt.Sprintf("%s over %.0f ops in %.3g s", wl.opRate, b.ops, b.opSec)},
		{"op_us_p50", "us", quantile(b.opUS, 0.5), fmt.Sprintf("%s p50 of %d", wl.opLatency, len(b.opUS))},
	}, []metric{b.tail(0.9), b.tail(0.99)}
}

// tail is the q-quantile of the phase's op latencies, with how many
// samples lie beyond it.
func (b *bench) tail(q float64) metric {
	n := len(b.opUS)
	return metric{fmt.Sprintf("op_us_p%.0f", 100*q), "us", quantile(b.opUS, q),
		fmt.Sprintf("%s p%.0f of %d (%d beyond)", b.wl.opLatency, 100*q, n, beyond(n, q))}
}

// printRecord prints the reproducibility record as one comment line.
func printRecord(r map[string]any) {
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		return
	}
	fmt.Println("# record", string(line))
}

// machine describes where the run happened.
func machine() map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpu": cpuModel(),
	}
}

// cpuTicks reads the machine's CPU time counters from /proc/stat: the
// total over all states and the part the hypervisor stole. Steal makes
// every wall-clock timing of a run slower, so the record reports it.
func cpuTicks() (total, steal int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
