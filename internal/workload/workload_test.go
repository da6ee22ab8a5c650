package workload

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", "a", "b")
	tab.Add(1, 2*time.Millisecond)
	tab.Add("x", 3.14159)
	tab.Note("footnote %d", 7)
	out := tab.Render()
	for _, want := range []string{"== demo ==", "a", "b", "2ms", "3.142", "note: footnote 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestByID(t *testing.T) {
	for _, e := range All() {
		got, ok := ByID(e.ID)
		if !ok || got.Title != e.Title {
			t.Fatalf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("e99"); ok {
		t.Fatal("unknown id should not resolve")
	}
}

func TestAllHaveMetadata(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	if len(ids) != 24 {
		t.Fatalf("have %d experiments, want 24", len(ids))
	}
}

// TestEveryExperimentRunsQuick executes the full suite in quick mode —
// the same code path cmd/ftbench uses — and sanity-checks each table.
func TestEveryExperimentRunsQuick(t *testing.T) {
	opt := Options{Quick: true, Seed: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(opt)
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.PaperRef, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("%s table %q has no rows", e.ID, tab.Title)
				}
				if out := tab.Render(); !strings.Contains(out, tab.Title) {
					t.Fatalf("%s render broken", e.ID)
				}
			}
		})
	}
}

// requirePassed fails the test on every broken verdict, naming the
// scenario, the seed and the invariant that broke.
func requirePassed(t *testing.T, groups ...[]Verdict) {
	t.Helper()
	for _, g := range groups {
		for _, v := range g {
			if err := v.Err(); err != nil {
				t.Error(err)
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// families collects the latency families with samples over verdicts.
func families(groups ...[]Verdict) map[string]bool {
	out := map[string]bool{}
	for f, s := range mergeLat(groups...) {
		if s.Count > 0 {
			out[f.String()] = true
		}
	}
	return out
}

// TestSweepReportsBrokenInvariant is the harness contract: a seed that
// breaks an invariant yields a verdict naming the seed and that
// invariant, the sweep still runs every seed, and the experiment-level
// error names the first broken seed and invariant.
func TestSweepReportsBrokenInvariant(t *testing.T) {
	row := chaosRows()[1]
	row.Chaos = nil
	row.Invariants = append(row.Invariants, Invariant{"even seeds only", func(r *run) error {
		if r.seed%2 == 0 {
			return nil
		}
		return fmt.Errorf("seed %d is odd", r.seed)
	}})
	groups := sweep(Options{Seed: 2}, 4, []Scenario{row})
	if got := len(groups[0]); got != 4 {
		t.Fatalf("sweep ran %d seeds, want 4", got)
	}
	for _, v := range groups[0] {
		wantBroken := v.Seed%2 == 1
		if (v.Broken != "") != wantBroken {
			t.Fatalf("seed %d: Broken=%q, want broken=%v", v.Seed, v.Broken, wantBroken)
		}
		if wantBroken && !strings.HasPrefix(v.Broken, "even seeds only: ") {
			t.Fatalf("seed %d: Broken=%q does not name the invariant", v.Seed, v.Broken)
		}
	}
	err := brokenErr(groups...)
	if err == nil {
		t.Fatal("sweep with broken seeds returned no error")
	}
	for _, want := range []string{"2 of 4 seeds broken", "validate_all seed 3", "even seeds only: seed 3 is odd"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestChaosSoakAllSeedsOK is the acceptance gate for the chaos fabric:
// every seed of every E18 workload must complete with its application
// invariant intact. Full sweep is 20 seeds x 3 workloads; -short shrinks
// it to the quick sweep.
func TestChaosSoakAllSeedsOK(t *testing.T) {
	opt := Options{Quick: testing.Short(), Seed: 1}
	rows := chaosRows()
	groups := sweep(opt, soakSeeds(opt, 20, 4), rows)
	requirePassed(t, groups...)
	for i, g := range groups {
		if injected(g, chaos.EvDrop) == 0 {
			t.Fatalf("workload %q injected no drops — chaos not wired?", rows[i].Name)
		}
	}
}

// TestHeartbeatSoakAllSeedsOK is the acceptance gate for the heartbeat
// detector: every seed of every E19 workload must terminate with the
// application invariant intact, with failures detected only through
// heartbeats, fencing, and confirmation (no oracle). Full sweep is 20
// seeds x 3 workloads; -short shrinks it to the quick sweep.
func TestHeartbeatSoakAllSeedsOK(t *testing.T) {
	opt := Options{Quick: testing.Short(), Seed: 1}
	rows := heartbeatRows()
	groups := sweep(opt, soakSeeds(opt, 20, 4), rows)
	requirePassed(t, groups...)
	for i, g := range groups {
		for _, c := range []metrics.Counter{metrics.Heartbeats, metrics.Suspicions, metrics.Confirms} {
			if total(g, c) == 0 {
				t.Fatalf("workload %q: %s is zero — detector not wired or nothing detected?", rows[i].Name, c)
			}
		}
	}
	// The detection latency families must reach the quantile table.
	got := families(groups...)
	for _, want := range []string{"suspicion_latency", "fence_rtt"} {
		if !got[want] {
			t.Fatalf("family %q missing from the merged latencies: %v", want, got)
		}
	}
}

// TestSwimSoakDetectionFlat is the acceptance gate for the SWIM
// detector: E20 must complete with its two sweep-wide bounds intact —
// detection-latency p99 flat vs N (bounded by the mesh baseline with a
// floor) and O(1) control frames per rank per period. -short shrinks the
// sweep to the quick sizes (mesh at 32, swim up to 1024), as does the
// race detector: `go test -race ./...` runs without -short in CI, and
// the N=4096 world under race instrumentation measures the
// instrumentation, not the detector.
func TestSwimSoakDetectionFlat(t *testing.T) {
	opt := Options{Quick: testing.Short() || raceEnabled, Seed: 1}
	rows := swimRows(opt)
	if rows[0].Detector != mpi.DetectorHeartbeat {
		t.Fatalf("first row should be the mesh baseline, got %q", rows[0].Name)
	}
	wantRows := 4 // mesh + swim at 64, 256, 1024
	if raceEnabled {
		wantRows = 3 // race builds cap the sweep at 256
	}
	if len(rows) < wantRows {
		t.Fatalf("want mesh + >=%d swim sizes, got %d rows", wantRows-1, len(rows))
	}
	groups := sweep(opt, 1, rows)
	requirePassed(t, groups...)
	if _, err := swimTables(rows, groups); err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		v := g[0]
		if len(v.Samples) == 0 {
			t.Fatalf("%s observed no detection samples", rows[i].Name)
		}
		if v.Count(metrics.Confirms) == 0 {
			t.Fatalf("%s confirmed nothing", rows[i].Name)
		}
		// The swim rows must gossip: confirms reach non-fencing ranks only
		// through the piggyback channel.
		if i > 0 && v.Count(metrics.GossipLearns) == 0 {
			t.Fatalf("%s had no gossip learns", rows[i].Name)
		}
	}
}

// TestElasticSoak is the acceptance gate for elastic worlds: E21 must
// complete every seeded run with its invariants intact — the victim
// respawned at generation 2, rank 0 observed every lap exactly once in
// order (no loss from the token dying with its holder, no duplicate from
// the resend), the verification laps crossed the full ring including the
// reincarnation, and the recovered state was at least as fresh as the
// kill lap. -short and race builds shrink the sweep from 20 seeds to 6.
func TestElasticSoak(t *testing.T) {
	opt := Options{Quick: testing.Short() || raceEnabled, Seed: 1}
	groups := sweep(opt, soakSeeds(opt, 20, 6), []Scenario{elasticRow(opt)})
	requirePassed(t, groups...)
	wantSeeds := 20
	if opt.Quick {
		wantSeeds = 6
	}
	if len(groups[0]) != wantSeeds {
		t.Fatalf("want %d seed verdicts, got %d", wantSeeds, len(groups[0]))
	}
	positions := map[int]bool{}
	for _, v := range groups[0] {
		positions[v.Kill.victim()] = true
	}
	if len(positions) < 2 {
		t.Fatalf("seeds covered only victim(s) %v — the sweep is not exercising ring positions", positions)
	}
}

// TestReplicaSoak is the acceptance gate for replication mode: every
// seeded E22 run must absorb its injected replica kill with ZERO recovery
// protocol in the application — the fault-unaware ring completes every
// lap exactly once, no rank function ever observes an error, the
// validates/resends counters stay at zero, and a promotion happens
// exactly when the victim was a primary. The sweep must cover both roles
// and the overhead rows must show R=2 sending replica copies (replication
// is not free — that is the trade E22 documents). -short and race builds
// shrink the sweep from 20 seeds to 6.
func TestReplicaSoak(t *testing.T) {
	opt := Options{Quick: testing.Short() || raceEnabled, Seed: 1}
	kills := sweep(opt, soakSeeds(opt, 20, 6),
		[]Scenario{replicaRow(opt, 2, mpi.ReplFanout, tokenSpec{laps: replicaBaseLaps})})
	requirePassed(t, kills...)
	wantSeeds := 20
	if opt.Quick {
		wantSeeds = 6
	}
	if len(kills[0]) != wantSeeds {
		t.Fatalf("want %d seed verdicts, got %d", wantSeeds, len(kills[0]))
	}
	roles := map[string]bool{}
	for _, v := range kills[0] {
		roles[v.Kill.Role()] = true
	}
	if !roles["primary"] || !roles["standby"] {
		t.Fatalf("seeds covered only role(s) %v — the sweep must kill both primaries and standbys", roles)
	}
	// Overhead rows: the R=1 baseline first, then two R=2 rows.
	rows := overheadRows(opt)
	if len(rows) != 3 || rows[0].Replication != nil {
		t.Fatalf("overhead rows should be the R=1 baseline + two R=2 rows, got %d", len(rows))
	}
	ov := sweep(opt, 1, rows)
	requirePassed(t, ov...)
	for i, g := range ov[1:] {
		if g[0].Count(metrics.ReplicaSends) == 0 {
			t.Fatalf("config %q recorded no replica sends", rows[i+1].Name)
		}
	}
	// Promotion latency must reach the quantile table.
	got := families(kills...)
	for _, want := range []string{"replica_promotion", "replication_overhead"} {
		if !got[want] {
			t.Fatalf("family %q missing from the merged latencies: %v", want, got)
		}
	}
}

// TestDurabilitySoak is the acceptance gate for the E24 durability
// gauntlet: every seeded run, in BOTH replication modes, must survive its
// full kill schedule — a primary felled inside the chain forward window
// (even chain seeds) or between a Bcast and an Allreduce, a standby of a
// second group, and a depletion kill of the automatic refill — with
// exactly-once delivery, a clean conservation audit, zero app Spawn
// calls, and every replica group healed back to degree R. -short and
// race builds shrink the sweep from 20 seeds to 4 per mode.
func TestDurabilitySoak(t *testing.T) {
	opt := Options{Quick: testing.Short() || raceEnabled, Seed: 1}
	groups := sweep(opt, soakSeeds(opt, 20, 4),
		[]Scenario{durabilityRow(mpi.ReplFanout), durabilityRow(mpi.ReplChain)})
	requirePassed(t, groups...)
	wantSeeds := 20
	if opt.Quick {
		wantSeeds = 4
	}
	placements := map[string]bool{}
	for _, g := range groups {
		if len(g) != wantSeeds {
			t.Fatalf("want %d seed verdicts per mode, got %d", wantSeeds, len(g))
		}
		for _, v := range g {
			placements[v.Kill.Point.String()] = true
		}
	}
	if !placements["forward-window"] || !placements["mid-collective"] {
		t.Fatalf("sweep covered only placement(s) %v — kills must land both inside the chain forward window and mid-collective",
			placements)
	}
	// The re-replication latency must reach the quantile table.
	if got := families(groups...); !got["rereplication_latency"] {
		t.Fatalf("family %q missing from the merged latencies: %v", "rereplication_latency", got)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[int64]int64{3: 1, 1: 1, 2: 1}
	got := sortedKeys(m)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("sortedKeys %v", got)
	}
}
