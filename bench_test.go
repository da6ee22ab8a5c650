// Benchmarks, one per experiment of the evaluation (DESIGN.md E1-E18).
// The paper is a tutorial with no quantitative tables, so these benches
// measure the executable form of each figure: the baseline ring, the
// fault-tolerant transformations' overhead, recovery cost per failure,
// both termination protocols, leader election, validate_all, and the
// transports. Run with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// benchRing runs one ring world per iteration and reports time per ring
// iteration as a custom metric.
func benchRing(b *testing.B, size int, cfg core.Config, mut func(*mpi.Config)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mcfg := mpi.Config{Size: size, Deadline: 60 * time.Second}
		if mut != nil {
			mut(&mcfg)
		}
		_, res, err := core.Run(mcfg, cfg)
		if err != nil {
			b.Fatalf("ring: %v", err)
		}
		if res.FinishedCount() == 0 {
			b.Fatal("nothing finished")
		}
	}
}

// BenchmarkE1UnawareRing is the Fig. 2 baseline (per world size).
func BenchmarkE1UnawareRing(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRing(b, n, core.Config{Iters: 32, Variant: core.VariantUnaware}, nil)
		})
	}
}

// BenchmarkE2FTRingNoFault measures the full FT design with no failures —
// the failure-free overhead the paper's transformations cost.
func BenchmarkE2FTRingNoFault(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRing(b, n, core.Config{Iters: 32, Variant: core.VariantFull}, nil)
		})
	}
}

// BenchmarkE3NaiveDeadlockDetection measures how fast the harness turns
// the Fig. 6 hang into a reported deadlock (watchdog path).
func BenchmarkE3NaiveDeadlockDetection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := inject.NewPlan().Add(inject.AfterNthRecv(2, 2))
		mcfg := mpi.Config{Size: 4, Deadline: 50 * time.Millisecond, Hook: plan.Hook()}
		_, _, err := core.Run(mcfg, core.Config{Iters: 6, Variant: core.VariantNaive})
		if !errors.Is(err, mpi.ErrTimedOut) {
			b.Fatalf("expected deadlock, got %v", err)
		}
	}
}

// BenchmarkE4RecoveryResend measures a complete run that includes one
// Fig. 7 failure + resend recovery.
func BenchmarkE4RecoveryResend(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := inject.NewPlan().Add(inject.AfterNthRecv(2, 2))
		mcfg := mpi.Config{Size: 4, Deadline: 60 * time.Second, Hook: plan.Hook()}
		report, _, err := core.Run(mcfg, core.Config{Iters: 6, Variant: core.VariantFull})
		if err != nil {
			b.Fatal(err)
		}
		if report.TotalResends() < 1 {
			b.Fatal("no resend happened")
		}
	}
}

// BenchmarkE5NoMarkerDuplicates runs the Fig. 8 schedule (duplicates
// forwarded) and BenchmarkE6MarkerDedup the Fig. 10 one (suppressed).
func BenchmarkE5NoMarkerDuplicates(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := inject.NewPlan().Add(inject.AfterNthSend(2, 2))
		mcfg := mpi.Config{Size: 4, Deadline: 60 * time.Second, Hook: plan.Hook()}
		report, _, err := core.Run(mcfg, core.Config{Iters: 4, Variant: core.VariantNoMarker})
		if err != nil {
			b.Fatal(err)
		}
		if report.TotalDupsForwarded() < 1 {
			b.Fatal("expected duplicates")
		}
	}
}

// BenchmarkE6MarkerDedup is the same schedule with markers enabled.
func BenchmarkE6MarkerDedup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := inject.NewPlan().Add(inject.AfterNthSend(2, 2))
		mcfg := mpi.Config{Size: 4, Deadline: 60 * time.Second, Hook: plan.Hook()}
		report, _, err := core.Run(mcfg, core.Config{Iters: 4, Variant: core.VariantFull})
		if err != nil {
			b.Fatal(err)
		}
		if report.TotalDupsForwarded() != 0 {
			b.Fatal("marker failed")
		}
	}
}

// BenchmarkE7TermRootBcast measures the Fig. 11 termination protocol.
func BenchmarkE7TermRootBcast(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRing(b, n, core.Config{
				Iters: 8, Variant: core.VariantFull, Termination: core.TermRootBcast,
			}, nil)
		})
	}
}

// BenchmarkE8Election measures the Fig. 12 local leader scan embedded in
// a failover run (root dies, survivors elect).
func BenchmarkE8Election(b *testing.B) {
	for _, n := range []int{5, 9, 17, 33} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan := inject.NewPlan().Add(inject.AfterNthRecv(0, 2))
				mcfg := mpi.Config{Size: n, Deadline: 60 * time.Second, Hook: plan.Hook()}
				report, _, err := core.Run(mcfg, core.Config{
					Iters: 4, Variant: core.VariantFull,
					Termination: core.TermValidateAll, RootPolicy: core.RootElect,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !report.Rank(1).BecameRoot {
					b.Fatal("no election happened")
				}
			}
		})
	}
}

// BenchmarkE9TermValidateAll measures the Fig. 13 termination protocol.
func BenchmarkE9TermValidateAll(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRing(b, n, core.Config{
				Iters: 8, Variant: core.VariantFull, Termination: core.TermValidateAll,
			}, nil)
		})
	}
}

// BenchmarkE10RunThrough measures complete runs with f failures spread
// over the execution — the paper's run-through claim as a cost curve.
func BenchmarkE10RunThrough(b *testing.B) {
	for _, f := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("failures=%d", f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan, _ := inject.RandomPlan(int64(i)+1, nonRoots(16), f, 8)
				mcfg := mpi.Config{Size: 16, Deadline: 60 * time.Second, Hook: plan.Hook()}
				_, res, err := core.Run(mcfg, core.Config{
					Iters: 16, Variant: core.VariantFull, Termination: core.TermValidateAll,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.FinishedCount() != 16-f {
					b.Fatalf("finished %d, want %d", res.FinishedCount(), 16-f)
				}
			}
		})
	}
}

// BenchmarkE11DedupAblation compares the marker scheme against the
// separate-resend-tag alternative of Section III-B.
func BenchmarkE11DedupAblation(b *testing.B) {
	for _, v := range []core.Variant{core.VariantFull, core.VariantSeparateTag} {
		b.Run(v.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan := inject.NewPlan().Add(inject.AfterNthSend(2, 2))
				mcfg := mpi.Config{Size: 8, Deadline: 60 * time.Second, Hook: plan.Hook()}
				if _, _, err := core.Run(mcfg, core.Config{Iters: 16, Variant: v}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12RootFailover measures the Section III-D control-regain
// path end to end.
func BenchmarkE12RootFailover(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := inject.NewPlan().Add(inject.AfterNthRecv(0, 3))
		mcfg := mpi.Config{Size: 9, Deadline: 60 * time.Second, Hook: plan.Hook()}
		report, _, err := core.Run(mcfg, core.Config{
			Iters: 8, Variant: core.VariantFull,
			Termination: core.TermValidateAll, RootPolicy: core.RootElect,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !report.Rank(1).BecameRoot {
			b.Fatal("root never failed over")
		}
	}
}

// BenchmarkE13ValidateAll measures the agreement alone, per call.
func BenchmarkE13ValidateAll(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			w, err := mpi.NewWorld(n, mpi.WithDeadline(5*time.Minute))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := w.Run(func(p *mpi.Proc) error {
				p.World().SetErrhandler(mpi.ErrorsReturn)
				for i := 0; i < b.N; i++ {
					if _, err := p.World().ValidateAll(); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkE14Collectives measures the collective algorithms themselves
// (barrier, bcast, allreduce) per operation.
func BenchmarkE14Collectives(b *testing.B) {
	run := func(b *testing.B, n int, op func(c *mpi.Comm) error) {
		b.Helper()
		b.ReportAllocs()
		w, err := mpi.NewWorld(n, mpi.WithDeadline(5*time.Minute))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Run(func(p *mpi.Proc) error {
			p.World().SetErrhandler(mpi.ErrorsReturn)
			for i := 0; i < b.N; i++ {
				if err := op(p.World()); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	payload := collective.EncodeInt64s(make([]int64, 16))
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("barrier/n=%d", n), func(b *testing.B) {
			run(b, n, func(c *mpi.Comm) error { return collective.Barrier(c) })
		})
		b.Run(fmt.Sprintf("bcast/n=%d", n), func(b *testing.B) {
			run(b, n, func(c *mpi.Comm) error {
				_, err := collective.Bcast(c, 0, payload)
				return err
			})
		})
		b.Run(fmt.Sprintf("allreduce/n=%d", n), func(b *testing.B) {
			run(b, n, func(c *mpi.Comm) error {
				_, err := collective.Allreduce(c, payload, collective.SumInt64)
				return err
			})
		})
	}
}

// BenchmarkE15Transports runs the identical FT ring over each fabric:
// the in-memory baseline and TCP loopback with the pooled binary framing.
func BenchmarkE15Transports(b *testing.B) {
	const n = 8
	fabrics := []struct {
		name string
		make func() transport.Fabric
	}{
		{"local", func() transport.Fabric { return transport.NewLocal() }},
		{"tcp-binary", func() transport.Fabric { return transport.NewTCP(n) }},
	}
	for _, f := range fabrics {
		b.Run(f.name, func(b *testing.B) {
			benchRing(b, n, core.Config{Iters: 16, Variant: core.VariantFull},
				func(m *mpi.Config) { m.Fabric = f.make() })
		})
	}
}

// BenchmarkE17LargeN scales the two matching-heavy workloads to world
// sizes far beyond the paper's examples, over the Local fabric: the full
// FT ring (per-hop cost) and a world-wide validate_all (agreement over
// N-1 voters). With the indexed matching engine both stay near-flat per
// operation as N grows; the pre-index linear-scan engine degraded with
// queue depth (see internal/mpi BenchmarkPostedMatch* for the isolated
// head-to-head, and EXPERIMENTS.md E17 for recorded numbers).
func BenchmarkE17LargeN(b *testing.B) {
	sizes := []int{256, 1024, 4096}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("ring/n=%d", n), func(b *testing.B) {
			benchRing(b, n, core.Config{Iters: 4, Variant: core.VariantFull}, nil)
		})
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("validate/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := mpi.NewWorld(n, mpi.WithDeadline(60*time.Second))
				if err != nil {
					b.Fatal(err)
				}
				_, err = w.Run(func(p *mpi.Proc) error {
					c := p.World()
					c.SetErrhandler(mpi.ErrorsReturn)
					cnt, verr := c.ValidateAll()
					if verr != nil {
						return verr
					}
					if cnt != 0 {
						return fmt.Errorf("agreed on %d failures, want 0", cnt)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE18ChaosSoak measures the FT ring completing over a fabric
// injecting the E18 fault mix (10% drop, 5% dup, 1% corrupt per link),
// against the same ring on a clean fabric — the price of running through
// a hostile network with the reliability sublayer on.
func BenchmarkE18ChaosSoak(b *testing.B) {
	cfg := core.Config{Iters: 8, Variant: core.VariantFull, Termination: core.TermValidateAll}
	b.Run("clean", func(b *testing.B) {
		benchRing(b, 4, cfg, nil)
	})
	b.Run("chaos", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan := chaos.NewPlan(int64(i + 1)).Default(chaos.Rates{Drop: 0.10, Dup: 0.05, Corrupt: 0.01})
			mcfg := mpi.Config{Size: 4, Deadline: 60 * time.Second, Chaos: plan}
			_, res, err := core.Run(mcfg, cfg)
			if err != nil {
				b.Fatalf("chaotic ring: %v", err)
			}
			if res.FinishedCount() == 0 {
				b.Fatal("nothing finished")
			}
		}
	})
}

// nonRoots lists ranks 1..n-1.
func nonRoots(n int) []int {
	out := make([]int, 0, n-1)
	for r := 1; r < n; r++ {
		out = append(out, r)
	}
	return out
}
