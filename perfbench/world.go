package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
)

// epoch anchors every timestamp the benchmark takes (monotonic clock).
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// appendBuf is a preallocated list that several rank goroutines append to
// without a lock: a writer claims a slot with one atomic add. A full list
// drops further items and says so.
type appendBuf[T any] struct {
	n atomic.Int64
	v []T
	_ [40]byte // keep neighbouring counters off one cache line
}

func newAppendBuf[T any](capacity int) *appendBuf[T] {
	return &appendBuf[T]{v: make([]T, capacity)}
}

// add appends x and returns its index and whether it was kept.
func (a *appendBuf[T]) add(x T) (int, bool) {
	i := a.n.Add(1) - 1
	if i >= int64(len(a.v)) {
		return int(i), false
	}
	a.v[i] = x
	return int(i), true
}

// get returns the items and whether none was lost to a full list.
func (a *appendBuf[T]) get() ([]T, bool) {
	n := a.n.Load()
	if n > int64(len(a.v)) {
		return a.v, false
	}
	return a.v[:n], true
}

func (a *appendBuf[T]) reset() { a.n.Store(0) }

// worldCfg is one world a workload asks the runner to build and run.
type worldCfg struct {
	logical, phys int
	opts          []mpi.Option
	hook          mpi.HookFunc // the workload's own hook (lap stamps, fault plan)
	body          func(p *mpi.Proc) error
	mets          *metrics.World // set when the workload itself installs them
	reg           *obs.Registry
	tracer        *trace.Recorder
}

// worldOut is what the runner measured around one world.
type worldOut struct {
	res   *mpi.RunResult
	setup float64 // s: NewWorld until the last rank entered its body
	wall  float64 // s: NewWorld until Run returned
	mets  *metrics.World
}

// runWorld builds and runs one world. In a traced phase it also installs
// the timing fabric, the span hook, a metrics table and an obs registry,
// and folds the world's spans and counters into b.layers.
func (b *bench) runWorld(wc worldCfg) (worldOut, error) {
	entered := make([]atomic.Int64, wc.phys)
	opts := append([]mpi.Option{mpi.WithDeadline(60 * time.Second)}, wc.opts...)
	hook := wc.hook
	var tf *timingFabric
	var ms0 runtime.MemStats
	if b.traced {
		b.rec.reset()
		var fab transport.Fabric
		fab, tf = newTimingFabric(transport.NewLocal(), wc.phys, b.rec)
		opts = append(opts, mpi.WithFabric(fab))
		hook = b.rec.hook(hook)
		if wc.mets == nil {
			wc.mets = metrics.NewWorld(wc.phys)
			opts = append(opts, mpi.WithMetrics(wc.mets))
		}
		if wc.reg == nil {
			wc.reg = obs.NewRegistry(wc.phys)
			opts = append(opts, mpi.WithObservability(wc.reg))
		}
		runtime.ReadMemStats(&ms0)
	}
	if hook != nil {
		opts = append(opts, mpi.WithHook(hook))
	}
	// Every world starts from a collected heap, so set-up and the first
	// laps do not inherit a collection cycle the previous world started.
	runtime.GC()
	t0 := now()
	w, err := mpi.NewWorld(wc.logical, opts...)
	if err != nil {
		return worldOut{}, fmt.Errorf("new world: %w", err)
	}
	res, err := w.Run(func(p *mpi.Proc) error {
		entered[p.PhysRank()].Store(now())
		return wc.body(p)
	})
	t1 := now()
	if err != nil && res == nil {
		return worldOut{}, fmt.Errorf("run world: %w", err)
	}
	out := worldOut{res: res, wall: float64(t1-t0) / 1e9, mets: wc.mets}
	last := t0
	for i := range entered {
		if e := entered[i].Load(); e > last {
			last = e
		}
	}
	out.setup = float64(last-t0) / 1e9
	if err != nil {
		b.check(false, "world: %v (timed out %v, stuck %v)", err, res.TimedOut, res.Stuck)
	}
	if b.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		b.layers.absorbWorld(b.rec, wc, tf, out, ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc)
	}
	return out, nil
}

// checkRanks counts each physical rank as one operation: it must have
// returned without error unless killed[rank] says the plan killed it.
func (b *bench) checkRanks(res *mpi.RunResult, killed func(rank int) bool) {
	for rank, rr := range res.Ranks {
		b.attempted++
		switch {
		case rr.Killed && killed != nil && killed(rank):
		case rr.Finished && rr.Err == nil:
		default:
			b.failed++
			b.problem("rank %d: finished=%v killed=%v aborted=%v err=%v",
				rank, rr.Finished, rr.Killed, rr.Aborted, rr.Err)
		}
	}
}

// markHeap measures the live heap once per armed world: it forces a
// collection and records HeapAlloc. Workloads call it at a fixed point
// half way through a world (see heapWorld), on a rank goroutine whose
// peers all end up waiting for it; the pause lets them get there, so the
// figure does not depend on how far they ran. A replica of the measuring
// rank that calls it meanwhile waits too, so the world is quiet while the
// collector runs; otherwise what it allocates during the collection counts
// as live. Outside a heap world it returns at once.
func (b *bench) markHeap() {
	if b.heapDone == nil {
		return
	}
	if !b.heapArmed.CompareAndSwap(true, false) {
		<-b.heapDone
		return
	}
	defer close(b.heapDone)
	time.Sleep(10 * time.Millisecond)
	// Twice: the first collection moves sync.Pool contents to the victim
	// caches, where they still count as live.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapLive.Store(ms.HeapAlloc)
}
