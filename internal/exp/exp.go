// Package exp is the replication sweep engine behind every Monte-Carlo
// experiment in the repository. A sweep fans N independent simulator
// replications out across a pool of workers and collects their results in
// replication order, so the aggregate a caller sees is byte-identical
// whether the sweep ran on one goroutine or sixteen.
//
// Determinism is the contract: each replication derives its own seed from
// the sweep's base seed and its replication index alone (never from
// scheduling order), every replication builds a private world (the
// simulator keeps no package-level mutable state), and results land in a
// pre-sized slice at their replication index regardless of completion
// order. The differential test suites in this package, internal/scenario
// and cmd/blackdp-experiments hold the engine to that contract under the
// race detector.
package exp

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
)

// DefaultWorkers is the worker count used when Options.Workers is zero:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Seed derives the base RNG seed for replication rep of a sweep labelled
// label, using the same FNV-1a label hashing as sim.RNG.Split. The result
// is a pure function of (base, label, rep): two sweeps with different
// labels are decorrelated, and a given replication draws the identical
// world no matter which worker runs it or in what order.
func Seed(base int64, label string, rep int) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(rep))
	_, _ = h.Write(b[:])
	return int64(h.Sum64()) ^ base
}

// PanicError reports a replication whose function panicked. The sweep
// converts the panic into a per-replication failure — with the replication
// index and seed attached for reproduction — instead of crashing the whole
// sweep.
type PanicError struct {
	Rep   int    // replication index that panicked
	Seed  int64  // the replication's seed, when Options.SeedOf was set
	Value any    // the recovered panic value
	Stack []byte // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exp: replication %d (seed %d) panicked: %v", e.Rep, e.Seed, e.Value)
}

// Options tune one sweep.
type Options struct {
	// Workers is the pool size. Zero (or negative) means DefaultWorkers().
	// One runs every replication inline on the calling goroutine — the
	// exact serial loop the engine replaced.
	Workers int
	// SeedOf, when non-nil, reports the seed of a replication so panics
	// and errors can name it. It must be safe for concurrent use (a pure
	// function of rep is ideal).
	SeedOf func(rep int) int64
	// OnRep, when non-nil, is called after each replication completes with
	// its index and error (nil on success). Calls are serialised but, with
	// more than one worker, not in replication order, so streaming
	// consumers (e.g. NDJSON progress writers) need no synchronisation of
	// their own; a blocking OnRep stalls the whole pool, so buffer if the
	// sink is slow.
	OnRep func(rep int, err error)
}

// Map runs fn for every replication 0..reps-1 and returns the results in
// replication order. With Workers == 1 it is a plain serial loop; otherwise
// replications are distributed over the pool as workers free up.
//
// Error semantics are order-independent: if any replications fail, Map
// returns the error of the lowest-indexed failing replication — exactly
// what the serial loop would have returned first — regardless of worker
// count. A panic inside fn fails only that replication (reported as a
// *PanicError). Cancelling ctx stops the sweep early with ctx.Err().
func Map[T any](ctx context.Context, reps int, opt Options, fn func(ctx context.Context, rep int) (T, error)) ([]T, error) {
	return MapScratch(ctx, reps, opt,
		func(int) struct{} { return struct{}{} },
		func(ctx context.Context, rep int, _ struct{}) (T, error) { return fn(ctx, rep) })
}

// MapScratch is Map with per-worker scratch state. newScratch is called once
// per worker goroutine — with the worker's index, before that worker runs its
// first replication — and the value it returns is threaded into every fn call
// the worker executes. Scratch is the engine's hook for allocation reuse:
// event pools, RNG state, outcome accumulators and decode buffers can be
// built once per worker and recycled across replications instead of once per
// replication.
//
// The determinism contract is unchanged — and it is exactly why scratch is
// per-worker rather than per-replication: fn must produce the same result
// for a given rep no matter which worker (and therefore which scratch value)
// runs it, so scratch may only carry state whose contents never leak into
// results (free lists, buffers reset per use). Worker indexes exist only to
// let newScratch size or label state; they carry no scheduling guarantee.
// With Workers == 1 a single scratch (worker 0) serves the whole serial loop.
func MapScratch[S, T any](ctx context.Context, reps int, opt Options, newScratch func(worker int) S, fn func(ctx context.Context, rep int, scratch S) (T, error)) ([]T, error) {
	if reps <= 0 {
		return nil, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > reps {
		workers = reps
	}

	results := make([]T, reps)
	if workers == 1 {
		scratch := newScratch(0)
		for rep := 0; rep < reps; rep++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out, err := runRep(ctx, rep, opt, scratch, fn)
			if opt.OnRep != nil {
				opt.OnRep(rep, err)
			}
			if err != nil {
				return nil, err
			}
			results[rep] = out
		}
		return results, nil
	}

	var (
		mu       sync.Mutex
		next     int
		firstRep = reps // lowest failing replication index seen
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			scratch := newScratch(worker)
			for {
				mu.Lock()
				rep := next
				next++
				mu.Unlock()
				if rep >= reps || ctx.Err() != nil {
					return
				}
				out, err := runRep(ctx, rep, opt, scratch, fn)
				mu.Lock()
				if opt.OnRep != nil {
					opt.OnRep(rep, err) // under mu: calls are serialised
				}
				if err != nil {
					// Keep the lowest-indexed failure so the reported
					// error matches the serial loop's. Later replications
					// still run: aborting on the first *observed* failure
					// would make the winner scheduling-dependent.
					if rep < firstRep {
						firstRep, firstErr = rep, err
					}
				} else {
					results[rep] = out
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// runRep invokes fn for one replication, converting a panic into a
// *PanicError carrying the replication's index and seed.
func runRep[S, T any](ctx context.Context, rep int, opt Options, scratch S, fn func(ctx context.Context, rep int, scratch S) (T, error)) (out T, err error) {
	defer func() {
		if v := recover(); v != nil {
			pe := &PanicError{Rep: rep, Value: v, Stack: debug.Stack()}
			if opt.SeedOf != nil {
				pe.Seed = opt.SeedOf(rep)
			}
			err = pe
		}
	}()
	return fn(ctx, rep, scratch)
}
