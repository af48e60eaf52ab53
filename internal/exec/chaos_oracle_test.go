package exec_test

// The chaos oracle: randomized queries executed under deterministic fault
// injection. Every faulted run must end in exactly one of two ways — the
// oracle's rows, identical value for value and in order, or a clean typed
// error (context cancellation, an injected *fault.Error, a *ResourceError
// from the memory budget, or a contained *ExecPanicError). Never a hang,
// never a partial result passed off as success, never an untyped error,
// and never a leaked goroutine: the suite runs hundreds of cancel/panic/
// alloc-failure schedules through both serial and parallel execution and
// demands the goroutine count settles back to the baseline at the end.
// "make chaos" runs this suite under the race detector.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/sql"
)

// chaosExpectedError reports whether err is one of the typed failures a
// governed execution is allowed to surface under fault injection.
func chaosExpectedError(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var fe *fault.Error
	var re *exec.ResourceError
	var pe *exec.ExecPanicError
	return errors.As(err, &fe) || errors.As(err, &re) || errors.As(err, &pe)
}

func TestChaosOracle(t *testing.T) {
	targetQueries := 200
	if testing.Short() {
		targetQueries = 40
	}
	const runsPerQuery = 3
	r := rand.New(rand.NewSource(0xC4A05))
	baseline := runtime.NumGoroutine()

	queries, cleanRuns, faultedRuns := 0, 0, 0
	for queries < targetQueries {
		store := randomSweepStore(t, r)
		qs := sweepQueries(r)
		query := qs[r.Intn(len(qs))]
		q, err := sql.ParseQuery(query)
		if err != nil {
			t.Fatalf("parsing %q: %v", query, err)
		}
		report, err := core.NewOptimizer(store).Optimize(q)
		if err != nil {
			t.Fatalf("optimizing %q: %v", query, err)
		}
		plans := []algebra.Node{report.Standard}
		if report.Alternative != nil {
			plans = append(plans, report.Alternative)
		}
		plan := plans[r.Intn(len(plans))]
		par := 1 + 3*r.Intn(2) // 1 or 4
		vecMode := r.Intn(2) == 1

		// The oracle: the same plan, no faults, serial,
		// row-at-a-time. Faulted vectorized runs are held to the row
		// engine's exact rows, so chaos doubles as a differential oracle.
		oracleRes, err := exec.Run(plan, store, &exec.Options{})
		if err != nil {
			t.Fatalf("oracle run for %q: %v", query, err)
		}
		want := rowStrings(oracleRes.Rows)

		for run := 0; run < runsPerQuery; run++ {
			ctx, cancel := context.WithCancel(context.Background())
			// Horizon ~2000 covers these stores' full row-event range, so
			// schedules land both mid-execution and past the end (a no-op
			// schedule must change nothing).
			inj := fault.NewSeeded(r.Int63(), 2000, 4).
				WithCancel(cancel).
				WithDelay(20 * time.Microsecond)
			opts := &exec.Options{
				Parallelism: par, Vectorize: vecMode,
				Context: ctx, Faults: inj,
			}
			// A third of the runs also carry a tight-ish memory budget, so
			// budget aborts interleave with the injected faults.
			if r.Intn(3) == 0 {
				opts.MemoryBudget = 1 + r.Int63n(1<<14)
			}
			res, err := exec.Run(plan, store, opts)
			cancel()
			if err == nil {
				cleanRuns++
				got := rowStrings(res.Rows)
				if !sameRowOrder(want, got) {
					t.Fatalf("faulted run diverged from oracle without reporting an error\nquery: %s\npar=%d vec=%v budget=%d schedule=%v\noracle (%d rows): %v\nfaulted (%d rows): %v",
						query, par, vecMode, opts.MemoryBudget, inj.Events(), len(want), want, len(got), got)
				}
			} else {
				faultedRuns++
				if res != nil {
					t.Fatalf("failed run returned a partial result\nquery: %s\nerr: %v", query, err)
				}
				if !chaosExpectedError(err) {
					t.Fatalf("fault surfaced as an untyped error\nquery: %s\npar=%d vec=%v budget=%d schedule=%v\nerr (%T): %v",
						query, par, vecMode, opts.MemoryBudget, inj.Events(), err, err)
				}
			}
		}
		queries++
	}

	// Leak check: every worker and drain goroutine of every faulted run must
	// be gone. The runtime needs a moment to retire finished goroutines, so
	// poll until the count settles at (or below) the baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle after the chaos sweep: baseline %d, now %d",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("chaos oracle: %d queries × %d schedules — %d runs failed with a clean typed error, %d ran to the oracle result",
		queries, runsPerQuery, faultedRuns, cleanRuns)
}
