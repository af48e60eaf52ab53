// Morsel-style intra-operator parallelism. The executor stays a pull-based
// Volcano engine at operator granularity, but when Options.Parallelism asks
// for more than one worker the compiler swaps in the operators of this file:
// each materializes its input(s), partitions the work into fixed-size
// morsels (contiguous row ranges), and fans the morsels out to a small
// worker pool.
//
// Determinism is a hard requirement — the serial-vs-parallel oracle tests
// assert row-identical results and identical per-operator cardinalities —
// so every parallel operator is built on the same discipline:
//
//   - Work is partitioned by fixed chunk boundaries that depend only on the
//     input size, never on worker scheduling. Workers pull chunk indices
//     from an atomic cursor, but each chunk's output is a pure function of
//     its row range.
//   - Per-chunk outputs are concatenated (or merged) in chunk-index order,
//     which reproduces the serial operator's output order row for row.
//   - Parallel aggregation keeps one thread-local partial-aggregate table
//     per chunk and merges them in chunk order through the accumulators'
//     Merge step — the paper's eager/partial aggregation reused as the
//     combine rule. Group output order (first appearance) and accumulator
//     fold order therefore match serial execution exactly; results are
//     bit-identical whenever the aggregate arithmetic is exact (integers,
//     exactly representable floats).
//
// The parallel hash join follows the partitioned build/probe scheme: the
// build side is scattered into Parallelism hash partitions by join-key hash
// (a serial scatter, preserving build-input order within each partition),
// the partition hash tables are built by parallel workers, and probe
// workers then consume morsels of the probe side, each probing the
// partition its row hashes to.
package exec

import (
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/value"
)

// MorselSize is the number of rows in one scheduling unit. Small enough to
// balance skewed predicates across workers, large enough to amortize the
// per-morsel bookkeeping.
const MorselSize = 1024

// effectiveParallelism resolves Options.Parallelism: 0 and 1 mean serial
// execution (the pre-parallelism operators, bit-for-bit), negative means
// one worker per CPU, anything else is the worker count itself.
func (o *Options) effectiveParallelism() int {
	p := o.Parallelism
	if p < 0 {
		p = runtime.NumCPU()
	}
	if p < 1 {
		p = 1
	}
	return p
}

// numChunks is the number of size-row chunks covering [0, n).
func numChunks(n, size int) int {
	if n <= 0 {
		return 0
	}
	return (n + size - 1) / size
}

// forEachChunk partitions [0, n) into fixed size-row chunks and runs
// fn(worker, chunk, lo, hi) for each, fanning the chunks out to at most
// `workers` goroutines that pull chunk indices from a shared atomic cursor.
// Chunk boundaries depend only on n and size, so per-chunk results are
// deterministic regardless of which worker runs which chunk; the worker
// index (0 on the serial fallback path) exists purely for observability —
// per-worker morsel accounting — and must not influence results. The first
// error (by chunk index) cancels remaining chunks and is returned; a panic
// in fn terminates only its worker (the pool drains and joins normally) and
// surfaces as an *ExecPanicError carrying `where` and the worker id, after
// any deterministic chunk-indexed error. Every worker is joined before
// forEachChunk returns, error or not.
func forEachChunk(where string, workers, n, size int, fn func(worker, chunk, lo, hi int) error) error {
	chunks := numChunks(n, size)
	if chunks == 0 {
		return nil
	}
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		// Serial fallback: a panic here unwinds to Run's top-level recovery.
		for c := 0; c < chunks; c++ {
			lo := c * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			if err := fn(0, c, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}
	var cursor atomic.Int64
	var failed atomic.Bool
	errs := make([]error, chunks)
	panicErrs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		worker := w
		goSafe(&wg, where, worker, func(err error) {
			panicErrs[worker] = err
			failed.Store(true)
		}, func() {
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks || failed.Load() {
					return
				}
				lo := c * size
				hi := lo + size
				if hi > n {
					hi = n
				}
				if err := fn(worker, c, lo, hi); err != nil {
					errs[c] = err
					failed.Store(true)
					return
				}
			}
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, err := range panicErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkSizeFor splits n rows into one contiguous chunk per worker — the
// chunking used by thread-local partial aggregation, where the merge cost
// scales with the chunk count rather than the row count.
func chunkSizeFor(n, workers int) int {
	size := (n + workers - 1) / workers
	if size < 1 {
		size = 1
	}
	return size
}

// concatChunks flattens per-chunk outputs in chunk order.
func concatChunks(outs [][]value.Row) []value.Row {
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	if total == 0 {
		return nil
	}
	flat := make([]value.Row, 0, total)
	for _, o := range outs {
		flat = append(flat, o...)
	}
	return flat
}

// drainBoth drains two operators concurrently — inter-subtree parallelism
// for plans whose join inputs are themselves expensive. The per-node metric
// wrappers must be (and are) safe for concurrent Close: their counters are
// atomics.
// Panics on either side become *ExecPanicError; the left side is recovered
// locally (not left to Run's top-level recovery) precisely so that wg.Wait
// always runs and the right-side goroutine is joined before return.
func drainBoth(where string, l, r Operator) (lrows, rrows []value.Row, err error) {
	var rerr error
	var wg sync.WaitGroup
	goSafe(&wg, where, -1, func(e error) { rerr = e }, func() {
		rrows, rerr = drain(r)
	})
	lrows, lerr := func() (rows []value.Row, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				rows, err = nil, panicError(where, -1, rec)
			}
		}()
		return drain(l)
	}()
	wg.Wait()
	if lerr != nil {
		return nil, nil, lerr
	}
	if rerr != nil {
		return nil, nil, rerr
	}
	return lrows, rrows, nil
}

// bufOp is the streaming tail shared by the materializing parallel
// operators: Open fills out, Next drains it.
type bufOp struct {
	out []value.Row
	pos int
}

func (b *bufOp) reset(rows []value.Row) { b.out, b.pos = rows, 0 }

func (b *bufOp) Next() (value.Row, bool, error) {
	if b.pos >= len(b.out) {
		return nil, false, nil
	}
	row := b.out[b.pos]
	b.pos++
	return row, true, nil
}

func (b *bufOp) Close() error { return nil }

// ----------------------------------------------------------- scan/filter

// parallelFilterOp materializes its input (for a base-table scan this is
// the morsel-partitioned table itself) and evaluates the predicate over
// morsels in parallel. Concatenating survivors in morsel order makes the
// output row-identical to the serial filterOp's.
type parallelFilterOp struct {
	input   Operator
	cond    expr.Expr
	params  expr.Params
	par     int
	metrics *obs.OpMetrics // nil unless metrics collection is on
	gov     *governor      // nil unless lifecycle governance is on
	where   string         // plan-node description, for panic/cancel reporting
	bufOp
}

func (f *parallelFilterOp) Open() error {
	rows, err := drain(f.input)
	if err != nil {
		return err
	}
	outs := make([][]value.Row, numChunks(len(rows), MorselSize))
	err = forEachChunk(f.where, f.par, len(rows), MorselSize, func(w, c, lo, hi int) error {
		if err := f.gov.cancelled(); err != nil {
			return err
		}
		if f.metrics != nil {
			f.metrics.Morsel(w)
		}
		var keep []value.Row
		for _, row := range rows[lo:hi] {
			if err := f.gov.tick(); err != nil {
				return err
			}
			truth, err := expr.EvalTruth(f.cond, row, f.params)
			if err != nil {
				return err
			}
			if truth == value.True {
				keep = append(keep, row)
			}
		}
		outs[c] = keep
		return nil
	})
	if err != nil {
		return err
	}
	f.reset(concatChunks(outs))
	return nil
}

// --------------------------------------------------------------- project

// parallelProjectOp evaluates the item expressions over morsels in
// parallel. DISTINCT deduplication stays a serial pass over the (cheap)
// already-projected rows, keeping first occurrences in input order exactly
// as the serial projectOp does.
type parallelProjectOp struct {
	input    Operator
	items    []expr.Expr
	distinct bool
	params   expr.Params
	par      int
	metrics  *obs.OpMetrics
	gov      *governor
	where    string
	bufOp
}

func (p *parallelProjectOp) Open() error {
	rows, err := drain(p.input)
	if err != nil {
		return err
	}
	outs := make([][]value.Row, numChunks(len(rows), MorselSize))
	err = forEachChunk(p.where, p.par, len(rows), MorselSize, func(w, c, lo, hi int) error {
		if err := p.gov.cancelled(); err != nil {
			return err
		}
		if p.metrics != nil {
			p.metrics.Morsel(w)
		}
		proj := make([]value.Row, 0, hi-lo)
		for _, row := range rows[lo:hi] {
			if err := p.gov.tick(); err != nil {
				return err
			}
			out := make(value.Row, len(p.items))
			for i, item := range p.items {
				v, err := expr.Eval(item, row, p.params)
				if err != nil {
					return err
				}
				out[i] = v
			}
			proj = append(proj, out)
		}
		outs[c] = proj
		return nil
	})
	if err != nil {
		return err
	}
	flat := concatChunks(outs)
	if p.distinct {
		seen := make(map[string]bool, len(flat))
		dedup := flat[:0]
		for _, row := range flat {
			if err := p.gov.tick(); err != nil {
				return err
			}
			key := value.GroupKeyAll(row)
			if seen[key] {
				continue
			}
			seen[key] = true
			dedup = append(dedup, row)
		}
		flat = dedup
	}
	p.reset(flat)
	return nil
}

// ------------------------------------------------------------- hash join

// partitionOf hashes a join key into one of n partitions.
func partitionOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// parallelHashJoinOp is the partitioned parallel hash join: both inputs are
// drained concurrently; the build (right) side is scattered into par hash
// partitions by join-key hash (serial scatter, so each partition keeps
// build-input order); the partition hash tables are built by parallel
// workers; probe workers then consume morsels of the left input, each row
// probing the partition it hashes to. Because matches within a key follow
// build order and morsel outputs concatenate in probe order, the output is
// row-identical to the serial hashJoinOp's.
type parallelHashJoinOp struct {
	left, right Operator
	keys        []equiKey
	residual    expr.Expr
	params      expr.Params
	par         int
	metrics     *obs.OpMetrics
	gov         *governor
	where       string
	bufOp
}

func (j *parallelHashJoinOp) Open() error {
	lrows, rrows, err := drainBoth(j.where, j.left, j.right)
	if err != nil {
		return err
	}
	leftCols := make([]int, len(j.keys))
	rightCols := make([]int, len(j.keys))
	for i, k := range j.keys {
		leftCols[i] = k.left
		rightCols[i] = k.right
	}

	// Build phase: scatter, then build each partition's table in parallel.
	nPart := j.par
	parts := make([][]value.Row, nPart)
	for _, row := range rrows {
		if err := j.gov.tick(); err != nil {
			return err
		}
		if anyNullAt(row, rightCols) {
			continue
		}
		p := partitionOf(value.GroupKey(row, rightCols), nPart)
		parts[p] = append(parts[p], row)
	}
	tables := make([]map[string][]value.Row, nPart)
	err = forEachChunk(j.where, j.par, nPart, 1, func(w, c, lo, hi int) error {
		if err := j.gov.cancelled(); err != nil {
			return err
		}
		if j.metrics != nil {
			j.metrics.Morsel(w)
		}
		t := make(map[string][]value.Row, len(parts[c]))
		var bytes int64
		for _, row := range parts[c] {
			if err := j.gov.tick(); err != nil {
				return err
			}
			key := value.GroupKey(row, rightCols)
			t[key] = append(t[key], row)
			entry := int64(len(key)) + rowStateBytes(row)
			bytes += entry
			if err := j.gov.charge(j.where, entry); err != nil {
				return err
			}
		}
		tables[c] = t
		if j.metrics != nil {
			j.metrics.BuildEntries.Add(int64(len(parts[c])))
			j.metrics.StateBytes.Add(bytes)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Probe phase: morsel-parallel over the left input.
	outs := make([][]value.Row, numChunks(len(lrows), MorselSize))
	err = forEachChunk(j.where, j.par, len(lrows), MorselSize, func(w, c, lo, hi int) error {
		if err := j.gov.cancelled(); err != nil {
			return err
		}
		if j.metrics != nil {
			j.metrics.Morsel(w)
		}
		var matches []value.Row
		var hits int64
		for _, row := range lrows[lo:hi] {
			if err := j.gov.tick(); err != nil {
				return err
			}
			if anyNullAt(row, leftCols) {
				continue
			}
			key := value.GroupKey(row, leftCols)
			found := tables[partitionOf(key, nPart)][key]
			hits += int64(len(found))
			for _, m := range found {
				out := row.Concat(m)
				truth, err := expr.EvalTruth(j.residual, out, j.params)
				if err != nil {
					return err
				}
				if truth == value.True {
					matches = append(matches, out)
				}
			}
		}
		outs[c] = matches
		if j.metrics != nil {
			j.metrics.ProbeHits.Add(hits)
		}
		return nil
	})
	if err != nil {
		return err
	}
	j.reset(concatChunks(outs))
	return nil
}

// ------------------------------------------------------ nested-loop join

// parallelNestedLoopJoinOp materializes both inputs (concurrently) and
// fans morsels of the left input out to workers, each scanning the full
// right side per row — the serial nested loop's output order, morsel by
// morsel.
type parallelNestedLoopJoinOp struct {
	left, right Operator
	cond        expr.Expr
	params      expr.Params
	par         int
	metrics     *obs.OpMetrics
	gov         *governor
	where       string
	bufOp
}

func (j *parallelNestedLoopJoinOp) Open() error {
	lrows, rrows, err := drainBoth(j.where, j.left, j.right)
	if err != nil {
		return err
	}
	outs := make([][]value.Row, numChunks(len(lrows), MorselSize))
	err = forEachChunk(j.where, j.par, len(lrows), MorselSize, func(w, c, lo, hi int) error {
		if err := j.gov.cancelled(); err != nil {
			return err
		}
		if j.metrics != nil {
			j.metrics.Morsel(w)
		}
		var matches []value.Row
		for _, lrow := range lrows[lo:hi] {
			for _, rrow := range rrows {
				if err := j.gov.tick(); err != nil {
					return err
				}
				out := lrow.Concat(rrow)
				truth, err := expr.EvalTruth(j.cond, out, j.params)
				if err != nil {
					return err
				}
				if truth == value.True {
					matches = append(matches, out)
				}
			}
		}
		outs[c] = matches
		return nil
	})
	if err != nil {
		return err
	}
	j.reset(concatChunks(outs))
	return nil
}

// ------------------------------------------------------ hash aggregation

// parallelHashGroupOp is parallel hash aggregation: one thread-local
// partial-aggregate table per contiguous input chunk (one chunk per
// worker), merged in chunk order through the accumulators' Merge step. The
// merged table's group order — first appearance across the ordered chunks —
// equals the serial hashGroupOp's first-appearance order, and the
// accumulator fold visits rows in the same relative order, so results match
// serial execution bit for bit under exact arithmetic.
type parallelHashGroupOp struct {
	groupCore
	par int
}

// localGroups is one chunk's partial-aggregate table.
type localGroups struct {
	index map[string]*groupState
	order []*groupState
	keys  []string
}

func (g *parallelHashGroupOp) Open() error {
	rows, err := drain(g.input)
	if err != nil {
		return err
	}
	if g.scalarGroup() {
		return g.openScalar(rows)
	}
	size := chunkSizeFor(len(rows), g.par)
	locals := make([]localGroups, numChunks(len(rows), size))
	err = forEachChunk(g.where, g.par, len(rows), size, func(w, c, lo, hi int) error {
		if err := g.gov.cancelled(); err != nil {
			return err
		}
		if g.metrics != nil {
			g.metrics.Morsel(w)
		}
		local := localGroups{index: make(map[string]*groupState)}
		var keyBytes int64
		for _, row := range rows[lo:hi] {
			if err := g.gov.tick(); err != nil {
				return err
			}
			key := value.GroupKey(row, g.groupCols)
			st, ok := local.index[key]
			if !ok {
				var err error
				st, err = g.newState(row)
				if err != nil {
					return err
				}
				local.index[key] = st
				local.order = append(local.order, st)
				local.keys = append(local.keys, key)
				keyBytes += int64(len(key))
				if err := g.gov.charge(g.where, g.groupStateBytes(len(key))); err != nil {
					return err
				}
			}
			if err := g.feed(st, row); err != nil {
				return err
			}
		}
		locals[c] = local
		// Per-partial accounting: BuildEntries sums the thread-local
		// tables, exposing the duplication the merge step later folds away.
		g.recordBuild(len(local.order), keyBytes)
		return nil
	})
	if err != nil {
		return err
	}
	// Deterministic merge: chunks in index order, groups in each chunk's
	// first-appearance order. A group's adopted state is therefore always
	// the one from the earliest chunk containing it, making its
	// representative row the globally first row of the group — exactly
	// the serial operator's choice.
	global := make(map[string]*groupState)
	var order []*groupState
	for _, local := range locals {
		for i, st := range local.order {
			key := local.keys[i]
			if dst, ok := global[key]; ok {
				if err := g.mergeStates(dst, st); err != nil {
					return err
				}
			} else {
				//lint:ignore budgetcharge adopts a partial state already charged when its chunk built it
				global[key] = st
				order = append(order, st)
			}
		}
	}
	return g.emit(order)
}

// openScalar aggregates the whole input as one group, with per-chunk
// partials merged in chunk order.
func (g *parallelHashGroupOp) openScalar(rows []value.Row) error {
	if len(rows) == 0 {
		st, err := g.newState(nil)
		if err != nil {
			return err
		}
		return g.emit([]*groupState{st})
	}
	size := chunkSizeFor(len(rows), g.par)
	partials := make([]*groupState, numChunks(len(rows), size))
	err := forEachChunk(g.where, g.par, len(rows), size, func(w, c, lo, hi int) error {
		if err := g.gov.cancelled(); err != nil {
			return err
		}
		if g.metrics != nil {
			g.metrics.Morsel(w)
		}
		st, err := g.newState(nil)
		if err != nil {
			return err
		}
		for _, row := range rows[lo:hi] {
			if err := g.gov.tick(); err != nil {
				return err
			}
			if err := g.feed(st, row); err != nil {
				return err
			}
		}
		partials[c] = st
		g.recordBuild(1, 0)
		return nil
	})
	if err != nil {
		return err
	}
	for _, st := range partials[1:] {
		if err := g.mergeStates(partials[0], st); err != nil {
			return err
		}
	}
	return g.emit(partials[:1])
}

func (g *parallelHashGroupOp) Next() (value.Row, bool, error) { return g.next() }
func (g *parallelHashGroupOp) Close() error                   { return nil }

// mergeStates folds src's partial accumulators into dst.
func (g *groupCore) mergeStates(dst, src *groupState) error {
	for i := range dst.accs {
		for k := range dst.accs[i] {
			if err := dst.accs[i][k].Merge(src.accs[i][k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// --------------------------------------------------------- parallel sort

// sortRowsStable stable-sorts rows under cmp, in parallel when par > 1:
// fixed contiguous chunks are sorted concurrently (in place) and then
// merged pairwise, ties taking the left — lower-index — chunk's row first.
// A stable sort under one comparator has a single output permutation (key
// order, ties in input order), so parallel and serial sorts are
// interchangeable everywhere, including beneath order-exploiting
// operators.
func sortRowsStable(where string, rows []value.Row, par int, cmp func(a, b value.Row) int) []value.Row {
	if par <= 1 || len(rows) < 2*MorselSize {
		slices.SortStableFunc(rows, cmp)
		return rows
	}
	size := chunkSizeFor(len(rows), par)
	chunks := numChunks(len(rows), size)
	runs := make([][]value.Row, chunks)
	// The chunk fns never return errors, so a non-nil result can only be a
	// contained worker panic; re-panic it (already typed) rather than drop
	// it — the operator or Run-level recovery reports it.
	if err := forEachChunk(where, par, len(rows), size, func(w, c, lo, hi int) error {
		run := rows[lo:hi]
		slices.SortStableFunc(run, cmp)
		runs[c] = run
		return nil
	}); err != nil {
		panic(err)
	}
	// Pairwise merge passes; adjacent runs merge in parallel.
	for len(runs) > 1 {
		merged := make([][]value.Row, (len(runs)+1)/2)
		if err := forEachChunk(where, par, len(merged), 1, func(w, c, lo, hi int) error {
			a := runs[2*c]
			if 2*c+1 >= len(runs) {
				merged[c] = a
				return nil
			}
			b := runs[2*c+1]
			out := make([]value.Row, 0, len(a)+len(b))
			i, k := 0, 0
			for i < len(a) && k < len(b) {
				// Stability: take from the left run unless the right
				// row is strictly smaller.
				if cmp(b[k], a[i]) < 0 {
					out = append(out, b[k])
					k++
				} else {
					out = append(out, a[i])
					i++
				}
			}
			out = append(out, a[i:]...)
			out = append(out, b[k:]...)
			merged[c] = out
			return nil
		}); err != nil {
			panic(err)
		}
		runs = merged
	}
	return runs[0]
}
