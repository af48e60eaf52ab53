package exec

import (
	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/value"
)

// equiKey is one equality column pair extracted from a join condition.
type equiKey struct {
	left, right int // positions in the left/right input schemas
}

// splitJoinCondition partitions the conjuncts of cond into equi-join keys
// (Type 2 atoms with one side in each input) and a residual predicate
// evaluated against the concatenated row.
func splitJoinCondition(cond expr.Expr, left, right algebra.Schema) (keys []equiKey, residual expr.Expr) {
	var rest []expr.Expr
	for _, conj := range expr.Conjuncts(cond) {
		atom := expr.ClassifyAtom(conj)
		if atom.Class == expr.AtomColCol {
			li, lerr := left.IndexOf(atom.Col)
			ri, rerr := right.IndexOf(atom.Col2)
			if lerr == nil && rerr == nil {
				keys = append(keys, equiKey{left: li, right: ri})
				continue
			}
			// Try the swapped orientation.
			li, lerr = left.IndexOf(atom.Col2)
			ri, rerr = right.IndexOf(atom.Col)
			if lerr == nil && rerr == nil {
				keys = append(keys, equiKey{left: li, right: ri})
				continue
			}
		}
		rest = append(rest, conj)
	}
	return keys, expr.And(rest...)
}

// compileJoin lowers a join. key is the logical node metrics are registered
// under — the original plan node, which for a Product differs from the
// synthetic Join wrapper node, and must match the node the surrounding
// metricOp (and the cost model's estimates) are keyed by.
func (c *compiler) compileJoin(node *algebra.Join, key algebra.Node) (compiled, error) {
	metrics := c.nodeMetrics(key)
	where := key.Describe()
	left, err := c.compile(node.L)
	if err != nil {
		return compiled{}, err
	}
	right, err := c.compile(node.R)
	if err != nil {
		return compiled{}, err
	}
	lSchema, rSchema := node.L.Schema(), node.R.Schema()
	keys, residual := splitJoinCondition(node.Cond, lSchema, rSchema)
	boundResidual, err := expr.Bind(residual, node.Schema())
	if err != nil {
		return compiled{}, err
	}

	if len(keys) == 0 {
		// No equi-key: nested loop evaluates the full condition as a
		// residual.
		full, err := expr.Bind(node.Cond, node.Schema())
		if err != nil {
			return compiled{}, err
		}
		if c.par > 1 {
			return compiled{
				op: &parallelNestedLoopJoinOp{
					left: left.op, right: right.op,
					cond: full, params: c.opts.Params, par: c.par,
					metrics: metrics, gov: c.gov, where: where,
				},
				order: left.order,
			}, nil
		}
		return compiled{
			op: &nestedLoopJoinOp{
				left: left.op, right: right.op,
				cond: full, params: c.opts.Params, gov: c.gov,
			},
			order: left.order,
		}, nil
	}
	// Probe order follows the left input; left columns keep their
	// positions in the concatenated schema. The partitioned parallel hash
	// join reproduces the same output order.
	if c.spill != nil {
		// Grace hash join: identical streaming behaviour while the
		// build fits the budget, partitioned spill execution beyond it.
		return compiled{
			op: &spillHashJoinOp{
				left: left.op, right: right.op, keys: keys,
				residual: boundResidual, params: c.opts.Params,
				metrics: metrics, gov: c.gov, mgr: c.spill, where: where,
			},
			order: left.order,
		}, nil
	}
	if c.opts.Vectorize {
		return compiled{
			op: &vecHashJoinOp{
				left: left.op, right: right.op,
				lsrc: c.batchFeedFor(left.op, len(lSchema)),
				rsrc: c.batchFeedFor(right.op, len(rSchema)),
				keys: keys, residual: boundResidual, params: c.opts.Params,
				par: c.par, metrics: metrics, gov: c.gov, where: where,
				lwidth: len(lSchema), rwidth: len(rSchema),
			},
			order: left.order,
		}, nil
	}
	if c.par > 1 {
		return compiled{
			op: &parallelHashJoinOp{
				left: left.op, right: right.op, keys: keys,
				residual: boundResidual, params: c.opts.Params, par: c.par,
				metrics: metrics, gov: c.gov, where: where,
			},
			order: left.order,
		}, nil
	}
	return compiled{
		op: &hashJoinOp{
			left: left.op, right: right.op, keys: keys,
			residual: boundResidual, params: c.opts.Params,
			metrics: metrics, gov: c.gov, where: where,
		},
		order: left.order,
	}, nil
}

// nestedLoopJoinOp materializes the right input and scans it per left row.
type nestedLoopJoinOp struct {
	left, right Operator
	cond        expr.Expr
	params      expr.Params
	gov         *governor

	rightRows []value.Row
	cur       value.Row
	rpos      int
	done      bool
}

func (j *nestedLoopJoinOp) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	rows, err := drain(j.right)
	if err != nil {
		return err
	}
	j.rightRows = rows
	j.cur = nil
	j.rpos = 0
	j.done = false
	return nil
}

func (j *nestedLoopJoinOp) Next() (value.Row, bool, error) {
	for {
		if j.done {
			return nil, false, nil
		}
		if j.cur == nil {
			row, ok, err := j.left.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.done = true
				return nil, false, nil
			}
			j.cur = row
			j.rpos = 0
		}
		for j.rpos < len(j.rightRows) {
			// The inner scan can run long between emitted rows (selective
			// conditions over a large right side), so it ticks itself rather
			// than relying on the surrounding governOp's per-Next tick.
			if err := j.gov.tick(); err != nil {
				return nil, false, err
			}
			out := j.cur.Concat(j.rightRows[j.rpos])
			j.rpos++
			truth, err := expr.EvalTruth(j.cond, out, j.params)
			if err != nil {
				return nil, false, err
			}
			if truth == value.True {
				return out, true, nil
			}
		}
		j.cur = nil
	}
}

func (j *nestedLoopJoinOp) Close() error { return j.left.Close() }

// hashJoinOp builds a hash table on the right input keyed by the join
// columns, then probes with left rows. Rows with a NULL in any key column
// are dropped on both sides: the equality comparison would be unknown, so
// such rows can never satisfy the join condition.
type hashJoinOp struct {
	left, right Operator
	keys        []equiKey
	residual    expr.Expr
	params      expr.Params
	metrics     *obs.OpMetrics // nil unless metrics collection is on
	gov         *governor      // nil unless lifecycle governance is on
	where       string         // plan-node description for errors

	table   map[string][]value.Row
	cur     value.Row
	matches []value.Row
	mpos    int
	done    bool
}

func (j *hashJoinOp) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	rows, err := drain(j.right)
	if err != nil {
		return err
	}
	rightCols := make([]int, len(j.keys))
	for i, k := range j.keys {
		rightCols[i] = k.right
	}
	j.table = make(map[string][]value.Row)
	// Build stats accumulate in the insertion loop (the built map is never
	// re-iterated — instrumented executor code keeps the maprange
	// determinism guarantee).
	var entries, stateBytes int64
	for _, row := range rows {
		if err := j.gov.tick(); err != nil {
			return err
		}
		if anyNullAt(row, rightCols) {
			continue
		}
		key := value.GroupKey(row, rightCols)
		j.table[key] = append(j.table[key], row)
		entries++
		entry := int64(len(key)) + rowStateBytes(row)
		stateBytes += entry
		// Budget check per admitted entry: the query aborts on the exact
		// allocation that crosses the limit, not after the build finishes.
		if err := j.gov.charge(j.where, entry); err != nil {
			return err
		}
	}
	if j.metrics != nil {
		j.metrics.BuildEntries.Add(entries)
		j.metrics.StateBytes.Add(stateBytes)
	}
	j.cur = nil
	j.matches = nil
	j.mpos = 0
	j.done = false
	return nil
}

func (j *hashJoinOp) Next() (value.Row, bool, error) {
	leftCols := make([]int, len(j.keys))
	for i, k := range j.keys {
		leftCols[i] = k.left
	}
	for {
		if j.done {
			return nil, false, nil
		}
		for j.mpos < len(j.matches) {
			out := j.cur.Concat(j.matches[j.mpos])
			j.mpos++
			truth, err := expr.EvalTruth(j.residual, out, j.params)
			if err != nil {
				return nil, false, err
			}
			if truth == value.True {
				return out, true, nil
			}
		}
		row, ok, err := j.left.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.done = true
			return nil, false, nil
		}
		if anyNullAt(row, leftCols) {
			continue
		}
		j.cur = row
		j.matches = j.table[value.GroupKey(row, leftCols)]
		j.mpos = 0
		if j.metrics != nil && len(j.matches) > 0 {
			j.metrics.ProbeHits.Add(int64(len(j.matches)))
		}
	}
}

func (j *hashJoinOp) Close() error { return j.left.Close() }

func anyNullAt(row value.Row, cols []int) bool {
	for _, c := range cols {
		if row[c].IsNull() {
			return true
		}
	}
	return false
}

func compareAt(a value.Row, aCols []int, b value.Row, bCols []int) int {
	for i := range aCols {
		if c := value.OrderKey(a[aCols[i]], b[bCols[i]]); c != 0 {
			return c
		}
	}
	return 0
}
