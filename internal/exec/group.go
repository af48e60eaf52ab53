package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/value"
)

// aggSpec is one compiled aggregate item: the bound output expression with
// its aggregate subterms identified, so per-group results can be
// substituted and the arithmetic shell evaluated.
type aggSpec struct {
	// expr is the full bound item expression (e.g. COUNT(A1) + SUM(A2+A3)).
	expr expr.Expr
	// aggs are the aggregate nodes inside expr, in discovery order.
	aggs []*expr.Aggregate
}

// groupState accumulates one group.
type groupState struct {
	repr value.Row // first row of the group, for the grouping columns
	accs [][]expr.Accumulator
}

func (c *compiler) compileGroupBy(node *algebra.GroupBy) (compiled, error) {
	in, err := c.compile(node.Input)
	if err != nil {
		return compiled{}, err
	}
	inSchema := node.Input.Schema()
	groupCols := make([]int, len(node.GroupCols))
	for i, gc := range node.GroupCols {
		idx, err := inSchema.IndexOf(gc)
		if err != nil {
			return compiled{}, err
		}
		groupCols[i] = idx
	}
	specs := make([]aggSpec, len(node.Aggs))
	for i, item := range node.Aggs {
		bound, err := expr.Bind(item.E, inSchema)
		if err != nil {
			return compiled{}, err
		}
		aggs := expr.Aggregates(bound)
		if len(aggs) == 0 {
			return compiled{}, fmt.Errorf("exec: aggregate item %s contains no aggregate function", item.E)
		}
		specs[i] = aggSpec{expr: bound, aggs: aggs}
	}
	base := groupCore{
		input:     in.op,
		groupCols: groupCols,
		specs:     specs,
		params:    c.opts.Params,
		metrics:   c.nodeMetrics(node),
		gov:       c.gov,
		where:     node.Describe(),
	}
	// A stream the compiler proves ordered on the grouping columns has
	// contiguous groups: aggregate it in a single streaming pass, with no
	// sort and no hash table. Everything else hashes. Either way the rows
	// are the same: a hash table emits groups in first-appearance order,
	// which on a key-ordered stream is the stream's own order.
	if orderedPrefixSet(in.order, groupCols) {
		// The output keeps the input's (possibly permuted) key order,
		// mapped onto the grouping-column positions 0..k-1 of the output.
		outOrder := make([]int, len(groupCols))
		for i, src := range in.order[:len(groupCols)] {
			for gi, gc := range groupCols {
				if gc == src {
					outOrder[i] = gi
					break
				}
			}
		}
		if c.spill != nil {
			return compiled{op: &spillGroupOp{groupCore: base, mgr: c.spill}, order: outOrder}, nil
		}
		return compiled{op: &sortGroupOp{groupCore: base}, order: outOrder}, nil
	}
	if c.spill != nil {
		// Spill-capable hash aggregation degrades to sort-based external
		// aggregation instead of tripping the budget.
		return compiled{op: &spillGroupOp{groupCore: base, mgr: c.spill, byKey: true}}, nil
	}
	if c.opts.Vectorize {
		op := &vecHashGroupOp{groupCore: base, src: c.batchFeedFor(in.op, len(inSchema)), par: c.par}
		op.initAggCols()
		return compiled{op: op}, nil
	}
	if c.par > 1 {
		return compiled{op: &parallelHashGroupOp{groupCore: base, par: c.par}}, nil
	}
	return compiled{op: &hashGroupOp{groupCore: base}}, nil
}

// groupCore holds the state shared by the hash and sort grouping operators.
type groupCore struct {
	input     Operator
	groupCols []int
	specs     []aggSpec
	params    expr.Params
	metrics   *obs.OpMetrics // nil unless metrics collection is on
	gov       *governor      // nil unless lifecycle governance is on
	where     string         // plan-node description for errors

	out []value.Row
	pos int
}

// groupStateBytes is the accounted size of one fresh group: its key bytes
// plus one accumulator-state slot per aggregate — the same formula
// recordBuild feeds the metrics, applied per group so the budget check
// trips on the exact group that crosses the limit.
func (g *groupCore) groupStateBytes(keyLen int) int64 {
	accs := 0
	for _, spec := range g.specs {
		accs += len(spec.aggs)
	}
	return int64(keyLen) + int64(accs)*accStateBytes
}

// recordBuild reports n groups built with their keys totalling keyBytes —
// for parallel grouping it is called once per partial table, so BuildEntries
// sums the per-worker partials.
func (g *groupCore) recordBuild(n int, keyBytes int64) {
	if g.metrics == nil || n == 0 {
		return
	}
	g.metrics.BuildEntries.Add(int64(n))
	accs := 0
	for _, spec := range g.specs {
		accs += len(spec.aggs)
	}
	g.metrics.StateBytes.Add(keyBytes + int64(n)*int64(accs)*accStateBytes)
}

// newState allocates accumulators for a fresh group.
func (g *groupCore) newState(repr value.Row) (*groupState, error) {
	st := &groupState{repr: repr, accs: make([][]expr.Accumulator, len(g.specs))}
	for i, spec := range g.specs {
		st.accs[i] = make([]expr.Accumulator, len(spec.aggs))
		for k, agg := range spec.aggs {
			acc, err := expr.NewAccumulator(agg)
			if err != nil {
				return nil, err
			}
			st.accs[i][k] = acc
		}
	}
	return st, nil
}

// feed folds one row into a group's accumulators.
func (g *groupCore) feed(st *groupState, row value.Row) error {
	for i, spec := range g.specs {
		for k, agg := range spec.aggs {
			var v value.Value
			if agg.Func == expr.AggCountStar {
				v = value.Null // ignored by the COUNT(*) accumulator
			} else {
				var err error
				v, err = expr.Eval(agg.Arg, row, g.params)
				if err != nil {
					return err
				}
			}
			if err := st.accs[i][k].Add(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// finalize produces the output row for a group: grouping-column values from
// the representative row, then each aggregate item evaluated with its
// aggregate subterms replaced by the accumulator results.
func (g *groupCore) finalize(st *groupState) (value.Row, error) {
	out := make(value.Row, 0, len(g.groupCols)+len(g.specs))
	for _, c := range g.groupCols {
		out = append(out, st.repr[c])
	}
	for i, spec := range g.specs {
		results := make(map[*expr.Aggregate]value.Value, len(spec.aggs))
		for k, agg := range spec.aggs {
			results[agg] = st.accs[i][k].Result()
		}
		substituted := expr.RewritePre(spec.expr, func(n expr.Expr) expr.Expr {
			if a, ok := n.(*expr.Aggregate); ok {
				if v, hit := results[a]; hit {
					return expr.Lit(v)
				}
			}
			return nil
		})
		v, err := expr.Eval(substituted, nil, g.params)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// scalarGroup reports whether the operator aggregates the whole input as
// one group (no grouping columns): it must emit exactly one row even for
// empty input, per SQL2 and the paper's assumption that F(AA) "produces one
// row for each group" with the empty grouping treated as a single group.
func (g *groupCore) scalarGroup() bool { return len(g.groupCols) == 0 }

func (g *groupCore) emit(states []*groupState) error {
	g.out = g.out[:0]
	for _, st := range states {
		row, err := g.finalize(st)
		if err != nil {
			return err
		}
		g.out = append(g.out, row)
	}
	g.pos = 0
	return nil
}

func (g *groupCore) next() (value.Row, bool, error) {
	if g.pos >= len(g.out) {
		return nil, false, nil
	}
	row := g.out[g.pos]
	g.pos++
	return row, true, nil
}

// hashGroupOp groups via a hash table keyed by the =ⁿ-respecting GroupKey.
// Output order is first-appearance order of groups (deterministic for a
// deterministic input order).
type hashGroupOp struct {
	groupCore
}

func (g *hashGroupOp) Open() error {
	rows, err := drain(g.input)
	if err != nil {
		return err
	}
	index := make(map[string]*groupState)
	var order []*groupState
	if g.scalarGroup() {
		st, err := g.newState(nil)
		if err != nil {
			return err
		}
		order = append(order, st)
		for _, row := range rows {
			if err := g.gov.tick(); err != nil {
				return err
			}
			if err := g.feed(st, row); err != nil {
				return err
			}
		}
		g.recordBuild(1, 0)
		return g.emit(order)
	}
	var keyBytes int64
	for _, row := range rows {
		if err := g.gov.tick(); err != nil {
			return err
		}
		key := value.GroupKey(row, g.groupCols)
		st, ok := index[key]
		if !ok {
			st, err = g.newState(row)
			if err != nil {
				return err
			}
			index[key] = st
			order = append(order, st)
			keyBytes += int64(len(key))
			if err := g.gov.charge(g.where, g.groupStateBytes(len(key))); err != nil {
				return err
			}
		}
		if err := g.feed(st, row); err != nil {
			return err
		}
	}
	g.recordBuild(len(order), keyBytes)
	return g.emit(order)
}

func (g *hashGroupOp) Next() (value.Row, bool, error) { return g.next() }
func (g *hashGroupOp) Close() error                   { return nil }

// sortGroupOp aggregates an input already sorted on the grouping columns
// in a single pass over each run of =ⁿ-equal keys — grouping pipelined
// with the sort below it, the implementation the paper's Section 2
// attributes to sort-based grouping. The compiler chooses it only when its
// propagated order proves the input is in key order; output keeps that
// order.
type sortGroupOp struct {
	groupCore
}

func (g *sortGroupOp) Open() error {
	rows, err := drain(g.input)
	if err != nil {
		return err
	}
	var states []*groupState
	var cur *groupState
	for _, row := range rows {
		if err := g.gov.tick(); err != nil {
			return err
		}
		if cur == nil || compareAt(cur.repr, g.groupCols, row, g.groupCols) != 0 {
			cur, err = g.newState(row)
			if err != nil {
				return err
			}
			states = append(states, cur)
			if err := g.gov.charge(g.where, g.groupStateBytes(0)); err != nil {
				return err
			}
		}
		if err := g.feed(cur, row); err != nil {
			return err
		}
	}
	g.recordBuild(len(states), 0)
	return g.emit(states)
}

func (g *sortGroupOp) Next() (value.Row, bool, error) { return g.next() }
func (g *sortGroupOp) Close() error                   { return nil }

// sortKey is one compiled ORDER BY key.
type sortKey struct {
	col  int
	desc bool
}

// sortOp materializes and sorts its input under value.OrderKey, using the
// parallel stable sort when par > 1.
type sortOp struct {
	input Operator
	keys  []sortKey
	par   int

	out []value.Row
	pos int
}

func (s *sortOp) Open() error {
	rows, err := drain(s.input)
	if err != nil {
		return err
	}
	s.out = sortRowsStable("sort", rows, s.par, func(a, b value.Row) int {
		for _, k := range s.keys {
			c := value.OrderKey(a[k.col], b[k.col])
			if c == 0 {
				continue
			}
			if k.desc {
				return -c
			}
			return c
		}
		return 0
	})
	s.pos = 0
	return nil
}

func (s *sortOp) Next() (value.Row, bool, error) {
	if s.pos >= len(s.out) {
		return nil, false, nil
	}
	row := s.out[s.pos]
	s.pos++
	return row, true, nil
}

func (s *sortOp) Close() error { return nil }
