package exec

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/storage"
)

// TestOrderPropagation verifies the compiler's interesting-order tracking:
// sort establishes an order (its longest all-ascending key prefix), filter
// and projection preserve it, and a redundant sort is elided.
func TestOrderPropagation(t *testing.T) {
	s := fixture(t)
	c := &compiler{store: s, opts: &Options{}}

	scanE := scanOf(t, s, "Employee", "E")
	sortE := &algebra.Sort{
		Input: scanE,
		Keys:  []algebra.SortItem{{Col: expr.ColumnID{Table: "E", Name: "DeptID"}}},
	}

	// Sort yields an order on its key column.
	out, err := c.compile(sortE)
	must(t, err)
	deptIdx, _ := scanE.Schema().IndexOf(expr.ColumnID{Table: "E", Name: "DeptID"})
	if len(out.order) != 1 || out.order[0] != deptIdx {
		t.Fatalf("sort order = %v, want [%d]", out.order, deptIdx)
	}

	// Mixed directions still order the stream on the ascending prefix.
	mixed := &algebra.Sort{
		Input: scanE,
		Keys: []algebra.SortItem{
			{Col: expr.ColumnID{Table: "E", Name: "DeptID"}},
			{Col: expr.ColumnID{Table: "E", Name: "EmpID"}, Desc: true},
		},
	}
	outMixed, err := c.compile(mixed)
	must(t, err)
	if len(outMixed.order) != 1 || outMixed.order[0] != deptIdx {
		t.Fatalf("mixed-direction sort order = %v, want [%d]", outMixed.order, deptIdx)
	}
	descFirst := &algebra.Sort{
		Input: scanE,
		Keys:  []algebra.SortItem{{Col: expr.ColumnID{Table: "E", Name: "DeptID"}, Desc: true}},
	}
	outDesc, err := c.compile(descFirst)
	must(t, err)
	if len(outDesc.order) != 0 {
		t.Fatalf("descending sort claimed ascending order %v", outDesc.order)
	}

	// A redundant sort on the same key is elided: compiling Sort(Sort)
	// returns the inner result unchanged.
	doubleSort := &algebra.Sort{Input: sortE, Keys: sortE.Keys}
	out2, err := c.compile(doubleSort)
	must(t, err)
	if _, isSort := out2.op.(*sortOp); isSort {
		// The outer op must not be a second sortOp over a sortOp.
		if _, innerSort := out2.op.(*sortOp).input.(*sortOp); innerSort {
			t.Error("redundant sort not elided")
		}
	}

	// Filter preserves order.
	filtered := &algebra.Select{
		Input: sortE,
		Cond:  expr.NewBinary(expr.OpGt, expr.Column("E", "Salary"), expr.IntLit(0)),
	}
	out3, err := c.compile(filtered)
	must(t, err)
	if len(out3.order) != 1 || out3.order[0] != deptIdx {
		t.Errorf("filter lost order: %v", out3.order)
	}

	// Projection remaps order through bare column items.
	proj := &algebra.Project{
		Input: sortE,
		Items: []algebra.ProjItem{
			{E: expr.Column("E", "DeptID"), As: expr.ColumnID{Name: "d"}},
			{E: expr.Column("E", "EmpID"), As: expr.ColumnID{Name: "id"}},
		},
	}
	out4, err := c.compile(proj)
	must(t, err)
	if len(out4.order) != 1 || out4.order[0] != 0 {
		t.Errorf("projection order = %v, want [0]", out4.order)
	}

	// Projection computing an expression over the order column loses it.
	projExpr := &algebra.Project{
		Input: sortE,
		Items: []algebra.ProjItem{
			{E: expr.NewBinary(expr.OpAdd, expr.Column("E", "DeptID"), expr.IntLit(1)), As: expr.ColumnID{Name: "d1"}},
		},
	}
	out5, err := c.compile(projExpr)
	must(t, err)
	if len(out5.order) != 0 {
		t.Errorf("expression projection kept order: %v", out5.order)
	}
}

// TestGroupAutoExploitsSortedInput: grouping a stream already sorted on the
// grouping column runs as a no-sort streaming pass, grouping an unsorted
// stream hashes, and both give the same groups.
func TestGroupAutoExploitsSortedInput(t *testing.T) {
	s := fixture(t)
	scanE := scanOf(t, s, "Employee", "E")
	sorted := &algebra.Sort{
		Input: scanE,
		Keys:  []algebra.SortItem{{Col: expr.ColumnID{Table: "E", Name: "DeptID"}}},
	}
	group := &algebra.GroupBy{
		Input:     sorted,
		GroupCols: []expr.ColumnID{{Table: "E", Name: "DeptID"}},
		Aggs: []algebra.AggItem{
			{E: &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("E", "Salary")}, As: expr.ColumnID{Name: "s"}},
		},
	}

	c := &compiler{store: s, opts: &Options{}}
	out, err := c.compile(group)
	must(t, err)
	if _, ok := out.op.(*sortGroupOp); !ok {
		t.Fatalf("grouping over sorted input compiled to %T, want sortGroupOp", out.op)
	}
	// Output order covers the grouping column (position 0).
	if len(out.order) != 1 || out.order[0] != 0 {
		t.Errorf("group output order = %v", out.order)
	}

	// Unsorted input hashes.
	hashed := &algebra.GroupBy{
		Input:     scanE,
		GroupCols: group.GroupCols,
		Aggs:      group.Aggs,
	}
	out2, err := c.compile(hashed)
	must(t, err)
	if _, ok := out2.op.(*hashGroupOp); !ok {
		t.Fatalf("grouping over unsorted input compiled to %T, want hashGroupOp", out2.op)
	}

	// And the results agree.
	if a, b := run(t, group, s, nil), run(t, hashed, s, nil); !sameMultiset(a.Rows, b.Rows) {
		t.Errorf("streamed groups %v, hash groups %v", a.Rows, b.Rows)
	}
}

// derivedGroupPlan is the plan the optimizer builds for grouping over a
// derived table with an ORDER BY,
//
//	SELECT T.DeptID, COUNT(T.EmpID)
//	FROM (SELECT E.DeptID AS DeptID, E.EmpID AS EmpID
//	      FROM Employee E ORDER BY <keys>) T
//	GROUP BY T.DeptID
//
// with keys naming the derived table's DeptID/EmpID columns; no keys
// leaves the Sort out.
func derivedGroupPlan(t *testing.T, s *storage.Store, keys ...algebra.SortItem) *algebra.GroupBy {
	t.Helper()
	var in algebra.Node = &algebra.Project{
		Input: scanOf(t, s, "Employee", "E"),
		Items: []algebra.ProjItem{
			{E: expr.Column("E", "DeptID"), As: expr.ColumnID{Name: "DeptID"}},
			{E: expr.Column("E", "EmpID"), As: expr.ColumnID{Name: "EmpID"}},
		},
	}
	if len(keys) > 0 {
		in = &algebra.Sort{Input: in, Keys: keys}
	}
	return &algebra.GroupBy{
		Input: &algebra.Project{
			Input: in,
			Items: []algebra.ProjItem{
				{E: expr.Column("", "DeptID"), As: expr.ColumnID{Table: "T", Name: "DeptID"}},
				{E: expr.Column("", "EmpID"), As: expr.ColumnID{Table: "T", Name: "EmpID"}},
			},
		},
		GroupCols: []expr.ColumnID{{Table: "T", Name: "DeptID"}},
		Aggs: []algebra.AggItem{
			{E: &expr.Aggregate{Func: expr.AggCount, Arg: expr.Column("T", "EmpID")}, As: expr.ColumnID{Name: "n"}},
		},
	}
}

// checkStreams asserts that group compiles to streaming sort-grouping in
// the row and vectorized compilers, serial and parallel, and returns the
// rows of the hash-grouped reference.
func checkStreams(t *testing.T, s *storage.Store, group, reference *algebra.GroupBy) {
	t.Helper()
	ref := run(t, reference, s, nil)
	for _, vectorize := range []bool{false, true} {
		for _, par := range []int{1, 2} {
			opts := &Options{Vectorize: vectorize, Parallelism: par}
			c := &compiler{store: s, opts: opts, par: par}
			out, err := c.compile(group)
			must(t, err)
			if _, ok := out.op.(*sortGroupOp); !ok {
				t.Fatalf("vectorize=%v par=%d: compiled to %T, want sortGroupOp", vectorize, par, out.op)
			}
			if res := run(t, group, s, opts); !sameMultiset(res.Rows, ref.Rows) {
				t.Errorf("vectorize=%v par=%d: streamed groups %v, hash groups %v", vectorize, par, res.Rows, ref.Rows)
			}
		}
	}
}

// TestOrderedHintStreamsUnderGroupAuto: grouping over a derived table whose
// ORDER BY covers the grouping column — a bare-column renaming projection
// of a sort — streams with no pre-sort in the row and vectorized
// compilers, serial and parallel. The compiler's own propagated order is
// the proof; no plan-level hint or strategy override is needed.
func TestOrderedHintStreamsUnderGroupAuto(t *testing.T) {
	s := fixture(t)
	checkStreams(t, s,
		derivedGroupPlan(t, s, algebra.SortItem{Col: expr.ColumnID{Name: "DeptID"}}),
		derivedGroupPlan(t, s))
}

// TestMixedDirectionSortStreamsGrouping: an ORDER BY DeptID, EmpID DESC
// derived table is still ascending on DeptID, so grouping on it streams
// in every mode and returns the hash-grouped rows.
func TestMixedDirectionSortStreamsGrouping(t *testing.T) {
	s := fixture(t)
	checkStreams(t, s,
		derivedGroupPlan(t, s,
			algebra.SortItem{Col: expr.ColumnID{Name: "DeptID"}},
			algebra.SortItem{Col: expr.ColumnID{Name: "EmpID"}, Desc: true}),
		derivedGroupPlan(t, s))
}
