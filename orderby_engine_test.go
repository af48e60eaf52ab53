package gbj

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
)

// seedEmpDept loads the E17 Employee/Department shape through SQL text:
// Dept(DeptID, Name) with depts rows, Emp(EmpID, DeptID, Salary) with emps
// rows spread round-robin over the departments. Every 97th employee has a
// NULL DeptID, so the join drops rows and grouping sees a NULL key.
func seedEmpDept(tb testing.TB, e *Engine, emps, depts int) {
	tb.Helper()
	exec := func(stmt string) {
		tb.Helper()
		if err := e.Exec(stmt); err != nil {
			tb.Fatal(err)
		}
	}
	exec(`CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Name CHARACTER(30))`)
	exec(`CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, DeptID INTEGER, Salary INTEGER)`)
	var b strings.Builder
	for i := 1; i <= depts; i++ {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'D%03d')", i, i)
	}
	exec("INSERT INTO Dept VALUES " + b.String())
	for lo := 1; lo <= emps; lo += 500 {
		b.Reset()
		for i := lo; i <= emps && i < lo+500; i++ {
			if b.Len() > 0 {
				b.WriteString(", ")
			}
			dept := fmt.Sprint(i%depts + 1)
			if i%97 == 0 {
				dept = "NULL"
			}
			fmt.Fprintf(&b, "(%d, %s, %d)", i, dept, 1000+i%500)
		}
		exec("INSERT INTO Emp VALUES " + b.String())
	}
}

// empDeptExample1 is the paper's Example 1 over the E17 tables; the ordered
// form adds an ORDER BY on the leading grouping column.
const (
	empDeptExample1 = `SELECT D.DeptID, D.Name, COUNT(E.EmpID), SUM(E.Salary)
		FROM Emp E, Dept D WHERE E.DeptID = D.DeptID
		GROUP BY D.DeptID, D.Name`
	empDeptExample1Ordered = empDeptExample1 + ` ORDER BY DeptID`
)

// engineModes is the {row, vec} × {serial, parallelism 2} grid.
var engineModes = []struct {
	name        string
	vectorize   bool
	parallelism int
}{
	{"row/serial", false, 0},
	{"row/par2", false, 2},
	{"vec/serial", true, 0},
	{"vec/par2", true, 2},
}

// opCounters is the scheduling-independent part of one operator's
// measured profile.
type opCounters struct {
	desc                                   string
	rowsIn, rowsOut, build, state, batches int64
}

func countersOf(nodes []core.NodeCalibration) []opCounters {
	out := make([]opCounters, len(nodes))
	for i, n := range nodes {
		m := n.Metrics
		out[i] = opCounters{n.Node.Describe(), m.RowsIn, m.RowsOut, m.BuildEntries, m.StateBytes, m.Batches}
	}
	return out
}

// TestOrderByGroupsLikeUnordered pins the removal of the ORDER BY penalty:
// an ORDER BY on the grouping columns adds one Sort over the grouped output
// and changes nothing beneath it. Below that Sort every operator of the
// ordered Example 1 — including the eager pre-aggregation under the join —
// must read, emit, build and account exactly what the unordered query's
// operators do, and the ordered rows must be the unordered rows sorted.
func TestOrderByGroupsLikeUnordered(t *testing.T) {
	for _, m := range engineModes {
		t.Run(m.name, func(t *testing.T) {
			e := New()
			e.SetVectorize(m.vectorize)
			e.SetParallelism(m.parallelism)
			seedEmpDept(t, e, 3000, 40)

			plain, err := e.QueryAnalyzed(empDeptExample1)
			if err != nil {
				t.Fatal(err)
			}
			ordered, err := e.QueryAnalyzed(empDeptExample1Ordered)
			if err != nil {
				t.Fatal(err)
			}

			want := slices.Clone(plain.Result.Rows)
			slices.SortStableFunc(want, func(a, b []any) int { return cmp.Compare(a[0].(int64), b[0].(int64)) })
			if got := ordered.Result.Rows; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("ordered rows\n%v\nwant the unordered rows sorted\n%v", got, want)
			}

			top, ok := ordered.Plan.(*algebra.Sort)
			if !ok {
				t.Fatalf("ordered plan root is %T, want *algebra.Sort", ordered.Plan)
			}
			if !eagerPlan(top.Input) {
				t.Fatalf("test needs the eager plan, got:\n%s", algebra.Format(top.Input, nil))
			}
			sortCal := ordered.Calibration.Nodes[0]
			if sortCal.Metrics.RowsIn != int64(len(want)) {
				t.Errorf("top Sort read %d rows, want only the %d grouped rows", sortCal.Metrics.RowsIn, len(want))
			}
			got, ref := countersOf(ordered.Calibration.Nodes[1:]), countersOf(plain.Calibration.Nodes)
			if !slices.Equal(got, ref) {
				t.Fatalf("operators below the top Sort differ from the unordered query's\n got %+v\nwant %+v", got, ref)
			}
		})
	}
}

// eagerPlan reports whether some GroupBy sits below a Join: the
// group-before-join shape, whose pre-aggregation reads every Emp row.
func eagerPlan(n algebra.Node) bool {
	found := false
	algebra.Walk(n, func(j algebra.Node) {
		if _, ok := j.(*algebra.Join); !ok {
			return
		}
		algebra.Walk(j, func(g algebra.Node) {
			if _, ok := g.(*algebra.GroupBy); ok {
				found = true
			}
		})
	})
	return found
}

// TestDerivedOrderStreamsGrouping is the case where sorting is free: a
// derived table's ORDER BY covers the grouping column, the executor's
// propagated order proves it, and grouping streams over the sorted input
// in every mode. Streaming sort-grouping accounts no key bytes — its state is one
// accumulator slot per aggregate per group — where a hash table also
// charges each group's key, so the GroupBy's state bytes tell the two
// apart.
func TestDerivedOrderStreamsGrouping(t *testing.T) {
	const (
		query = `SELECT T.DeptID, COUNT(T.EmpID)
			FROM (SELECT E.DeptID AS DeptID, E.EmpID AS EmpID
			      FROM Emp E ORDER BY DeptID) T
			GROUP BY T.DeptID`
		accSlotBytes = 32 // exec's per-aggregate accumulator charge
	)
	for _, m := range engineModes {
		t.Run(m.name, func(t *testing.T) {
			e := New()
			e.SetVectorize(m.vectorize)
			e.SetParallelism(m.parallelism)
			seedEmpDept(t, e, 3000, 40)
			a, err := e.QueryAnalyzed(query)
			if err != nil {
				t.Fatal(err)
			}
			var group *core.NodeCalibration
			for i, n := range a.Calibration.Nodes {
				if _, ok := n.Node.(*algebra.GroupBy); ok {
					group = &a.Calibration.Nodes[i]
				}
			}
			if group == nil {
				t.Fatalf("plan has no GroupBy:\n%s", algebra.Format(a.Plan, nil))
			}
			groups := int64(len(a.Result.Rows))
			if group.Metrics.BuildEntries != groups {
				t.Fatalf("GroupBy built %d groups, want %d", group.Metrics.BuildEntries, groups)
			}
			if want := groups * accSlotBytes; group.Metrics.StateBytes != want {
				t.Errorf("GroupBy state %d bytes, want %d (no key bytes: streaming sort-grouping)", group.Metrics.StateBytes, want)
			}
		})
	}
}
