package core

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plancheck"
	"repro/internal/storage"
)

// groupStateBytes plans query, checks the plan with the plan checker, runs
// it, and returns the state bytes its GroupBy accounted.
func groupStateBytes(t *testing.T, s *storage.Store, query string) int64 {
	t.Helper()
	o := NewOptimizer(s)
	b, err := o.Planner().Bind(parse(t, query))
	must(t, err)
	plan, err := o.Planner().PlanStandard(b)
	must(t, err)
	if err := plancheck.Verify(plan, nil); err != nil {
		t.Fatalf("plan checker rejects the plan: %v", err)
	}
	col := obs.NewCollector()
	if _, err := exec.Run(plan, s, &exec.Options{Metrics: col}); err != nil {
		t.Fatal(err)
	}
	var g *obs.OpMetrics
	algebra.Walk(plan, func(n algebra.Node) {
		if _, ok := n.(*algebra.GroupBy); ok {
			g = col.Lookup(n)
		}
	})
	if g == nil {
		t.Fatalf("plan has no GroupBy:\n%s", algebra.Format(plan, nil))
	}
	if g.BuildEntries.Load() == 0 {
		t.Fatal("GroupBy built no groups; the state bytes prove nothing")
	}
	return g.StateBytes.Load()
}

// hashedStateBytes is the state a hash grouping of Employee on DeptID
// accounts: a base-table scan proves no order, so this grouping hashes.
// Streaming the same groups accounts only their accumulators, where a hash
// table also charges each group's key, so a grouping over the same rows
// streams exactly when its state bytes fall below this reference.
func hashedStateBytes(t *testing.T, s *storage.Store) int64 {
	t.Helper()
	return groupStateBytes(t, s, `
		SELECT E.DeptID, COUNT(E.EmpID) FROM Employee E GROUP BY E.DeptID`)
}

// TestOrderAnnotationOnDerivedTable: grouping over a derived table whose
// ORDER BY leads with the grouping column ascending streams — the
// executor's own propagated order proves the input is in key order, with
// no plan-level annotation — even when a later key descends. It checks the
// SQL path end to end: binding, planning, the plan checker and execution.
func TestOrderAnnotationOnDerivedTable(t *testing.T) {
	s := example1Store(t)
	hashed := hashedStateBytes(t, s)
	for _, order := range []string{"DeptID", "DeptID, EmpID DESC"} {
		if got := groupStateBytes(t, s, `
			SELECT T.DeptID, COUNT(T.EmpID)
			FROM (SELECT E.DeptID AS DeptID, E.EmpID AS EmpID
			      FROM Employee E ORDER BY `+order+`) T
			GROUP BY T.DeptID`); got >= hashed {
			t.Errorf("ORDER BY %s: grouping hashed over input sorted on the grouping column (state %d bytes, hash grouping %d)", order, got, hashed)
		}
	}
}

// TestOrderAnnotationRequiresCoveringSort is the negative space: an ORDER
// BY on a non-grouping column, a descending key, or no ORDER BY at all
// proves no key order, so the grouping hashes.
func TestOrderAnnotationRequiresCoveringSort(t *testing.T) {
	s := example1Store(t)
	hashed := hashedStateBytes(t, s)
	for _, tc := range []struct {
		name, query string
	}{
		{"no-sort", `
			SELECT T.DeptID, COUNT(T.EmpID)
			FROM (SELECT E.DeptID AS DeptID, E.EmpID AS EmpID FROM Employee E) T
			GROUP BY T.DeptID`},
		{"wrong-column", `
			SELECT T.DeptID, COUNT(T.EmpID)
			FROM (SELECT E.DeptID AS DeptID, E.EmpID AS EmpID
			      FROM Employee E ORDER BY EmpID) T
			GROUP BY T.DeptID`},
		{"descending", `
			SELECT T.DeptID, COUNT(T.EmpID)
			FROM (SELECT E.DeptID AS DeptID, E.EmpID AS EmpID
			      FROM Employee E ORDER BY DeptID DESC) T
			GROUP BY T.DeptID`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := groupStateBytes(t, s, tc.query); got != hashed {
				t.Fatalf("state %d bytes, hash grouping %d: grouping streamed without a covering ascending sort", got, hashed)
			}
		})
	}
}

// TestPlancheckRejectsLimitUnderJoin pins the spill-safety rule: a Limit
// feeding a join (or group) through cardinality-transparent operators
// truncates an intermediate a re-reading operator depends on. The planner
// never builds this shape — user LIMITs inside derived tables sit behind a
// projection — so the checker flags it as an optimizer bug.
func TestPlancheckRejectsLimitUnderJoin(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	b, err := o.Planner().Bind(parse(t, example1SQL))
	must(t, err)
	plan, err := o.Planner().PlanStandard(b)
	must(t, err)

	// Splice a Limit directly above one join input, simulating an unsound
	// push-down.
	var join *algebra.Join
	algebra.Walk(plan, func(n algebra.Node) {
		if j, ok := n.(*algebra.Join); ok {
			join = j
		}
	})
	if join == nil {
		t.Fatalf("plan has no Join:\n%s", algebra.Format(plan, nil))
	}
	join.L = &algebra.Limit{Input: join.L, N: 1}
	err = plancheck.Verify(plan, nil)
	if err == nil {
		t.Fatal("plan checker accepted a Limit feeding a join input")
	}
	if !strings.Contains(err.Error(), "spill-safety") {
		t.Fatalf("violation cites the wrong rule: %v", err)
	}
}
