package main

// The three workloads. Each one is a SQL set-up script, the engine settings
// of the entry point it models, and one seeded operation stream per
// session. The engine only ever sees the generated SQL text.

import (
	"fmt"
	"math/rand"
	"strings"

	"repro"
)

// opKind says how an operation is run and how its answer is checked.
type opKind uint8

const (
	// opQuery is a read over static tables, checked against the reference
	// answer of its distinct operation.
	opQuery opKind = iota
	// opKVRead reads the kv table that writes grow; it is checked against
	// the invariant every write preserves: SUM(val) = 2*SUM(grp).
	opKVRead
	// opWrite inserts one row into kv.
	opWrite
)

// op is one operation a caller sends.
type op struct {
	kind   opKind
	text   string
	params map[string]any
	// class names the query template, e.g. "example1_ordered".
	class   string
	ordered bool
	// ref indexes workload.distinct for opQuery.
	ref int
}

// step is what a caller times as one operation: one op, or for olap a
// round of four queries.
type step []op

// workload is everything one named workload needs.
type workload struct {
	name string
	// script is the CREATE/INSERT text that loads the data.
	script string
	// distinct lists every distinct read; reference answers index it.
	distinct []op
	// warm lists the reads run once during set-up: one per class.
	warm []op
	// configure applies the entry point's engine settings.
	configure func(*gbj.Engine)
	// sessions is the number of concurrent closed-loop callers; served
	// workloads send their traffic through gbj-server over loopback.
	sessions int
	served   bool
	// olapClasses is set for olap: the per-class exec metrics.
	olapClasses bool
	// stream returns the seeded step generator of one session.
	stream func(session int) func() step
}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "olap":
		return olapWorkload(seed), nil
	case "short":
		return shortWorkload(seed), nil
	case "serve-mixed":
		return serveMixedWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want olap, short or serve-mixed)", name)
}

// workloadNames lists the workloads in the order the documentation uses.
var workloadNames = []string{"olap", "short", "serve-mixed"}

// insertRows appends INSERT statements for n rows, batchSize rows per
// statement, rendering row i with row(i).
func insertRows(b *strings.Builder, table string, n, batchSize int, row func(i int) string) {
	for lo := 0; lo < n; lo += batchSize {
		fmt.Fprintf(b, "INSERT INTO %s VALUES ", table)
		for i := lo; i < n && i < lo+batchSize; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			b.WriteString(row(i))
		}
		b.WriteString(";\n")
	}
}

// ---------------------------------------------------------------- olap

// The olap classes, in round order. figure8 groups Fact by its own group
// key: eager aggregation is valid there but multiplies the groups, so the
// cost model should keep the lazy plan.
const (
	olapExample1 = `SELECT D.DeptID, D.Name, COUNT(E.EmpID) FROM Employee E, Department D WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name`
	olapOrdered  = olapExample1 + ` ORDER BY DeptID`
	olapFigure8  = `SELECT F.GroupID, SUM(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID GROUP BY F.GroupID`
	olapByDim    = `SELECT D.DimID, D.Label, SUM(F.V), COUNT(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID GROUP BY D.DimID, D.Label`
)

var olapClassNames = []string{"example1", "example1_ordered", "figure8", "by_dim"}

func olapWorkload(seed int64) *workload {
	const (
		employees   = 100_000
		departments = 1_000
		facts       = 100_000
		dims        = 1_000
		factGroups  = 10_000
	)
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString(`CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name CHARACTER(20));
CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY, LastName CHARACTER(20), DeptID INTEGER REFERENCES Department);
CREATE TABLE Dim (DimID INTEGER PRIMARY KEY, Label CHARACTER(20));
CREATE TABLE Fact (FID INTEGER PRIMARY KEY, DimID INTEGER, GroupID INTEGER, V INTEGER);
`)
	insertRows(&b, "Department", departments, 1000, func(i int) string {
		return fmt.Sprintf("(%d, 'Dept-%04d')", i, i)
	})
	insertRows(&b, "Employee", employees, 1000, func(i int) string {
		return fmt.Sprintf("(%d, 'Last%06d', %d)", i, r.Intn(100_000), r.Intn(departments))
	})
	insertRows(&b, "Dim", dims, 1000, func(i int) string {
		return fmt.Sprintf("(%d, 'dim%05d')", i, i)
	})
	// One fact row in ten has no Dim partner.
	insertRows(&b, "Fact", facts, 1000, func(i int) string {
		dim := dims + i
		if r.Intn(10) > 0 {
			dim = r.Intn(dims)
		}
		return fmt.Sprintf("(%d, %d, %d, %d)", i, dim, r.Intn(factGroups), r.Intn(100))
	})
	w := &workload{
		name:        "olap",
		script:      b.String(),
		configure:   func(e *gbj.Engine) { e.SetVectorize(true); e.SetParallelism(2); e.SetPlanCacheSize(256) },
		sessions:    1,
		olapClasses: true,
	}
	round := make(step, len(olapClassNames))
	for i, text := range []string{olapExample1, olapOrdered, olapFigure8, olapByDim} {
		o := op{kind: opQuery, text: text, class: olapClassNames[i], ordered: i == 1, ref: i}
		w.distinct = append(w.distinct, o)
		w.warm = append(w.warm, o)
		round[i] = o
	}
	w.stream = func(int) func() step { return func() step { return round } }
	return w
}

// ---------------------------------------------------------------- short

// shortTemplates are the literal-varying query shapes of short: Example 1
// (plain and ordered), Example 3, the Section 8 query over the aggregated
// UserInfo view, Example 2's Part/Supplier grouping, and an ordered
// single-table grouping. Each %d takes one literal, from 0 to
// shortLiterals-1. The data keep every predicate on a literal true (all
// salaries, usages, user ids and part numbers are at least 200), so the
// texts of a class differ for the parser and the plan cache but select the
// same rows: no seed can make the popular texts cheaper or dearer.
var shortTemplates = []struct {
	class string
	text  string
}{
	{"example1", `SELECT D.DeptID, D.Name, COUNT(E.EmpID), SUM(E.Salary) FROM Employee E, Department D WHERE E.DeptID = D.DeptID AND E.Salary > %d GROUP BY D.DeptID, D.Name`},
	{"example1_ordered", `SELECT D.DeptID, D.Name, COUNT(E.EmpID), MAX(E.Salary) FROM Employee E, Department D WHERE E.DeptID = D.DeptID AND E.Salary >= %d GROUP BY D.DeptID, D.Name ORDER BY DeptID`},
	{"example3", `SELECT U.UserId, U.UserName, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed) FROM UserAccount U, PrinterAuth A, Printer P WHERE U.UserId = A.UserId AND U.Machine = A.Machine AND A.PNo = P.PNo AND U.Machine = 'dragon' AND A.Usage > %d GROUP BY U.UserId, U.UserName`},
	{"example5_view", `SELECT U.UserId, U.UserName, I.TotUsage, I.MaxSpeed, I.MinSpeed FROM UserInfo I, UserAccount U WHERE I.UserId = U.UserId AND I.Machine = U.Machine AND U.Machine = 'dragon' AND U.UserId > %d`},
	{"example2", `SELECT S.SupplierNo, S.Name, COUNT(P.PartNo) FROM Part P, Supplier S WHERE P.SupplierNo = S.SupplierNo AND P.PartNo > %d GROUP BY S.SupplierNo, S.Name`},
	{"dept_ordered", `SELECT E.DeptID, COUNT(E.EmpID), MIN(E.Salary) FROM Employee E WHERE E.Salary > %d GROUP BY E.DeptID ORDER BY DeptID`},
}

// shortParamTemplates are parameterised: one text each, the host variable
// :k varying per operation, again without changing the rows selected.
var shortParamTemplates = []struct {
	class string
	text  string
}{
	{"example1_param", `SELECT D.DeptID, D.Name, COUNT(E.EmpID) FROM Employee E, Department D WHERE E.DeptID = D.DeptID AND D.DeptID < :k GROUP BY D.DeptID, D.Name`},
	{"printer_param", `SELECT P.PNo, P.Speed, SUM(A.Usage) FROM PrinterAuth A, Printer P WHERE A.PNo = P.PNo AND A.Usage > :k GROUP BY P.PNo, P.Speed`},
}

const (
	shortLiterals    = 165 // per literal template: 6 x 165 = 990 texts
	shortParamValues = 10  // per parameterised template
	// shortZipfS skews the draw so that, with 1,010 distinct operations
	// against a 256-entry plan cache, about a fifth of queries miss.
	shortZipfS = 1.07
	// shortBase offsets user ids and part numbers above every literal.
	shortBase = 1000
)

func shortWorkload(seed int64) *workload {
	r := rand.New(rand.NewSource(seed))
	const (
		departments = 20
		employees   = 200
		users       = 200
		machines    = 4
		printers    = 20
		suppliers   = 20
		parts       = 200
	)
	var b strings.Builder
	b.WriteString(`CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name CHARACTER(20));
CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY, DeptID INTEGER REFERENCES Department, Salary INTEGER);
CREATE TABLE UserAccount (UserId INTEGER, Machine CHARACTER(20), UserName CHARACTER(30), PRIMARY KEY (UserId, Machine));
CREATE TABLE Printer (PNo INTEGER PRIMARY KEY, Speed INTEGER, Make CHARACTER(20));
CREATE TABLE PrinterAuth (UserId INTEGER, Machine CHARACTER(20), PNo INTEGER, Usage INTEGER, PRIMARY KEY (UserId, Machine, PNo));
CREATE TABLE Supplier (SupplierNo INTEGER PRIMARY KEY, Name CHARACTER(20), Address CHARACTER(30));
CREATE TABLE Part (ClassCode INTEGER, PartNo INTEGER, PartName CHARACTER(20), SupplierNo INTEGER REFERENCES Supplier, PRIMARY KEY (ClassCode, PartNo));
`)
	insertRows(&b, "Department", departments, 500, func(i int) string {
		return fmt.Sprintf("(%d, 'Dept-%02d')", i, i)
	})
	insertRows(&b, "Employee", employees, 500, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d)", i, r.Intn(departments), 1000+r.Intn(1000))
	})
	machine := func(m int) string {
		if m == 0 {
			return "dragon"
		}
		return fmt.Sprintf("machine%d", m)
	}
	insertRows(&b, "UserAccount", users, 500, func(i int) string {
		return fmt.Sprintf("(%d, '%s', 'user%04d')", shortBase+i/machines, machine(i%machines), i)
	})
	insertRows(&b, "Printer", printers, 500, func(i int) string {
		return fmt.Sprintf("(%d, %d, 'ACME')", i, 5+r.Intn(40))
	})
	// Two authorizations per account, on distinct printers.
	insertRows(&b, "PrinterAuth", 2*users, 500, func(i int) string {
		u := i / 2
		pno := (u*7 + (i%2)*(1+u%(printers-1))) % printers
		return fmt.Sprintf("(%d, '%s', %d, %d)", shortBase+u/machines, machine(u%machines), pno, 200+r.Intn(800))
	})
	insertRows(&b, "Supplier", suppliers, 500, func(i int) string {
		return fmt.Sprintf("(%d, 'S%03d', '%d Main St')", i, i, i)
	})
	insertRows(&b, "Part", parts, 500, func(i int) string {
		return fmt.Sprintf("(%d, %d, 'part%04d', %d)", i%10, shortBase+i, i, r.Intn(suppliers))
	})
	b.WriteString(`CREATE VIEW UserInfo (UserId, Machine, TotUsage, MaxSpeed, MinSpeed) AS SELECT A.UserId, A.Machine, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed) FROM PrinterAuth A, Printer P WHERE A.PNo = P.PNo GROUP BY A.UserId, A.Machine;
`)

	w := &workload{
		name:   "short",
		script: b.String(),
		// gbj-server defaults: serial row engine, plan cache of 256.
		configure: func(e *gbj.Engine) { e.SetPlanCacheSize(256) },
		sessions:  1,
	}
	// The popularity ranks deal the classes out in turn, so every seed has
	// the same mix of classes among its popular texts.
	var classes [][]op
	for _, t := range shortTemplates {
		var texts []op
		for k := 0; k < shortLiterals; k++ {
			texts = append(texts, op{kind: opQuery, class: t.class, text: fmt.Sprintf(t.text, k),
				ordered: strings.Contains(t.text, "ORDER BY")})
		}
		classes = append(classes, texts)
	}
	for _, t := range shortParamTemplates {
		var texts []op
		for k := 0; k < shortParamValues; k++ {
			texts = append(texts, op{kind: opQuery, class: t.class, text: t.text, params: map[string]any{"k": int64(k)}})
		}
		classes = append(classes, texts)
	}
	for i := 0; i < shortLiterals; i++ {
		for _, texts := range classes {
			if i < len(texts) {
				w.addDistinct(texts[i])
			}
		}
	}
	w.stream = func(session int) func() step {
		sr := rand.New(rand.NewSource(seed*1_000_003 + int64(session)))
		z := rand.NewZipf(sr, shortZipfS, 1, uint64(len(w.distinct)-1))
		return func() step { return step{w.distinct[z.Uint64()]} }
	}
	return w
}

// addDistinct registers a distinct read and, for the first of its class,
// schedules it for warm-up.
func (w *workload) addDistinct(o op) {
	o.ref = len(w.distinct)
	w.distinct = append(w.distinct, o)
	for _, x := range w.warm {
		if x.class == o.class {
			return
		}
	}
	w.warm = append(w.warm, o)
}

// ---------------------------------------------------------- serve-mixed

// The E17 reads. The kv read adds SUM(grp) so that its answer can be
// checked against the write invariant.
const (
	mixedExample1 = `SELECT d.DeptID, d.Name, COUNT(e.EmpID), SUM(e.Salary) FROM Emp e, Dept d WHERE e.DeptID = d.DeptID GROUP BY d.DeptID, d.Name ORDER BY DeptID`
	mixedByDept   = `SELECT DeptID, COUNT(EmpID) FROM Emp GROUP BY DeptID ORDER BY DeptID`
	mixedKV       = `SELECT COUNT(id), SUM(val), SUM(grp) FROM kv`
	// mixedWriteOneIn makes one operation in 16 (about 6%) a write.
	mixedWriteOneIn = 16
	mixedKVRows     = 100
)

func serveMixedWorkload(seed int64) *workload {
	const (
		employees   = 5_000
		departments = 100
	)
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString(`CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Name CHARACTER(30));
CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, DeptID INTEGER, Salary INTEGER);
CREATE TABLE kv (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER);
`)
	insertRows(&b, "Dept", departments, 500, func(i int) string {
		return fmt.Sprintf("(%d, 'D%03d')", i+1, i+1)
	})
	insertRows(&b, "Emp", employees, 500, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d)", i+1, 1+r.Intn(departments), 1000+r.Intn(500))
	})
	insertRows(&b, "kv", mixedKVRows, 500, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d)", i, i%5, 2*(i%5))
	})
	w := &workload{
		name:   "serve-mixed",
		script: b.String(),
		// cmd/gbj-server defaults: serial row engine; the server turns on
		// the plan cache.
		configure: func(*gbj.Engine) {},
		sessions:  2,
		served:    true,
	}
	w.addDistinct(op{kind: opQuery, class: "e17_example1", text: mixedExample1, ordered: true})
	w.addDistinct(op{kind: opQuery, class: "e17_by_dept", text: mixedByDept, ordered: true})
	kvRead := op{kind: opKVRead, class: "e17_kv", text: mixedKV, ref: -1}
	w.warm = append(w.warm, kvRead)
	reads := []op{w.distinct[0], w.distinct[1], kvRead}
	w.stream = func(session int) func() step {
		sr := rand.New(rand.NewSource(seed*1_000_003 + int64(session)))
		writes := 0
		return func() step {
			if sr.Intn(mixedWriteOneIn) == 0 {
				// Ids are unique per session; val = 2*grp keeps the kv
				// invariant.
				id := 1_000_000*(session+1) + writes
				writes++
				grp := sr.Intn(5)
				return step{{kind: opWrite, class: "e17_write", ref: -1,
					text: fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, %d)", id, grp, 2*grp)}}
			}
			return step{reads[sr.Intn(len(reads))]}
		}
	}
	return w
}

// propertyWindow is how many operations of the stream the properties are
// measured on. A fixed window, drawn from fresh streams with the sessions
// interleaved, makes them exact for a seed, independent of how many
// operations a timed run happens to complete.
const propertyWindow = 10_000

// window returns the first propertyWindow operations of the stream.
func (w *workload) window() []op {
	streams := make([]func() step, w.sessions)
	for s := range streams {
		streams[s] = w.stream(s)
	}
	var ops []op
	for i := 0; len(ops) < propertyWindow; i++ {
		ops = append(ops, streams[i%w.sessions]()...)
	}
	return ops[:propertyWindow]
}

// properties measures the shares of an operation sequence, keyed by
// metric name.
func properties(ops []op) map[string]float64 {
	seen := map[string]bool{}
	var ordered, writes, repeats int
	for _, o := range ops {
		if o.ordered {
			ordered++
		}
		if o.kind == opWrite {
			writes++
		}
		if seen[o.text] {
			repeats++
		}
		seen[o.text] = true
	}
	n := float64(len(ops))
	return map[string]float64{
		"workload.ordered_share":  float64(ordered) / n,
		"workload.write_share":    float64(writes) / n,
		"workload.distinct_texts": float64(len(seen)),
		"workload.repeat_share":   float64(repeats) / n,
	}
}
