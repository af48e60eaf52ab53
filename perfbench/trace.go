package main

// The traced run's layer attribution. Spans are timed from outside, around
// calls into each layer's public functions: after an operation finishes,
// its text is replayed through sql.ParseQuery, sql.Canonical,
// Store.Snapshot and, as the plan cache decided, the optimizer (on a miss)
// or plancheck.CrossCheck (on a hit whose plan carries certificates).
// exec is what remains of the Engine.Query time; for served workloads the
// server's share is the HTTP round trip minus an in-process Engine.Query
// of the same text on the same engine.
//
// The engine's store is unexported, so the plan-side replays run on a
// replica store built from the same set-up script: same schema, keys and
// rows, which is everything the cost model reads. newTracer checks that
// the replica picks the engine's plan for every distinct text.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/plancheck"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/value"
)

// replicate loads the parsed set-up script into a fresh store. It accepts
// the statement forms the workloads' scripts use: CREATE TABLE, CREATE
// VIEW and INSERT without a column list.
func replicate(stmts []sql.Stmt) (*storage.Store, error) {
	store := storage.NewStore(schema.NewCatalog())
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *sql.CreateTableStmt:
			if err := store.CreateTable(tableDef(s)); err != nil {
				return nil, err
			}
		case *sql.CreateViewStmt:
			if err := store.Catalog().AddView(&schema.View{Name: s.Name, Text: s.Text, Def: s.Query, Columns: s.Columns}); err != nil {
				return nil, err
			}
			store.BumpEpoch()
		case *sql.InsertStmt:
			if len(s.Columns) > 0 {
				return nil, fmt.Errorf("replica: INSERT INTO %s names columns", s.Table)
			}
			for _, exprs := range s.Rows {
				row := make(value.Row, len(exprs))
				for i, x := range exprs {
					v, err := expr.Eval(expr.FoldConstants(x, nil), nil, nil)
					if err != nil {
						return nil, fmt.Errorf("replica: INSERT INTO %s value %s: %w", s.Table, x, err)
					}
					row[i] = v
				}
				if err := store.Insert(s.Table, row); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("replica: unsupported statement %T", stmt)
		}
	}
	return store, nil
}

// tableDef turns CREATE TABLE into a catalog definition the way the engine
// does: inline PRIMARY KEY, UNIQUE and REFERENCES become table constraints.
func tableDef(s *sql.CreateTableStmt) *schema.Table {
	def := &schema.Table{Name: s.Name, Checks: s.Checks}
	for _, c := range s.Columns {
		def.Columns = append(def.Columns, schema.Column{Name: c.Name, Type: c.Type, Domain: c.Domain, NotNull: c.NotNull, Check: c.Check})
		if c.PrimaryKey {
			def.Keys = append(def.Keys, schema.Key{Columns: []string{c.Name}, Primary: true})
		}
		if c.Unique {
			def.Keys = append(def.Keys, schema.Key{Columns: []string{c.Name}})
		}
		if c.References != nil {
			def.ForeignKeys = append(def.ForeignKeys, schema.ForeignKey{Columns: c.References.Columns, RefTable: c.References.RefTable, RefColumns: c.References.RefColumns})
		}
	}
	for _, k := range s.Keys {
		def.Keys = append(def.Keys, schema.Key{Columns: k.Columns, Primary: k.Primary})
	}
	for _, fk := range s.ForeignKeys {
		def.ForeignKeys = append(def.ForeignKeys, schema.ForeignKey{Columns: fk.Columns, RefTable: fk.RefTable, RefColumns: fk.RefColumns})
	}
	return def
}

// replicaPlan is the replica's plan choice for one text.
type replicaPlan struct {
	eager bool
	// standard, alternative and certs are set when the chosen plan is an
	// eager forward plan: a cache hit on it re-certifies with CrossCheck.
	standard, alternative algebra.Node
	certs                 []*plancheck.Certificate
}

// spanUnits lists the spans reported as medians, with the unit of each.
var spanUnits = map[string]time.Duration{
	"sql.parse_us":            time.Microsecond,
	"sql.canonical_us":        time.Microsecond,
	"core.optimize_us":        time.Microsecond,
	"plancheck.crosscheck_us": time.Microsecond,
	"storage.snapshot_us":     time.Microsecond,
	"exec.residual_us":        time.Microsecond,
	"server.overhead_us":      time.Microsecond,
	"server.write_ms":         time.Millisecond,
}

// tracer collects the traced phase's spans.
type tracer struct {
	e       *gbj.Engine
	w       *workload
	replica *storage.Store
	opt     *core.Optimizer
	cat     plancheck.CatalogView
	plans   map[string]*replicaPlan

	mu    sync.Mutex
	spans map[string][]time.Duration
	// engineTime sums the traced queries' in-process Engine.Query times
	// (the queries themselves for library callers), measured their
	// replayed spans and planSide the sql, core and plancheck ones among
	// those.
	engineTime, measured, planSide time.Duration
	queries, violations            int
}

// coverage is the share of the traced queries' Engine.Query time that
// the layers account for. exec is the remainder, charged only when
// positive, so coverage is 1 when the decomposition adds up and above 1 by
// what the replayed spans claim beyond the Engine.Query time. For served
// workloads that is the in-process run: the server's share, an HTTP round
// trip minus a separate run, is reported but not checked.
func (t *tracer) coverage() float64 {
	return float64(max(t.measured, t.engineTime)) / float64(t.engineTime)
}

// newTracer plans every distinct text on the replica and checks each
// choice against the engine's Engine.Explain: the same eager-or-lazy
// choice, and for forward queries the very same explanation, costs
// included.
func newTracer(w *workload, e *gbj.Engine, replica *storage.Store) (*tracer, error) {
	t := &tracer{
		e: e, w: w, replica: replica,
		opt:   core.NewOptimizer(replica),
		cat:   plancheck.Catalog(replica.Catalog()),
		plans: map[string]*replicaPlan{},
		spans: map[string][]time.Duration{},
	}
	t.opt.Parallelism = e.Parallelism()
	t.opt.Vectorize = e.Vectorize()
	for _, o := range append(append([]op{}, w.warm...), w.distinct...) {
		if t.plans[o.text] != nil {
			continue
		}
		q, err := sql.ParseQuery(o.text)
		if err != nil {
			return nil, err
		}
		rp, rep, err := t.choose(q)
		if err != nil {
			return nil, fmt.Errorf("replica plan for %s: %w", o.text, err)
		}
		explained, err := e.Explain(o.text)
		if err != nil {
			return nil, err
		}
		engineEager := strings.Contains(explained, "chosen: transformed plan") || strings.Contains(explained, "chosen: nested plan")
		if engineEager != rp.eager || (rep != nil && explained != rep.Explain()) {
			return nil, fmt.Errorf("replica store plans %s differently from the engine (eager %t vs %t): the replica no longer matches the engine's store", o.text, rp.eager, engineEager)
		}
		t.plans[o.text] = rp
	}
	return t, nil
}

// choose mirrors the engine's plan selection: the Section 8 reverse
// analysis for queries over a view or a derived table, else Optimize. The
// forward report is returned when Optimize ran.
func (t *tracer) choose(q *sql.SelectStmt) (*replicaPlan, *core.Report, error) {
	for _, ref := range q.From {
		if ref.Subquery == nil && t.replica.Catalog().View(ref.Name) == nil {
			continue
		}
		rr, err := t.opt.TryReverse(q)
		if err != nil {
			return nil, nil, err
		}
		if rr.Applicable && rr.Decision.OK {
			return &replicaPlan{eager: !rr.UseFlat}, nil, nil
		}
		break
	}
	r, err := t.opt.Optimize(q)
	if err != nil {
		return nil, nil, err
	}
	rp := &replicaPlan{eager: r.Transformed}
	if r.Transformed {
		rp.standard, rp.alternative, rp.certs = r.Standard, r.Alternative, r.Certificates()
	}
	return rp, r, nil
}

// op runs one operation through c and, for a successful read, replays its
// layers. Writes are timed whole: server.write_ms.
func (t *tracer) op(ctx context.Context, c caller, o op) ([][]any, error) {
	before := t.e.PlanCacheStats()
	t0 := time.Now()
	rows, err := c.do(ctx, o)
	total := time.Since(t0)
	if err != nil {
		return rows, err
	}
	if o.kind == opWrite {
		t.mu.Lock()
		t.spans["server.write_ms"] = append(t.spans["server.write_ms"], total)
		t.mu.Unlock()
		return rows, nil
	}
	after := t.e.PlanCacheStats()
	engine := total
	var overhead time.Duration
	if t.w.served {
		// The in-process run hits the plan the HTTP request just cached,
		// unless a write in between emptied the cache.
		before = t.e.PlanCacheStats()
		t1 := time.Now()
		if _, err := t.e.QueryParams(o.text, o.params); err != nil {
			return nil, err
		}
		engine = time.Since(t1)
		after = t.e.PlanCacheStats()
		overhead = total - engine
	}
	// With one caller a query makes exactly one cache lookup. With two,
	// the other session's lookups can fall in the window; a miss is then
	// only recognised when no hit was seen.
	miss := after.Misses > before.Misses && after.Hits == before.Hits

	spans := make(map[string]time.Duration, 6)
	s := time.Now()
	q, err := sql.ParseQuery(o.text)
	spans["sql.parse_us"] = time.Since(s)
	if err != nil {
		return nil, err
	}
	s = time.Now()
	_ = sql.Canonical(q)
	spans["sql.canonical_us"] = time.Since(s)
	s = time.Now()
	_ = t.replica.Snapshot()
	spans["storage.snapshot_us"] = time.Since(s)
	rp := t.plans[o.text]
	switch {
	case miss:
		s = time.Now()
		if _, _, err := t.choose(q); err != nil {
			return nil, err
		}
		spans["core.optimize_us"] = time.Since(s)
	case len(rp.certs) > 0:
		s = time.Now()
		_ = plancheck.CrossCheck(rp.standard, rp.alternative, t.cat, rp.certs)
		spans["plancheck.crosscheck_us"] = time.Since(s)
	}
	plan := spans["sql.parse_us"] + spans["sql.canonical_us"] + spans["core.optimize_us"] + spans["plancheck.crosscheck_us"]
	measured := plan + spans["storage.snapshot_us"]
	residual := engine - measured
	if t.w.olapClasses {
		spans["exec.ms."+o.class] = residual
	} else {
		spans["exec.residual_us"] = residual
	}
	if t.w.served {
		spans["server.overhead_us"] = overhead
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, d := range spans {
		t.spans[name] = append(t.spans[name], d)
	}
	if measured > engine {
		t.violations++
	}
	t.queries++
	t.engineTime += engine
	t.measured += measured
	t.planSide += plan
	return rows, nil
}

// median returns the median span of name in unit, 0 when it never ran.
func (t *tracer) median(name string, unit time.Duration) float64 {
	return float64(medianDuration(t.spans[name])) / float64(unit)
}

// medianDuration returns the median of ds, 0 for none.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = append([]time.Duration(nil), ds...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
