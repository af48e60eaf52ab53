// Distributed execution surface of the engine: a simulated multi-node
// cluster (package dist) behind SetNodes/SetShards/SetDistStrategy. With
// more than one node configured, queries compile onto the cluster — base
// tables read from hash-partitioned shards, exchanges move rows over
// byte-accounted links — and the optimizer's cost comparison includes the
// communication term, so the group-before-join choice accounts for what
// each plan ships (the paper's Section 7 distributed argument).
package gbj

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/plancheck"
)

// DistStrategy selects how grouping over partitioned tables ships data:
// automatically by estimated bytes, always eagerly (pre-aggregate per
// node), or always lazily (ship every row to the coordinator).
type DistStrategy = dist.Strategy

// The distributed grouping strategies.
const (
	DistAuto  = dist.StrategyAuto
	DistEager = dist.StrategyEager
	DistLazy  = dist.StrategyLazy
)

// distCluster aliases the dist type so the Engine struct stays free of a
// direct package reference in gbj.go.
type distCluster = dist.Cluster

// distRecoveryStats and faultInjector alias the same way: the Engine
// struct fields in gbj.go reference them without importing dist or fault.
type (
	distRecoveryStats = dist.RecoveryStats
	faultInjector     = fault.Injector
)

// UnavailableError is the typed error the distributed runtime reports when
// a shipment's retries are exhausted and no failover target remains. The
// engine recovers from it by degrading to local execution; it surfaces to
// callers only when that local re-run is impossible.
type UnavailableError = dist.UnavailableError

// SetLinkRetries sets the per-shipment retry budget of distributed
// execution: a failed link shipment is re-attempted up to n more times
// (exponential backoff with deterministic jitter, driven through the
// injected clock and bounded by the query context's deadline) before the
// node health tracker considers failover. 0 (the default) disables
// retries. Negative values are rejected.
func (e *Engine) SetLinkRetries(n int) error {
	if n < 0 {
		return fmt.Errorf("gbj: link retry budget must be at least 0, got %d", n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.linkRetries = n
	return nil
}

// LinkRetries returns the configured per-shipment link retry budget.
func (e *Engine) LinkRetries() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.linkRetries
}

// SetFaultInjector installs a deterministic fault schedule every
// subsequent query executes under — link faults drive the distributed
// retry/failover machinery, row-path faults the executor's containment.
// nil (the default) removes it. This is the chaos-testing surface; it is
// how the golden EXPLAIN ANALYZE recovery output is produced under
// FakeClock.
func (e *Engine) SetFaultInjector(inj *fault.Injector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.faults = inj
}

// RecoveryCounters is a snapshot of the engine-lifetime fault-recovery
// totals across every distributed query (the \retries shell command
// renders it).
type RecoveryCounters struct {
	// Retries is the total re-attempted link shipments.
	Retries int64
	// RedeliveriesDropped is the total duplicate deliveries dropped by
	// receiver-side exactly-once dedup.
	RedeliveriesDropped int64
	// Failovers is the total nodes declared dead whose shard ownership
	// moved to a survivor.
	Failovers int64
	// Degraded is the total distributed executions abandoned for a local
	// re-run.
	Degraded int64
}

// RecoveryCounters returns the engine-lifetime recovery totals.
func (e *Engine) RecoveryCounters() RecoveryCounters {
	return RecoveryCounters{
		Retries:             e.recovery.Retries.Load(),
		RedeliveriesDropped: e.recovery.RedeliveriesDropped.Load(),
		Failovers:           e.recovery.Failovers.Load(),
		Degraded:            e.recovery.Degraded.Load(),
	}
}

// SetNodes selects the simulated cluster size queries run on: 1 (the
// default) executes single-site; n > 1 hash-partitions every base table
// across n nodes and executes queries with exchange operators. Values
// below 1 are rejected.
func (e *Engine) SetNodes(n int) error {
	if n < 1 {
		return fmt.Errorf("gbj: node count must be at least 1, got %d", n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nodes = n
	e.opt.Nodes = n
	e.invalidateCluster()
	e.invalidatePlans()
	return nil
}

// Nodes returns the configured cluster size (1 when single-site).
func (e *Engine) Nodes() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.nodes < 1 {
		return 1
	}
	return e.nodes
}

// SetShards selects how many hash partitions each base table splits into
// (shard k lives on node k mod nodes). The count must be a power of two —
// so doubling the cluster only moves whole shards — and at least 1; 0
// restores the default of one shard per node.
func (e *Engine) SetShards(s int) error {
	if s < 0 {
		return fmt.Errorf("gbj: shard count must be at least 1, got %d", s)
	}
	if s > 0 && s&(s-1) != 0 {
		return fmt.Errorf("gbj: shard count must be a power of two, got %d", s)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shards = s
	e.invalidateCluster()
	e.invalidatePlans()
	return nil
}

// Shards returns the configured shard count; 0 means one shard per node.
func (e *Engine) Shards() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.shards
}

// SetDistStrategy selects the distributed grouping strategy.
func (e *Engine) SetDistStrategy(s DistStrategy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.distStrategy = s
	e.invalidatePlans()
}

// DistStrategyConfigured returns the configured distributed grouping
// strategy.
func (e *Engine) DistStrategyConfigured() DistStrategy {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.distStrategy
}

// invalidateCluster marks the cached cluster stale. Called with mu held
// (write) after DDL/DML and topology changes.
func (e *Engine) invalidateCluster() {
	e.distMu.Lock()
	e.clusterDirty = true
	e.distMu.Unlock()
}

// clusterFor returns the cluster for the current topology and data,
// rebuilding it when stale. Callers hold mu (read); distMu serializes the
// rebuild so concurrent queries share one partitioning pass.
func (e *Engine) clusterFor() (*dist.Cluster, error) {
	e.distMu.Lock()
	defer e.distMu.Unlock()
	if e.cluster != nil && !e.clusterDirty && e.cluster.Nodes() == e.nodes {
		return e.cluster, nil
	}
	shards := e.shards
	if shards == 0 {
		shards = nextPow2(e.nodes)
	}
	cl, err := dist.NewCluster(e.store, e.nodes, shards)
	if err != nil {
		return nil, err
	}
	e.cluster = cl
	e.clusterDirty = false
	return cl, nil
}

// nextPow2 rounds n up to a power of two (the shard-count invariant).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// compileDist lowers a chosen logical plan onto the cluster, pricing
// exchanges with the optimizer's row estimates, and — when plan checking
// is on — verifies the distributed plan with the certificates translated
// onto its nodes.
func (e *Engine) compileDist(plan algebra.Node, ann algebra.Annotations, certs []*plancheck.Certificate) (*dist.Plan, error) {
	dp, err := dist.Compile(plan, dist.Config{
		Nodes:    e.nodes,
		Strategy: e.distStrategy,
		Rows: func(n algebra.Node) float64 {
			if a, ok := ann[n]; ok {
				return float64(a.Rows)
			}
			return -1
		},
	})
	if err != nil {
		return nil, err
	}
	if e.opt.CheckPlans {
		if err := plancheck.Verify(dp.Root, &plancheck.Options{Certificates: translateCerts(dp, certs)}); err != nil {
			return nil, fmt.Errorf("gbj: distributed plan failed verification: %w", err)
		}
	}
	return dp, nil
}

// translateCerts re-anchors TestFD certificates from logical GroupBy nodes
// onto the distributed plan's eager aggregations derived from them, so the
// eager-cert rule holds on the compiled tree too.
func translateCerts(dp *dist.Plan, certs []*plancheck.Certificate) []*plancheck.Certificate {
	if len(certs) == 0 {
		return nil
	}
	var out []*plancheck.Certificate
	for _, g := range plancheck.EagerGroups(dp.Root) {
		origin := dp.Origins[g]
		for _, cert := range certs {
			if cert.Group == origin {
				cc := *cert
				cc.Group = g
				out = append(out, &cc)
			}
		}
	}
	return out
}

// distOptions assembles the exec options every fragment run inherits.
// Fragments compile like local plans: shard and exchange leaves carry no
// order guarantee, so a fragment's grouping streams only when a Sort inside
// the fragment proves key order and hashes otherwise; any ORDER BY runs as
// a real coordinator sort.
func (e *Engine) distOptions(ctx context.Context, params expr.Params, col *obs.Collector) *exec.Options {
	return &exec.Options{
		Params:       params,
		Parallelism:  e.parallelism,
		Context:      ctx,
		MemoryBudget: e.memBudget,
		Metrics:      col,
		Clock:        e.clock,
		Faults:       e.faults,
	}
}

// distRecovery assembles the fault-tolerance policy distributed runs
// execute under: the configured retry budget, the engine clock driving
// backoff, the engine-lifetime counter aggregate, and — when plan checking
// is on — the plancheck dist-recovery verifier consulted on every failover
// re-route.
func (e *Engine) distRecovery() *dist.Recovery {
	rec := &dist.Recovery{
		LinkRetries: e.linkRetries,
		Clock:       e.clock,
		Stats:       &e.recovery,
	}
	if e.opt.CheckPlans {
		rec.Verify = verifyRecovery
	}
	return rec
}

// verifyRecovery is the plancheck hook the distributed runner consults
// after a failover: the re-routed ownership table and the untouched plan
// tree must still satisfy the placement and agg-split invariants.
func verifyRecovery(root algebra.Node, alive []bool, owner []int) error {
	if vs := plancheck.CheckRecovery(root, alive, owner); len(vs) > 0 {
		return vs[0]
	}
	return nil
}

// degradeError returns the distributed unavailability error when the
// engine can recover by re-running the query locally; nil otherwise.
func degradeError(err error) *dist.UnavailableError {
	var ue *dist.UnavailableError
	if errors.As(err, &ue) {
		return ue
	}
	return nil
}

// degradeReason renders the one-line account of a distributed→local
// degradation that ExplainAnalyze and the metrics surface report.
func degradeReason(err error) string {
	return fmt.Sprintf("cluster unavailable (%v); re-executed the query locally", err)
}

// distExecute runs a plan choice on the cluster, degrading to the lazy
// fallback plan on a memory-budget abort exactly like single-site
// execution does, and degrading distributed→local when the cluster is
// unavailable — retries exhausted, failover impossible — so an unhealthy
// cluster costs a query its distribution, not its answer.
func (e *Engine) distExecute(ctx context.Context, pc planChoice, params expr.Params, col *obs.Collector) (*exec.Result, error) {
	cl, err := e.clusterFor()
	if err != nil {
		return nil, err
	}
	dp, err := e.compileDist(pc.plan, pc.ann, pc.certs)
	if err != nil {
		return nil, err
	}
	res, err := cl.RunRecover(dp, e.distOptions(ctx, params, col), e.distRecovery())
	if re := fallbackError(err, pc); re != nil {
		e.fallbacks.Add(1)
		fdp, ferr := e.compileDist(pc.fallback, pc.fallbackAnn, nil)
		if ferr != nil {
			return nil, ferr
		}
		res, err = cl.RunRecover(fdp, e.distOptions(ctx, params, col), e.distRecovery())
	}
	if ue := degradeError(err); ue != nil {
		e.fallbacks.Add(1)
		e.recovery.Degraded.Add(1)
		if col != nil {
			col.SetDegraded(degradeReason(ue))
		}
		cfg := e.runConfigLocked(nil)
		res, err = governedRun(ctx, cfg, pc.plan, params, col, nil, true)
		if fe := fallbackError(err, pc); fe != nil {
			e.fallbacks.Add(1)
			res, err = governedRun(ctx, cfg, pc.fallback, params, col, nil, false)
		}
	}
	return res, err
}

// distAnalyze is the distributed QueryAnalyzed path: it executes on the
// cluster with a metrics collector, translates the cost model's per-node
// estimates onto the distributed plan through the compiler's origin map,
// and calibrates estimate against actual per distributed operator —
// exchanges carry their shipped bytes (the "ship=" annotation and the
// "exchange bytes shipped" total).
func (e *Engine) distAnalyze(ctx context.Context, pc planChoice) (*Analysis, error) {
	cl, err := e.clusterFor()
	if err != nil {
		return nil, err
	}
	dp, err := e.compileDist(pc.plan, pc.ann, pc.certs)
	if err != nil {
		return nil, err
	}
	col := obs.NewCollector()
	res, err := cl.RunRecover(dp, e.distOptions(ctx, nil, col), e.distRecovery())
	est := translateAnn(dp, pc.ann)
	if re := fallbackError(err, pc); re != nil {
		e.fallbacks.Add(1)
		dp, err = e.compileDist(pc.fallback, pc.fallbackAnn, nil)
		if err != nil {
			return nil, err
		}
		col = obs.NewCollector()
		col.SetFallback(fallbackReason(re))
		res, err = cl.RunRecover(dp, e.distOptions(ctx, nil, col), e.distRecovery())
		est = translateAnn(dp, pc.fallbackAnn)
	}
	if ue := degradeError(err); ue != nil {
		// Cluster unavailable: re-run locally with fresh instrumentation so
		// the analysis describes the run that produced the rows; the
		// collector carries the degradation record.
		e.fallbacks.Add(1)
		e.recovery.Degraded.Add(1)
		return e.degradedAnalyze(ctx, pc, ue)
	}
	if err != nil {
		return nil, err
	}
	cal := core.Calibrate(dp.Root, est, col)
	tracer := obs.NewTracer(e.clock)
	trace, err := tracer.JSON()
	if err != nil {
		return nil, err
	}
	return &Analysis{
		Result:      convertResult(res),
		Plan:        dp.Root,
		Calibration: cal,
		Metrics:     col,
		TraceJSON:   trace,
		Duration:    0,
		Governance:  col.Gov(),
	}, nil
}

// degradedAnalyze is the QueryAnalyzed tail of a distributed→local
// degradation: the single-site execution of the chosen plan, instrumented
// from scratch, with the collector carrying the degradation record (and a
// further eager→lazy fallback if the local run then trips the budget).
func (e *Engine) degradedAnalyze(ctx context.Context, pc planChoice, ue *dist.UnavailableError) (*Analysis, error) {
	plan, est := pc.plan, pc.ann
	cfg := e.runConfigLocked(nil)
	col := obs.NewCollector()
	col.SetDegraded(degradeReason(ue))
	tracer := obs.NewTracer(cfg.clock)
	res, err := governedRun(ctx, cfg, plan, nil, col, tracer, true)
	if fe := fallbackError(err, pc); fe != nil {
		e.fallbacks.Add(1)
		plan, est = pc.fallback, pc.fallbackAnn
		col = obs.NewCollector()
		col.SetDegraded(degradeReason(ue))
		col.SetFallback(fallbackReason(fe))
		tracer = obs.NewTracer(cfg.clock)
		res, err = governedRun(ctx, cfg, plan, nil, col, tracer, false)
	}
	if err != nil {
		return nil, err
	}
	cal := core.Calibrate(plan, est, col)
	trace, err := tracer.JSON()
	if err != nil {
		return nil, err
	}
	return &Analysis{
		Result:      convertResult(res),
		Plan:        plan,
		Calibration: cal,
		Metrics:     col,
		TraceJSON:   trace,
		Duration:    time.Duration(cal.TotalNanos),
		Governance:  col.Gov(),
	}, nil
}

// translateAnn moves logical-plan row estimates onto the distributed
// nodes derived from them. Synthesized nodes whose origin has no estimate
// (or no origin) calibrate against the zero estimate, surfacing as
// q-error like any other unestimated operator.
func translateAnn(dp *dist.Plan, ann algebra.Annotations) algebra.Annotations {
	out := make(algebra.Annotations, len(dp.Origins))
	for n, origin := range dp.Origins {
		if a, ok := ann[origin]; ok {
			out[n] = a
		}
	}
	return out
}
