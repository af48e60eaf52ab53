package main

// Set-up, reference answers and the closed-loop measuring phase, shared by
// the untraced and the traced run.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
)

// caller sends one operation the way a user of the entry point does.
type caller interface {
	do(ctx context.Context, o op) ([][]any, error)
}

// libraryCaller is a program calling Engine.Query (QueryParams for
// parameterised texts) in-process.
type libraryCaller struct{ e *gbj.Engine }

func (c libraryCaller) do(_ context.Context, o op) ([][]any, error) {
	if o.kind == opWrite {
		return nil, c.e.Exec(o.text)
	}
	res, err := c.e.QueryParams(o.text, o.params)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// httpCaller is a gbj-server session.
type httpCaller struct{ c *server.Client }

func (c httpCaller) do(ctx context.Context, o op) ([][]any, error) {
	if o.kind == opWrite {
		return nil, c.c.Exec(ctx, o.text)
	}
	res, err := c.c.QueryDetail(ctx, o.text, o.params)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// instance is one set-up engine, and for served workloads the gbj-server
// in front of it with one open session per caller.
type instance struct {
	e       *gbj.Engine
	callers []caller
	srv     *server.Server
	client  *server.Client // sessionless, for /v1/stats
	hc      *http.Client
	served  chan error
}

// start builds an empty engine with the workload's settings, runs load on
// it, and for served workloads starts gbj-server on a loopback port with
// cmd/gbj-server's defaults and opens the sessions.
func start(ctx context.Context, w *workload, load func(*gbj.Engine) error) (*instance, error) {
	e := gbj.New()
	w.configure(e)
	if err := load(e); err != nil {
		return nil, fmt.Errorf("loading %s: %w", w.name, err)
	}
	inst := &instance{e: e}
	if !w.served {
		for s := 0; s < w.sessions; s++ {
			inst.callers = append(inst.callers, libraryCaller{e})
		}
		return inst, nil
	}
	srv, err := server.New(ctx, server.Config{
		Engine:        e,
		PoolBytes:     256 << 20,
		MaxQueue:      64,
		QueueTimeout:  5 * time.Second,
		PlanCacheSize: 256,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst.srv = srv
	inst.served = make(chan error, 1)
	go func() { inst.served <- srv.Serve(ln) }()
	inst.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.sessions + 1}}
	url := "http://" + ln.Addr().String()
	inst.client = server.NewClient(url, inst.hc)
	for s := 0; s < w.sessions; s++ {
		c := server.NewClient(url, inst.hc)
		if err := c.NewSession(ctx); err != nil {
			inst.close()
			return nil, fmt.Errorf("opening session %d: %w", s, err)
		}
		inst.callers = append(inst.callers, httpCaller{c})
	}
	return inst, nil
}

// warm runs each query class once, so that columnar caches are built and
// the first timed operation finds the set-up finished.
func (inst *instance) warm(ctx context.Context, w *workload) error {
	for _, o := range w.warm {
		if _, err := inst.callers[0].do(ctx, o); err != nil {
			return fmt.Errorf("warm-up %s: %w", o.class, err)
		}
	}
	return nil
}

// close stops the server, if any, and waits for it to exit.
func (inst *instance) close() {
	if inst.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range inst.callers {
		_ = c.(httpCaller).c.CloseSession(ctx) // the server is going away either way
	}
	_ = inst.srv.Shutdown(ctx) // Serve's return below reports the outcome
	<-inst.served
	inst.hc.CloseIdleConnections()
}

// digest is an order-aware or multiset fingerprint of a result.
type digest struct {
	rows int
	sum  uint64
}

// digestOf fingerprints rows. Each row hashes on its own and the hashes
// add up, so row order only matters when ordered puts the position in the
// hash.
func digestOf(rows [][]any, ordered bool) digest {
	d := digest{rows: len(rows)}
	h := fnv.New64a()
	var buf []byte
	for i, row := range rows {
		buf = buf[:0]
		if ordered {
			buf = strconv.AppendInt(buf, int64(i), 10)
			buf = append(buf, '#')
		}
		for _, v := range row {
			switch x := v.(type) {
			case int64:
				buf = append(buf, 'i')
				buf = strconv.AppendInt(buf, x, 10)
			case string:
				buf = append(buf, 's')
				buf = append(buf, x...)
			case nil:
				buf = append(buf, 'n')
			default:
				buf = append(buf, fmt.Sprintf("%T:%v", v, v)...)
			}
			buf = append(buf, '|')
		}
		h.Reset()
		_, _ = h.Write(buf) // hash writes never fail
		d.sum += h.Sum64()
	}
	return d
}

// references computes each distinct read's answer with the paper's lazy
// plan on the serial row engine: ModeNever and QueryOptions{Serial: true}.
// It leaves the engine in its default cost-based mode, with an empty plan
// cache.
func references(ctx context.Context, w *workload, e *gbj.Engine) ([]digest, error) {
	e.SetMode(gbj.ModeNever)
	defer e.SetMode(gbj.ModeCost)
	refs := make([]digest, len(w.distinct))
	for i, o := range w.distinct {
		res, err := e.QueryOptionsContext(ctx, o.text, &gbj.QueryOptions{Params: o.params, Serial: true})
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", o.text, err)
		}
		refs[i] = digestOf(res.Rows, o.ordered)
	}
	return refs, nil
}

// kvConsistent checks the invariant kv writes preserve: every row has
// val = 2*grp, so SUM(val) = 2*SUM(grp), and the initial rows are there.
func kvConsistent(rows [][]any) bool {
	if len(rows) != 1 || len(rows[0]) != 3 {
		return false
	}
	n, ok1 := rows[0][0].(int64)
	sumVal, ok2 := rows[0][1].(int64)
	sumGrp, ok3 := rows[0][2].(int64)
	return ok1 && ok2 && ok3 && n >= mixedKVRows && sumVal == 2*sumGrp
}

// outcome classifies one finished operation.
type outcome uint8

const (
	outOK outcome = iota
	outFailed
	outRefused
	outWrong
)

func (b *bench) judge(o op, rows [][]any, err error) outcome {
	var ae *server.APIError
	switch {
	case errors.As(err, &ae) && ae.IsAdmission():
		return outRefused
	case err != nil:
		return outFailed
	case o.kind == opQuery && digestOf(rows, o.ordered) != b.refs[o.ref]:
		return outWrong
	case o.kind == opKVRead && !kvConsistent(rows):
		return outWrong
	}
	return outOK
}

// bench is one run of one workload.
type bench struct {
	w *workload
	// refs are the reference answers of w.distinct.
	refs []digest
	// streams are the sessions' step generators; they carry on from one
	// phase to the next.
	streams []func() step
	// cfg is the run's configuration; parts are started with it.
	cfg config
}

// phase is what one closed-loop measuring phase observed. Its steps live
// outside the Go heap (see samples.go); free releases them.
type phase struct {
	steps   []stepSample
	ops     int
	failed  int
	refused int
	wrong   int
	elapsed time.Duration
}

// stepSample is one finished step: when it ended, measured from the start
// of the phase, its latency and its number of operations. A step with a
// failed, refused or wrong operation has latency failedStep: slower than
// any percentile.
type stepSample struct {
	end, lat time.Duration
	ops      int
}

const failedStep = time.Duration(math.MaxInt64)

func (p *phase) errors() int { return p.failed + p.refused + p.wrong }

func (p *phase) qps() float64 { return float64(p.ops) / p.elapsed.Seconds() }

func (p *phase) free() {
	freeSamples(p.steps)
	p.steps = nil
}

// measure runs every session's closed loop for d. With a tracer, each
// query is followed by its layer replays, which therefore count in the
// phase's qps: the traced-vs-untraced difference is trace.overhead_pct.
func (b *bench) measure(ctx context.Context, inst *instance, d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	var mapErrs []error // from appendSample
	var mu sync.Mutex
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(d)
	for s := range inst.callers {
		next := b.streams[s]
		c := inst.callers[s]
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := &phase{}
			rows := make([][][]any, 0, 4)
			errs := make([]error, 0, 4)
			for time.Now().Before(deadline) {
				st := next()
				rows, errs = rows[:0], errs[:0]
				t0 := time.Now()
				for _, o := range st {
					var r [][]any
					var err error
					if tr != nil {
						r, err = tr.op(ctx, c, o)
					} else {
						r, err = c.do(ctx, o)
					}
					rows = append(rows, r)
					errs = append(errs, err)
				}
				lat := time.Since(t0)
				for i, o := range st {
					switch b.judge(o, rows[i], errs[i]) {
					case outFailed:
						local.failed++
					case outRefused:
						local.refused++
					case outWrong:
						local.wrong++
					default:
						continue
					}
					lat = failedStep
				}
				local.ops += len(st)
				var err error
				local.steps, err = appendSample(local.steps, stepSample{end: time.Since(begin), lat: lat, ops: len(st)})
				if err != nil {
					mu.Lock()
					mapErrs = append(mapErrs, err)
					mu.Unlock()
					break
				}
			}
			mu.Lock()
			for _, x := range local.steps {
				var err error
				if p.steps, err = appendSample(p.steps, x); err != nil {
					mapErrs = append(mapErrs, err)
					break
				}
			}
			local.free()
			p.ops += local.ops
			p.failed += local.failed
			p.refused += local.refused
			p.wrong += local.wrong
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(begin)
	if err := errors.Join(mapErrs...); err != nil {
		p.free()
		return nil, err
	}
	return p, nil
}
