package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"swfpga/internal/align"
	"swfpga/internal/engine"
	"swfpga/internal/search"
	"swfpga/internal/seq"
)

// The traced run times calls into the system's public seams from
// outside the program: the record source handed to search.Stream, the
// engines a search.Factory returns, and the server's ServeHTTP. Nothing
// inside the program is instrumented; attribution rides on a context
// value that the scheduler and the server already pass down to every
// engine call.

// span is one timed interval of one operation. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	Workload string `json:"workload"`
	Op       int64  `json:"op"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced pass in memory and hands out
// operation traces; the spans are written out when the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	nextID   atomic.Int64
	ops      sync.Map // decimal op id -> *opTrace, for the server-side lookup

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (tr *tracer) record(op, id, parent int64, name string, t0, t1 time.Time) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{Workload: tr.workload, Op: op, ID: id, Parent: parent, Name: name,
		Start: t0.Sub(tr.epoch).Nanoseconds(), End: t1.Sub(tr.epoch).Nanoseconds()})
	tr.mu.Unlock()
}

// newOp starts the trace of one operation. Its id doubles as the id of
// the operation's root span.
func (tr *tracer) newOp() *opTrace {
	op := &opTrace{tr: tr, id: tr.nextID.Add(1)}
	op.parent = op.id
	tr.ops.Store(strconv.FormatInt(op.id, 10), op)
	return op
}

// lookup finds the operation a request header names.
func (tr *tracer) lookup(id string) *opTrace {
	v, ok := tr.ops.Load(id)
	if !ok {
		return nil
	}
	return v.(*opTrace)
}

// writeJSONL writes every span as one JSON object per line.
func (tr *tracer) writeJSONL(w io.Writer) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// opTrace accumulates what the wrappers saw of one operation. Engine
// calls arrive from several scan workers at once, hence the lock.
type opTrace struct {
	tr *tracer
	id int64

	mu sync.Mutex
	// parent is the span engine calls nest under: the operation itself,
	// or the server's handler span once the request reaches it.
	parent int64
	t      opTotals
}

// opTotals is what the wrappers measured of one operation.
type opTotals struct {
	firstCall, lastReturn    time.Time
	busy                     time.Duration
	calls, cells             int64
	batchRecords             int64
	handlerStart, handlerEnd time.Time
	// decode and idle are the time inside the record source's Next and
	// between one Next return and the following call; decodeBytes is
	// the bases it returned.
	decode, idle time.Duration
	decodeBytes  int64
}

type opKey struct{}

func withOp(ctx context.Context, op *opTrace) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

// engineCall times one call into an engine on behalf of the operation
// in ctx: defer engineCall(ctx, name, cells, records)().
func engineCall(ctx context.Context, name string, cells, records int64) func() {
	op, _ := ctx.Value(opKey{}).(*opTrace)
	if op == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		t1 := time.Now()
		op.mu.Lock()
		t := &op.t
		if t.firstCall.IsZero() || t0.Before(t.firstCall) {
			t.firstCall = t0
		}
		if t1.After(t.lastReturn) {
			t.lastReturn = t1
		}
		t.busy += t1.Sub(t0)
		t.calls++
		t.cells += cells
		t.batchRecords += records
		parent := op.parent
		op.mu.Unlock()
		op.tr.record(op.id, op.tr.nextID.Add(1), parent, name, t0, t1)
	}
}

// tracedEngine forwards every engine.Engine method and BatchScan to the
// engine it wraps, timing each call. Capabilities pass through
// unchanged, so batch negotiation picks the same path as untraced.
type tracedEngine struct{ inner engine.Engine }

func (e tracedEngine) Name() string                      { return e.inner.Name() }
func (e tracedEngine) Capabilities() engine.Capabilities { return e.inner.Capabilities() }

func (e tracedEngine) BestLocal(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	defer engineCall(ctx, "engine.BestLocal", int64(len(s))*int64(len(t)), 0)()
	return e.inner.BestLocal(ctx, s, t, sc)
}

func (e tracedEngine) BestAnchored(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	defer engineCall(ctx, "engine.BestAnchored", int64(len(s))*int64(len(t)), 0)()
	return e.inner.BestAnchored(ctx, s, t, sc)
}

func (e tracedEngine) BestAnchoredDivergence(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, int, int, error) {
	defer engineCall(ctx, "engine.BestAnchoredDivergence", int64(len(s))*int64(len(t)), 0)()
	return e.inner.BestAnchoredDivergence(ctx, s, t, sc)
}

func (e tracedEngine) BestAffineLocal(ctx context.Context, s, t []byte, sc align.AffineScoring) (int, int, int, error) {
	defer engineCall(ctx, "engine.BestAffineLocal", int64(len(s))*int64(len(t)), 0)()
	return e.inner.BestAffineLocal(ctx, s, t, sc)
}

func (e tracedEngine) BestAffineAnchoredDivergence(ctx context.Context, s, t []byte, sc align.AffineScoring) (int, int, int, int, int, error) {
	defer engineCall(ctx, "engine.BestAffineAnchoredDivergence", int64(len(s))*int64(len(t)), 0)()
	return e.inner.BestAffineAnchoredDivergence(ctx, s, t, sc)
}

func (e tracedEngine) BatchScan(ctx context.Context, query []byte, records [][]byte, sc align.LinearScoring) ([]engine.BatchResult, error) {
	b := engine.BatcherFor(e.inner)
	if b == nil {
		return nil, engine.ErrUnsupported
	}
	var bases int64
	for _, r := range records {
		bases += int64(len(r))
	}
	defer engineCall(ctx, "engine.BatchScan", int64(len(query))*bases, int64(len(records)))()
	return b.BatchScan(ctx, query, records, sc)
}

// tracedFactory wraps every engine f builds.
func tracedFactory(f search.Factory) search.Factory {
	return func() (engine.Engine, error) {
		e, err := f()
		if err != nil || e == nil {
			return e, err
		}
		return tracedEngine{e}, nil
	}
}

var (
	tracedNamesMu sync.Mutex
	tracedNames   = map[string]string{}
)

// tracedEngineName registers, once per wrapped engine, a registry entry
// that builds the traced wrapper, so a server can be configured to use
// it as its default engine; it returns the registered name.
func tracedEngineName(inner string) string {
	tracedNamesMu.Lock()
	defer tracedNamesMu.Unlock()
	if name, ok := tracedNames[inner]; ok {
		return name
	}
	name := "swperf-" + inner
	engine.Register(name, func(cfg engine.Config) (engine.Engine, error) {
		e, err := engine.New(inner, cfg)
		if err != nil {
			return nil, err
		}
		return tracedEngine{e}, nil
	})
	tracedNames[inner] = name
	return name
}

// tracedSource times a record source's Next calls. Sources are
// single-consumer, so it needs no lock; fold copies its totals into the
// operation once the search has returned.
type tracedSource struct {
	inner        seq.RecordSource
	last         time.Time
	decode, idle time.Duration
	bytes        int64
}

func (s *tracedSource) Next() (seq.Sequence, error) {
	t0 := time.Now()
	if !s.last.IsZero() {
		s.idle += t0.Sub(s.last)
	}
	rec, err := s.inner.Next()
	s.last = time.Now()
	s.decode += s.last.Sub(t0)
	s.bytes += int64(len(rec.Data))
	return rec, err
}

func (s *tracedSource) fold(op *opTrace) {
	op.mu.Lock()
	op.t.decode, op.t.idle, op.t.decodeBytes = s.decode, s.idle, s.bytes
	op.mu.Unlock()
}

// opHeader carries the client's operation id to the traced handler.
const opHeader = "X-Swperf-Op"

// tracedHandler times the server's ServeHTTP and attributes the engine
// calls a request causes to the client operation named by opHeader.
type tracedHandler struct {
	tr   *tracer
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := h.tr.lookup(r.Header.Get(opHeader))
	if op == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	id := h.tr.nextID.Add(1)
	t0 := time.Now()
	op.mu.Lock()
	op.parent = id
	op.mu.Unlock()
	h.next.ServeHTTP(w, r.WithContext(withOp(r.Context(), op)))
	t1 := time.Now()
	op.mu.Lock()
	op.t.handlerStart, op.t.handlerEnd = t0, t1
	op.mu.Unlock()
	h.tr.record(op.id, id, op.id, "server.ServeHTTP", t0, t1)
}

// totals returns a copy of what was measured, to read once the
// operation has completed.
func (op *opTrace) totals() opTotals {
	op.mu.Lock()
	defer op.mu.Unlock()
	return op.t
}
