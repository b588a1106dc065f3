package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"swfpga/internal/search"
	"swfpga/internal/seq"
	"swfpga/internal/server"
)

// request is one prepared HTTP request with its oracle answer.
type request struct {
	kind  string // "search" or "align"
	path  string
	body  []byte
	want  []byte // the oracle's hits, encoded as the server encodes them
	cells int64
}

// servdInputs are servd_mixed's generated inputs: the database (as
// FASTA, as a server loads it), the search queries and the align pairs.
type servdInputs struct {
	db      []seq.Sequence
	text    []byte
	queries [][]byte
	search  []request
	align   []request
}

func buildServdInputs(p params, seed int64) (*servdInputs, error) {
	wl, err := buildInputs(p, seed)
	if err != nil {
		return nil, err
	}
	text, err := fastaText(wl.DB)
	if err != nil {
		return nil, err
	}
	db, err := seq.ReadFASTA(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	in := &servdInputs{db: db, text: text, queries: wl.Queries}
	var bases int64
	for _, r := range db {
		bases += int64(len(r.Data))
	}
	for _, q := range wl.Queries {
		body, err := json.Marshal(map[string]any{"query": string(q), "min_score": p.MinScore, "top_k": p.TopK})
		if err != nil {
			return nil, err
		}
		in.search = append(in.search, request{kind: "search", path: "/v1/search", body: body, cells: int64(len(q)) * bases})
	}
	gen := seq.NewGenerator(seed + seedAlignPairs)
	for i := 0; i < p.AlignPairs; i++ {
		a, b, err := gen.HomologousPair(p.AlignLen, seq.DefaultMutationProfile())
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]string{"query": string(a), "target": string(b)})
		if err != nil {
			return nil, err
		}
		in.align = append(in.align, request{kind: "align", path: "/v1/align", body: body, cells: int64(len(a)) * int64(len(b))})
	}
	return in, nil
}

// prepare computes the oracle answers, untimed: a software search for
// /v1/search, and for /v1/align a software search with retrieval over
// the one target record, which fixes score, coordinates and CIGAR.
func (in *servdInputs) prepare(ctx context.Context, p params) error {
	for i, q := range in.queries {
		hits, err := oracle(ctx, in.db, q, search.Options{MinScore: p.MinScore, TopK: p.TopK, Workers: p.Workers})
		if err != nil {
			return err
		}
		if in.search[i].want, err = json.Marshal(server.HitsJSON(hits)); err != nil {
			return err
		}
	}
	for i := range in.align {
		var pair struct{ Query, Target string }
		if err := json.Unmarshal(in.align[i].body, &pair); err != nil {
			return err
		}
		target := []seq.Sequence{{ID: "target", Data: []byte(pair.Target)}}
		hits, err := oracle(ctx, target, []byte(pair.Query), search.Options{Retrieve: true})
		if err != nil {
			return err
		}
		if in.align[i].want, err = json.Marshal(server.HitsJSON(hits)); err != nil {
			return err
		}
	}
	return nil
}

// servdInstance is one running server behind a loopback listener, with
// a client holding at most GOMAXPROCS connections.
type servdInstance struct {
	in     *servdInputs
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	tr     *tracer
	log    io.Writer
}

// startServd builds the server with its shipped defaults and the given
// default engine, and listens; with tr set, ServeHTTP is traced.
func startServd(ctx context.Context, in *servdInputs, p params, engineName string, tr *tracer, log io.Writer) (*servdInstance, error) {
	srv, err := server.New(ctx, server.Config{DB: in.db, DefaultEngine: engineName})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = tracedHandler{tr: tr, next: srv}
	}
	return &servdInstance{
		in: in, srv: srv, ts: httptest.NewServer(h), tr: tr, log: log,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: p.Workers, MaxIdleConnsPerHost: p.Workers,
		}},
	}, nil
}

// close stops the listener (waiting for open requests), then drains the
// server's dispatcher.
func (s *servdInstance) close() error {
	s.client.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Drain(ctx)
}

// do sends one request and checks the reply against the oracle.
func (s *servdInstance) do(ctx context.Context, req request, due time.Time) opRecord {
	rec := opRecord{kind: req.kind, due: due, cells: req.cells}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+req.path, bytes.NewReader(req.body))
	if err != nil {
		fmt.Fprintf(s.log, "swperf: FAILED %s: %v\n", req.path, err)
		return rec
	}
	hreq.Header.Set("Content-Type", "application/json")
	if s.tr != nil {
		rec.trace = s.tr.newOp()
		hreq.Header.Set(opHeader, strconv.FormatInt(rec.trace.id, 10))
	}
	rec.start = time.Now()
	var body []byte
	resp, err := s.client.Do(hreq)
	if err == nil {
		body, err = io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close() // fully read
	}
	rec.end = time.Now()
	if s.tr != nil {
		s.tr.record(rec.trace.id, rec.trace.id, 0, "client."+req.kind, rec.start, rec.end)
	}
	var got struct {
		Hits json.RawMessage `json:"hits"`
	}
	switch {
	case err != nil:
		fmt.Fprintf(s.log, "swperf: FAILED %s: %v\n", req.path, err)
	case resp.StatusCode != http.StatusOK:
		fmt.Fprintf(s.log, "swperf: FAILED %s: %s: %.200s\n", req.path, resp.Status, body)
	case json.Unmarshal(body, &got) != nil || !bytes.Equal(got.Hits, req.want):
		fmt.Fprintf(s.log, "swperf: WRONG ANSWER %s: got %.200s, want %.200s\n", req.path, got.Hits, req.want)
	default:
		rec.ok = true
	}
	return rec
}

// request returns the i-th request of the mix: every n-th is an align
// request, and the searches cycle through the queries. A fixed order,
// rather than a drawn one, keeps each round's share of every request kind
// exact, so the latency percentiles do not jump between the kinds'
// latencies.
func (in *servdInputs) request(i, n int) request {
	if i%n == n-1 {
		return in.align[(i/n)%len(in.align)]
	}
	return in.search[(i-i/n)%len(in.search)]
}

// openLoop issues the mix at seeded Poisson arrival times for d, each
// request on its own goroutine, so a slow reply never delays the next
// arrival. It returns the requests in issue order, each one's lateness
// against its due time, and whether the backlog of unanswered requests
// was still growing at the end: the mean backlog seen by the last
// quarter of arrivals above twice that of the first quarter, plus two.
func (s *servdInstance) openLoop(ctx context.Context, d time.Duration, p params, seed int64) (ops []opRecord, lag []float64, grew bool) {
	rng := rand.New(rand.NewSource(seed + seedArrivals))
	var (
		wg          sync.WaitGroup
		outstanding atomic.Int64
		backlog     []int64
		slots       []*opRecord
	)
	start := time.Now()
	for at, i := 0.0, 0; ctx.Err() == nil; i++ {
		at += rng.ExpFloat64() / p.RatePerSec
		due := start.Add(time.Duration(at * float64(time.Second)))
		if due.Sub(start) > d {
			break
		}
		req := s.in.request(i, p.AlignEvery)
		time.Sleep(time.Until(due))
		lag = append(lag, ms(time.Since(due)))
		backlog = append(backlog, outstanding.Add(1)-1)
		slot := &opRecord{}
		slots = append(slots, slot)
		wg.Add(1)
		go func() {
			defer wg.Done()
			*slot = s.do(ctx, req, due)
			outstanding.Add(-1)
		}()
	}
	wg.Wait()
	for _, slot := range slots {
		ops = append(ops, *slot)
	}
	if q := len(backlog) / 4; q > 0 {
		mean := func(xs []int64) float64 {
			var sum int64
			for _, x := range xs {
				sum += x
			}
			return float64(sum) / float64(len(xs))
		}
		grew = mean(backlog[len(backlog)-q:]) > 2*mean(backlog[:q])+2
	}
	return ops, lag, grew
}

// servd is servd_mixed: the daemon behind a loopback listener, driven
// over HTTP/JSON by an open loop and then a closed loop.
type servd struct {
	p    params
	seed int64
	in   *servdInputs
	inst *servdInstance
	log  io.Writer
}

func (s *servd) close() error { return s.inst.close() }

func (s *servd) warm(ctx context.Context) (attempted, failed int) {
	return warmServd(ctx, s.inst, s.p)
}

func warmServd(ctx context.Context, inst *servdInstance, p params) (attempted, failed int) {
	for i := 0; i < 10; i++ {
		if !inst.do(ctx, inst.in.request(i, p.AlignEvery), time.Now()).ok {
			failed++
		}
	}
	return 10, failed
}

// pass runs the open loop for two thirds of d, for the latency metrics,
// then GOMAXPROCS closed-loop clients for the last third, for capacity.
// A traced pass runs on a second server whose default engine is the
// traced wrapper, registered under its own name.
func (s *servd) pass(ctx context.Context, d time.Duration, tr *tracer) (_ *pass, err error) {
	inst := s.inst
	var warmed, warmFailed int
	if tr != nil {
		inst, err = startServd(ctx, s.in, s.p, tracedEngineName(s.p.Engine), tr, s.log)
		if err != nil {
			return nil, fmt.Errorf("traced server: %w", err)
		}
		defer func() {
			if cerr := inst.close(); err == nil && cerr != nil {
				err = fmt.Errorf("traced server: %w", cerr)
			}
		}()
		warmed, warmFailed = warmServd(ctx, inst, s.p)
	}
	p := measure(func(p *pass) {
		p.open = true
		p.ops, p.lag, p.backlogGrew = inst.openLoop(ctx, 2*d/3, s.p, s.seed)
		p.closedStart, p.closed, _ = closedLoop(ctx, s.p.Workers, d/3, func(ctx context.Context, i int) opRecord {
			return inst.do(ctx, inst.in.request(i, s.p.AlignEvery), time.Now())
		})
		// A round holds AlignEvery-1 searches of each query and as many
		// align requests as there are queries, so every round does the
		// same work.
		p.roundSize = s.p.AlignEvery * len(s.in.search)
		p.all = append(append([]opRecord(nil), p.ops...), p.closed...)
	})
	p.warmed, p.warmFailed = warmed, warmFailed
	return p, nil
}

func (s *servd) isolated(ctx context.Context) (float64, float64, error) {
	open := func() seq.RecordSource { return seq.NewFASTASource(bytes.NewReader(s.in.text)) }
	return isolated(ctx, s.p, open, s.in.queries, groupSize(s.p))
}
