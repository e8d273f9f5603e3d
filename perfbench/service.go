package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/synth"
)

// serviceRate is the open-loop arrival rate (requests per second). It keeps
// the server's two job workers about an eighth busy on this mix; at half
// busy, every service metric moved by 40% or more between runs.
const serviceRate = 8.0

// maxHeld bounds the result bodies kept for verification after the timed
// phase (each is up to about a megabyte); perKeyHeld is how many are kept
// per (dataset, algorithm, k, t, cached) key, so every spec point and op
// kind is checked.
const (
	maxHeld    = 48
	perKeyHeld = 2
)

// coldSuffix names the cold-request copy of each dataset.
const coldSuffix = "-adhoc"

type svcDataset struct {
	name  string
	table *dataset.Table
	late  *dataset.Table // rows for append batches
}

// warmPoints are the release points the service's clients ask for again
// and again: each runs warm after an append, or hits the result cache.
var warmPoints = []struct {
	ds   int
	spec core.Spec
}{
	{0, core.Spec{Algorithm: core.TClosenessFirst, K: 5, T: .15}},
	{0, core.Spec{Algorithm: core.Merge, K: 5, T: .15}},
	{0, core.Spec{Algorithm: core.KAnonymityFirst, K: 5, T: .15}},
	{1, core.Spec{Algorithm: core.TClosenessFirst, K: 5, T: .15}},
	{1, core.Spec{Algorithm: core.Merge, K: 5, T: .15}},
}

type arrivalKind int

const (
	arriveRelease arrivalKind = iota
	arriveAppend
	arriveCold
)

type arrival struct {
	due  time.Duration // from the start of the timed phase
	kind arrivalKind
	ds   string
	spec core.Spec // the release requested
	key  string    // verification key of a release
	body []byte
}

// sent is one request as the generator issued it.
type sent struct {
	a        arrival
	due      time.Time
	sendAt   time.Time
	end      time.Time
	status   int
	location string
	body     []byte // small response documents only
	err      error
}

// jobDoc is the part of a job status document the client reads.
type jobDoc struct {
	ID        uint64  `json:"id"`
	State     string  `json:"state"`
	Submitted string  `json:"submitted"`
	Finished  string  `json:"finished"`
	RunMS     float64 `json:"run_ms"`
	Cached    bool    `json:"cached"`
	Error     string  `json:"error"`
}

// resultDoc is the part of a job result document the checks read.
type resultDoc struct {
	Dataset    string          `json:"dataset"`
	Epoch      int             `json:"epoch"`
	Algorithm  string          `json:"algorithm"`
	K          int             `json:"k"`
	T          float64         `json:"t"`
	Cached     bool            `json:"cached"`
	EffectiveK int             `json:"effective_k"`
	SSE        float64         `json:"sse"`
	ElapsedMS  float64         `json:"elapsed_ms"`
	Warm       json.RawMessage `json:"warm"`
	ReleaseCSV string          `json:"release_csv"`
}

// finishedJob is a completed release as the collector saw it.
type finishedJob struct {
	s        sent
	doc      jobDoc
	started  time.Time
	finished time.Time
	submit   time.Time
	fetchMS  float64
	result   []byte // held for verification, else nil
}

type svcClient struct {
	base string
	http *http.Client
}

// do sends one request and reads the whole response body: into buf when it
// is non-nil (the returned slice then aliases buf), else into a new slice.
func (c *svcClient) do(method, path string, body []byte, buf *bytes.Buffer) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, b, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes(), err
}

// svcServer is the server under test behind a loopback listener.
type svcServer struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	base string
}

func startServer() (*svcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &svcServer{srv: serve.New(serve.Config{}), done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the job workers down and waits for both.
func (s *svcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := s.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	return err
}

// serviceMix is the service-mix workload: open-loop traffic against an
// in-process server with the default configuration. Set-up starts the
// server and registers both generated tables by CSV upload; one job per
// warm point then seeds the warm cache. The timed phase issues seeded
// Poisson arrivals for -seconds, each timed from when it was due. The
// generator (this goroutine) sends; a collector goroutine waits for jobs
// and fetches their results, holding a bounded set of bodies that are
// parsed and checked only after the timed phase.
func serviceMix(r *run) error {
	n := 10000
	if r.cfg.tiny {
		n = 300
	}
	// Whole passes over coldSpecs, so every run has the same cold requests;
	// at most two, since a third would repeat the first on the same dataset
	// and hit the result cache.
	roundsPerPass := len(coldSpecs) / coldsPerRound
	passes := min(2, max(1, int(serviceRate*r.cfg.seconds/float64(roundSize*roundsPerPass)+0.5)))
	rounds := passes * roundsPerPass
	if r.cfg.tiny {
		rounds = 1
	}
	lateRows := 20 * halvesPerRound * rounds
	sets := []svcDataset{
		{name: "patients", table: synth.PatientDischarge(n, r.cfg.seed),
			late: synth.PatientDischarge(lateRows, r.cfg.seed+1)},
		{name: "census-hcd", table: synth.Census(n, synth.Fica, r.cfg.seed),
			late: synth.Census(lateRows, synth.Fica, r.cfg.seed+1)},
	}
	csvs := make([][]byte, len(sets))
	for i, ds := range sets {
		var b bytes.Buffer
		if err := ds.table.WriteCSV(&b); err != nil {
			return err
		}
		csvs[i] = b.Bytes()
	}
	arrivals, err := schedule(rand.New(rand.NewSource(r.cfg.seed)), sets, rounds)
	if err != nil {
		return err
	}
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 2 * time.Minute}

	// Set-up, fullSetupReps times: a fresh server, the four registrations,
	// and one job per warm point, which runs cold and seeds the engine's warm
	// cache. The last server is the one measured.
	var (
		srv           *svcServer
		seedJobs      []finishedJob
		setups, seeds []float64
	)
	for i := 0; i < fullSetupReps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("stopping set-up server: %w", err)
			}
			transport.CloseIdleConnections()
		}
		runtime.GC()
		t0 := time.Now()
		if srv, err = startServer(); err != nil {
			return err
		}
		c := &svcClient{base: srv.base, http: hc}
		for j, ds := range sets {
			for _, name := range []string{ds.name, ds.name + coldSuffix} {
				code, _, body, err := c.do("POST", "/v1/datasets?name="+name, csvs[j], nil)
				if err == nil && code != http.StatusCreated {
					err = fmt.Errorf("status %d: %s", code, body)
				}
				if err != nil {
					srv.stop()
					return fmt.Errorf("registering %s: %w", name, err)
				}
			}
		}
		t1 := time.Now()
		seedJobs = seedJobs[:0]
		for _, wp := range warmPoints {
			a := arrival{kind: arriveRelease, ds: sets[wp.ds].name, spec: wp.spec, key: pointKey(sets[wp.ds].name, wp.spec)}
			a.body = submitBody(a.ds, wp.spec, false)
			fj, body, err := c.collect(c.send(a, time.Now()), nil)
			r.op("seed job "+a.key, err)
			if err == nil {
				fj.result = body
				seedJobs = append(seedJobs, fj)
			}
		}
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		seeds = append(seeds, ms(t2.Sub(t1)))
	}
	defer srv.stop()
	c := &svcClient{base: srv.base, http: hc}
	rowsAt := map[string]map[int]int{}
	for _, ds := range sets {
		rowsAt[ds.name] = map[int]int{0: ds.table.Len()}
		rowsAt[ds.name+coldSuffix] = map[int]int{0: ds.table.Len()}
	}

	// Timed phase.
	before := readRuntime()
	jobs := make(chan sent, len(arrivals)) // one slot per arrival: the generator never waits on the collector
	collected := make(chan []finishedJob, 1)
	var collectErrs []error
	// Result bodies are read into reused buffers, so the client allocates
	// little on the heap it shares with the server.
	last := map[string]*bytes.Buffer{} // the latest result per warm point, by key
	go func() {
		var out []finishedJob
		var scratch bytes.Buffer
		held := map[string]int{}
		nHeld := 0
		for s := range jobs {
			fj, body, err := c.collect(s, &scratch)
			if err != nil {
				collectErrs = append(collectErrs, fmt.Errorf("%s: %w", s.a.key, err))
				continue
			}
			key := s.a.key
			if fj.doc.Cached {
				key += "/cached"
			}
			if nHeld < maxHeld && held[key] < perKeyHeld {
				fj.result = bytes.Clone(body)
				held[key]++
				nHeld++
			}
			if s.a.kind == arriveRelease {
				if last[s.a.key] == nil {
					last[s.a.key] = new(bytes.Buffer)
				}
				last[s.a.key].Reset()
				last[s.a.key].Write(body)
			}
			out = append(out, fj)
		}
		collected <- out
	}()
	var appends []sent
	phase := time.Now()
	for _, a := range arrivals {
		due := phase.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := c.send(a, due)
		if a.kind == arriveAppend {
			appends = append(appends, s)
			continue
		}
		if s.err != nil || (s.status != http.StatusAccepted && s.status != http.StatusOK) {
			r.op("submit "+a.key, fmt.Errorf("status %d: %v %s", s.status, s.err, s.body))
			continue
		}
		jobs <- s
	}
	close(jobs)
	done := <-collected
	phaseS := time.Since(phase).Seconds()
	after := readRuntime()
	for _, err := range collectErrs {
		r.op("job", err)
	}
	_, _, mbody, merr := c.do("GET", "/metrics", nil, nil)

	// Everything below runs after the timed phase.
	var appendMS, appendRT, late []float64
	for _, s := range appends {
		var doc struct {
			Rows  int `json:"rows"`
			Epoch int `json:"epoch"`
		}
		err := s.err
		if err == nil && s.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", s.status, s.body)
		}
		if err == nil {
			err = json.Unmarshal(s.body, &doc)
		}
		r.op("append "+s.a.ds, err)
		if err != nil {
			continue
		}
		rowsAt[s.a.ds][doc.Epoch] = doc.Rows
		appendMS = append(appendMS, ms(s.end.Sub(s.due)))
		appendRT = append(appendRT, ms(s.end.Sub(s.sendAt)))
		late = append(late, ms(s.sendAt.Sub(s.due)))
		if r.tr.on {
			op := r.tr.newOp()
			root := r.tr.record(op, 0, "serve.append_op", s.due, s.end)
			r.tr.record(op, root, "loadgen.late", s.due, s.sendAt)
			r.tr.record(op, root, "serve.append", s.sendAt, s.end)
		}
	}

	var cachedMS, computedMS, coldMS []float64
	var relMS, submitMS, queueMS, runMS, fetchMS, engineMS, assessMS []float64
	check := func(fj finishedJob, timed bool) {
		if fj.result == nil {
			return
		}
		doc, err := verifyResult(fj.result, fj.s.a, rowsAt)
		r.op("verify "+fj.s.a.key, err)
		if err != nil {
			return
		}
		if timed && !doc.Cached {
			engineMS = append(engineMS, doc.ElapsedMS)
			assessMS = append(assessMS, fj.doc.RunMS-doc.ElapsedMS)
		}
	}
	for _, fj := range seedJobs {
		check(fj, false)
	}
	for _, fj := range done {
		r.op("release "+fj.s.a.key, nil)
		lat := ms(fj.finished.Sub(fj.s.due)) + fj.fetchMS
		relMS = append(relMS, lat)
		switch {
		case fj.doc.Cached:
			cachedMS = append(cachedMS, lat)
		case fj.s.a.kind == arriveCold:
			coldMS = append(coldMS, lat)
			computedMS = append(computedMS, lat)
		default:
			computedMS = append(computedMS, lat)
		}
		submitMS = append(submitMS, ms(fj.s.end.Sub(fj.s.sendAt)))
		late = append(late, ms(fj.s.sendAt.Sub(fj.s.due)))
		fetchMS = append(fetchMS, fj.fetchMS)
		if !fj.doc.Cached {
			queueMS = append(queueMS, ms(fj.started.Sub(fj.submit)))
			runMS = append(runMS, fj.doc.RunMS)
		}
		check(fj, true)
		if r.tr.on {
			r.traceJob(fj)
		}
	}

	var pointSSE []float64
	for _, wp := range warmPoints {
		a := arrival{ds: sets[wp.ds].name, spec: wp.spec}
		key := pointKey(a.ds, a.spec)
		body, ok := last[key]
		if !ok {
			continue
		}
		doc, err := verifyResult(body.Bytes(), a, rowsAt)
		r.op("verify latest "+key, err)
		if err == nil {
			pointSSE = append(pointSSE, doc.SSE)
		}
	}

	// The heap is measured once the benchmark has let go of its own memory
	// (the generated tables and the held result bodies), so it is the
	// server's heap at the end of the timed phase: nothing has changed the
	// server's state since.
	for i := range done {
		done[i].result = nil
	}
	seedJobs, last, sets, csvs = nil, nil, nil, nil
	heap := liveHeapMB()
	runtime.KeepAlive(srv)
	r.metric("setup_s", median(setups), fmt.Sprintf(
		"median of %d: server start + 4 CSV registrations + %d seed jobs", fullSetupReps, len(warmPoints)))
	r.metric("release_geomean_ms", geomean(relMS), fmt.Sprintf("n=%d releases, due to document received; p50 %.2f, mean %.2f", len(relMS), median(relMS), mean(relMS)))
	r.metric("append_p50_ms", median(appendMS), fmt.Sprintf("n=%d appends, due to response", len(appendMS)))
	r.metric("sse", mean(pointSSE), fmt.Sprintf("mean over %d warm points of their latest release", len(pointSSE)))
	r.metric("live_heap_mb", heap, "after forced GC, server live")
	ct, kt := tailOf(computedMS), tailOf(cachedMS)
	r.note("computed_p50_ms", median(computedMS), "ms", fmt.Sprintf("n=%d engine-computed; tail %.2f (%v)", len(computedMS), ct.value, ct))
	r.note("cached_p50_ms", median(cachedMS), "ms", fmt.Sprintf("n=%d cache hits; tail %.2f (%v)", len(cachedMS), kt.value, kt))
	r.note("cold_p50_ms", median(coldMS), "ms", fmt.Sprintf("n=%d cold", len(coldMS)))
	r.note("arrival_rate", serviceRate, "1/s", fmt.Sprintf("%d arrivals, Poisson", len(arrivals)))
	r.note("worker_busy", sum(runMS)/1e3/(2*phaseS), "1", "job run time over 2 workers x timed phase")

	var m struct {
		Runs        float64 `json:"runs"`
		Shed        float64 `json:"shed"`
		CacheHits   float64 `json:"cache_hits"`
		CacheMisses float64 `json:"cache_misses"`
		WarmHits    float64 `json:"warm_hits"`
		WarmMisses  float64 `json:"warm_misses"`
	}
	if merr == nil {
		merr = json.Unmarshal(mbody, &m)
	}
	r.op("metrics", merr)
	relTail, appendTail := tailOf(relMS), tailOf(appendMS)
	r.layerMetric("core.release_tail_ms", relTail.value, relTail.String())
	r.layerMetric("core.epoch_geomean_ms", geomean(appendMS), fmt.Sprintf("n=%d appends, due to response", len(appendMS)))
	r.layerMetric("core.epoch_tail_ms", appendTail.value, appendTail.String())
	r.layerMetric("core.seed_release_ms", median(seeds), fmt.Sprintf("median over set-ups of %d seed jobs, submit to result", len(warmPoints)))
	r.layerMetric("core.warm_hit_ratio", m.WarmHits/max(m.WarmHits+m.WarmMisses, 1),
		fmt.Sprintf("%.0f warm-seeded of %.0f warm-requested runs", m.WarmHits, m.WarmHits+m.WarmMisses))
	r.layerMetric("core.warm_requests", m.WarmHits+m.WarmMisses, "base of core.warm_hit_ratio")
	for _, l := range []struct {
		name string
		xs   []float64
	}{
		{"serve.submit_ms", submitMS}, {"serve.queue_wait_ms", queueMS}, {"serve.run_ms", runMS},
		{"serve.engine_ms", engineMS}, {"serve.assess_ms", assessMS}, {"serve.result_fetch_ms", fetchMS},
		{"serve.append_ms", appendRT},
	} {
		t := tailOf(l.xs)
		r.layerMetric(l.name+".p50", median(l.xs), fmt.Sprintf("n=%d", len(l.xs)))
		r.layerMetric(l.name+".tail", t.value, t.String())
	}
	r.layerMetric("serve.cache_hit_ratio", m.CacheHits/max(m.CacheHits+m.CacheMisses, 1),
		fmt.Sprintf("%.0f hits of %.0f lookups", m.CacheHits, m.CacheHits+m.CacheMisses))
	r.layerMetric("serve.cache_lookups", m.CacheHits+m.CacheMisses, "base of serve.cache_hit_ratio")
	r.layerMetric("serve.engine_runs", m.Runs, "")
	r.layerMetric("serve.shed", m.Shed, fmt.Sprintf("of %d submissions", len(arrivals)-len(appends)+len(warmPoints)))
	lateT := sorted(late)
	r.layerMetric("loadgen.late_ms.p50", median(late), fmt.Sprintf("n=%d", len(late)))
	if len(lateT) > 0 {
		r.layerMetric("loadgen.late_ms.max", lateT[len(lateT)-1], "")
	}
	r.runtimeMetrics(before, after, len(arrivals))
	if r.tr.on {
		r.layerMetric("trace.spans", float64(len(r.tr.spans)), "")
	}
	return nil
}

// A round is the unit of the arrival mix: three requests at every warm
// point, two appends to each dataset and one cold request, so three
// quarters of the arrivals are warm-point releases, a fifth appends and a
// twentieth cold. It comes in two halves, each with one append per dataset;
// the cold request goes to a seeded half. In a half, a dataset's append
// comes before that dataset's releases, and every warm point is asked for
// once or twice (1+2 or 2+1 over the round); beyond that the order is
// seeded. So each warm point is computed twice a round, once after each
// append, and served from the result cache once, unless a request arrives
// while the one before it at its point still runs. Under a free shuffle
// the share of cache hits moved the release mean and the server's heap
// (which keeps every finished job's result) by about a tenth between
// seeds. Every run is a whole number of rounds and of passes through
// coldSpecs, so runs on different seeds carry the same mix.
const (
	perPointPerRound = 3
	halvesPerRound   = 2
	coldsPerRound    = 1
)

// coldSpecs are the cold requests off the warm set. They go to their own
// copies of the two tables (the "-adhoc" datasets), so a cold job
// competes with warm jobs for the two job workers but never holds a warm
// dataset's run lock: a few hundred milliseconds of lock hold would
// otherwise decide most of the warm tail, and differently on every seed.
var coldSpecs = func() []core.Spec {
	var out []core.Spec
	for _, t := range []float64{.10, .20, .30} {
		for i, k := range []int{3, 4, 6, 8} {
			alg := core.TClosenessFirst
			if i%2 == 1 {
				alg = core.Merge
			}
			out = append(out, core.Spec{Algorithm: alg, K: k, T: t})
		}
	}
	return out
}()

// roundSize is the number of arrivals in a round: the releases, an append
// to each of the two datasets per half, and the cold requests.
var roundSize = perPointPerRound*len(warmPoints) + halvesPerRound*2 + coldsPerRound

// slot is one arrival of a round before it is drawn in full.
type slot struct {
	kind arrivalKind
	idx  int // warm point, dataset or cold spec
}

// schedule draws the timed phase's arrivals: rounds of the fixed mix in a
// seeded order, at seeded exponential gaps averaging 1/serviceRate.
func schedule(rng *rand.Rand, sets []svcDataset, rounds int) ([]arrival, error) {
	next := make([]int, len(sets)) // next unused late row per dataset
	var coldOrder []int            // one seeded permutation of coldSpecs per pass
	for len(coldOrder) < rounds*coldsPerRound {
		coldOrder = append(coldOrder, rng.Perm(len(coldSpecs))...)
	}
	var out []arrival
	at := time.Duration(0)
	for round := 0; round < rounds; round++ {
		first := make([]int, len(warmPoints)) // requests per point in the first half
		for p := range first {
			first[p] = 1 + rng.Intn(perPointPerRound-1)
		}
		coldHalf := rng.Intn(halvesPerRound)
		for half := 0; half < halvesPerRound; half++ {
			seqs := make([][]slot, 0, len(sets)+1)
			for d := range sets {
				var rel []slot
				for p, wp := range warmPoints {
					n := first[p]
					if half > 0 {
						n = perPointPerRound - first[p]
					}
					for i := 0; wp.ds == d && i < n; i++ {
						rel = append(rel, slot{arriveRelease, p})
					}
				}
				rng.Shuffle(len(rel), func(i, j int) { rel[i], rel[j] = rel[j], rel[i] })
				seqs = append(seqs, append([]slot{{arriveAppend, d}}, rel...))
			}
			if half == coldHalf {
				for i := 0; i < coldsPerRound; i++ {
					seqs = append(seqs, []slot{{arriveCold, coldOrder[round*coldsPerRound+i]}})
				}
			}
			for _, sl := range interleave(rng, seqs) {
				at += time.Duration(rng.ExpFloat64() / serviceRate * float64(time.Second))
				a := arrival{due: at, kind: sl.kind}
				switch sl.kind {
				case arriveRelease:
					wp := warmPoints[sl.idx]
					a.ds, a.spec = sets[wp.ds].name, wp.spec
					a.key = pointKey(a.ds, wp.spec)
					a.body = submitBody(a.ds, wp.spec, false)
				case arriveAppend:
					size := 1 + rng.Intn(20)
					a.ds = sets[sl.idx].name
					body, err := json.Marshal(map[string]any{"rows": epochBatch(sets[sl.idx].late, next[sl.idx], size)})
					if err != nil {
						return nil, err
					}
					next[sl.idx] += size
					a.body = body
				case arriveCold:
					// The dataset alternates with the pass, so no cold request
					// repeats an earlier one and hits the result cache.
					spec := coldSpecs[sl.idx]
					pass := round * coldsPerRound / len(coldSpecs)
					a.ds, a.spec = sets[(sl.idx+pass)%len(sets)].name+coldSuffix, spec
					a.key = pointKey(a.ds, spec) + "/cold"
					a.body = submitBody(a.ds, spec, true)
				}
				out = append(out, a)
			}
		}
	}
	return out, nil
}

// interleave merges the sequences in a seeded order that keeps the order
// within each: every interleaving is equally likely.
func interleave(rng *rand.Rand, seqs [][]slot) []slot {
	left := 0
	for _, sq := range seqs {
		left += len(sq)
	}
	out := make([]slot, 0, left)
	for ; left > 0; left-- {
		i := rng.Intn(left)
		for j := range seqs {
			if i < len(seqs[j]) {
				out = append(out, seqs[j][0])
				seqs[j] = seqs[j][1:]
				break
			}
			i -= len(seqs[j])
		}
	}
	return out
}

func pointKey(ds string, spec core.Spec) string {
	return fmt.Sprintf("%s/%v/k%d/t%v", ds, spec.Algorithm, spec.K, spec.T)
}

func submitBody(ds string, spec core.Spec, cold bool) []byte {
	alg, _ := spec.Algorithm.MarshalText() // the three paper algorithms always marshal
	b, _ := json.Marshal(map[string]any{"dataset": ds, "algorithm": string(alg), "k": spec.K, "t": spec.T, "cold": cold})
	return b
}

// send issues one arrival. Response bodies are kept unparsed.
func (c *svcClient) send(a arrival, due time.Time) sent {
	s := sent{a: a, due: due, sendAt: time.Now()}
	if a.kind == arriveAppend {
		s.status, _, s.body, s.err = c.do("POST", "/v1/datasets/"+a.ds+"/rows", a.body, nil)
	} else {
		var h http.Header
		s.status, h, s.body, s.err = c.do("POST", "/v1/jobs", a.body, nil)
		if h != nil {
			s.location = h.Get("Location")
		}
	}
	s.end = time.Now()
	return s
}

// collect waits for a submitted job to finish and fetches its result
// document, which it returns unparsed (read into buf when non-nil, so the
// caller must copy what it keeps).
func (c *svcClient) collect(s sent, buf *bytes.Buffer) (finishedJob, []byte, error) {
	fj := finishedJob{s: s}
	if s.err != nil {
		return fj, nil, s.err
	}
	path := s.location
	if s.status == http.StatusOK { // answered from the result cache
		if err := json.Unmarshal(s.body, &fj.doc); err != nil {
			return fj, nil, fmt.Errorf("decoding cached status: %w", err)
		}
		path = fmt.Sprintf("/v1/jobs/%d", fj.doc.ID)
	}
	if path == "" {
		return fj, nil, fmt.Errorf("submission answered %d with no job", s.status)
	}
	for fj.doc.State != "done" {
		code, _, body, err := c.do("GET", path, nil, nil)
		if err != nil {
			return fj, nil, err
		}
		if code != http.StatusOK {
			return fj, nil, fmt.Errorf("polling %s: status %d", path, code)
		}
		if err := json.Unmarshal(body, &fj.doc); err != nil {
			return fj, nil, fmt.Errorf("decoding status: %w", err)
		}
		switch fj.doc.State {
		case "failed", "canceled":
			return fj, nil, fmt.Errorf("job %s: %s", fj.doc.State, fj.doc.Error)
		case "done":
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
	var err error
	if fj.submit, err = time.Parse(time.RFC3339Nano, fj.doc.Submitted); err != nil {
		return fj, nil, err
	}
	if fj.finished, err = time.Parse(time.RFC3339Nano, fj.doc.Finished); err != nil {
		return fj, nil, err
	}
	fj.started = fj.finished.Add(-time.Duration(fj.doc.RunMS * float64(time.Millisecond)))
	t0 := time.Now()
	code, _, body, err := c.do("GET", path+"/result", nil, buf)
	fj.fetchMS = ms(time.Since(t0))
	if err != nil {
		return fj, nil, err
	}
	if code != http.StatusOK {
		return fj, nil, fmt.Errorf("fetching result: status %d", code)
	}
	return fj, body, nil
}

// verifyResult parses a held result document, checks that it answers the
// request it was fetched for (dataset, algorithm, k and t), and checks its
// release against the requested k and t and the rows of the epoch it names.
func verifyResult(body []byte, a arrival, rowsAt map[string]map[int]int) (resultDoc, error) {
	var doc resultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("decoding result: %w", err)
	}
	alg, err := core.ParseAlgorithm(doc.Algorithm)
	if err != nil {
		return doc, err
	}
	if doc.Dataset != a.ds || alg != a.spec.Algorithm || doc.K != a.spec.K || doc.T != a.spec.T {
		return doc, fmt.Errorf("result for %s %v k=%d t=%v answers a request for %s %v k=%d t=%v",
			doc.Dataset, alg, doc.K, doc.T, a.ds, a.spec.Algorithm, a.spec.K, a.spec.T)
	}
	rows, ok := rowsAt[a.ds][doc.Epoch]
	if !ok {
		return doc, fmt.Errorf("%s epoch %d was never acknowledged", a.ds, doc.Epoch)
	}
	pub, err := dataset.ReadCSV(strings.NewReader(doc.ReleaseCSV))
	if err != nil {
		return doc, fmt.Errorf("parsing release: %w", err)
	}
	warm := len(doc.Warm) > 0 && string(doc.Warm) != "null"
	return doc, checkRelease(pub, expect{alg: a.spec.Algorithm, k: a.spec.K, t: a.spec.T, warm: warm, effK: doc.EffectiveK, rows: rows})
}

// traceJob records a release as derived spans: the generator's lateness,
// the submission, the queue wait and run from the job record (split into
// engine and the rest for checked results), and the client-timed fetch.
// They are laid end to end from the due time, so they sum to the latency.
func (r *run) traceJob(fj finishedJob) {
	op := r.tr.newOp()
	lat := ms(fj.finished.Sub(fj.s.due)) + fj.fetchMS
	root := r.tr.add(span{Op: op, Name: "serve.release", Start: r.tr.at(fj.s.due), End: r.tr.at(fj.s.due) + lat})
	parts := []namedDur{
		{"loadgen.late", ms(fj.s.sendAt.Sub(fj.s.due))},
		{"serve.submit", ms(fj.submit.Sub(fj.s.sendAt))},
		{"serve.queue_wait", ms(fj.started.Sub(fj.submit))},
		{"serve.run", fj.doc.RunMS},
		{"serve.result_fetch", fj.fetchMS},
	}
	r.tr.derive(root, parts)
}
