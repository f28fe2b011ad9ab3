package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/gates"
	"repro/internal/noise"
	"repro/internal/qidg"
	"repro/internal/serve"
	"repro/internal/swapmap"
)

// serve-mix: an in-process qsprd (serve.New, Workers 2) on a loopback
// listener, driven by two closed-loop clients. Each client sends its
// own seeded request stream: repeats of its recent requests (raw-tier
// hits), respellings of its recent misses (canonical-tier hits),
// recalls of keys inserted long ago (a hit or a miss, as the cache's
// capacity and FIFO order decide) and never-seen misses drawn from a
// fixed template cycle. CacheEntries is far below the distinct-key
// count, so evictions run throughout.

const (
	serveWorkers      = 2
	serveLanes        = 2
	serveCacheEntries = 256
	// lanePass is the request count of one serve-mix pass of a client.
	lanePass = 100
	// recentWindow bounds how far back repeats and respellings reach.
	recentWindow = 16
	// recallMinAge and recallMaxAge bound, in the client's own misses,
	// the age of a recalled key. Each tier sees about twice that many
	// inserts (two clients), the raw tier more (respellings insert there
	// too), so with 256 entries per tier the young recalls hit either
	// tier and the old ones are mapped again.
	recallMinAge = 32
	recallMaxAge = 224
)

// Stream classes, and a block's composition: every block of ten
// requests holds 3 misses, 4 repeats, 2 respellings and 1 recall in
// seeded order. The shares are an assumption — there is no recorded
// production traffic to draw them from — chosen so that hits make up
// most requests while misses take most of the server's time.
const (
	classMiss = iota
	classRepeat
	classRespell
	classRecall
	numClasses
)

var classNames = [numClasses]string{"miss", "repeat", "respelling", "recall"}

var blockClasses = []int{classMiss, classMiss, classMiss, classRepeat, classRepeat,
	classRepeat, classRepeat, classRespell, classRespell, classRecall}

// missTemplate is one kind of never-seen request; each miss adds a
// fresh mapping seed, which makes its cache key new.
type missTemplate struct {
	circuit, fabric, heuristic string
	m                          int
	backend                    string
	noise                      bool
}

func missTemplates(short bool) []missTemplate {
	kinds := []missTemplate{
		{heuristic: "qspr-center"},
		{heuristic: "qspr", m: 2},
		{heuristic: "mc", m: 4},
		{heuristic: "qspr", m: 4, backend: "swap"},
		{heuristic: "qspr-center", noise: true},
	}
	fabrics := []struct {
		name     string
		circuits []string
	}{
		{"quale45x85", []string{"[[5,1,3]]", "[[7,1,3]]", "[[9,1,3]]", "[[14,8,3]]"}},
		{"small", []string{"[[5,1,3]]", "[[7,1,3]]"}},
	}
	var out []missTemplate
	for _, f := range fabrics {
		cs := f.circuits
		if short {
			cs = cs[:1]
		}
		for _, c := range cs {
			for _, k := range kinds {
				k.circuit, k.fabric = c, f.name
				out = append(out, k)
			}
		}
	}
	return out
}

var defaultNoise = noise.DefaultParams()

// request is the template's request with the given mapping seed.
func (t missTemplate) request(seed int64) serve.Request {
	req := serve.Request{Circuit: t.circuit, Fabric: t.fabric, Heuristic: t.heuristic, M: t.m,
		Seed: seed, Backend: t.backend}
	if t.noise {
		req.Noise = &defaultNoise
	}
	return req
}

// streamKey is one distinct mapping identity of a lane's stream, with
// what its client saw for it.
type streamKey struct {
	tmpl     int   // index into the stream's templates
	seed     int64 // mapping seed, unique to this key
	variants int   // respellings issued so far
	// sum is the digest of the key's first response; responses counts
	// its responses and mismatched those that differed from the first.
	sum                   [sha256.Size]byte
	responses, mismatched int
}

type streamReq struct {
	class int
	key   int // lane-local key id
	body  []byte
}

// stream generates one client's requests from (seed, lane).
type stream struct {
	lane     int
	rng      *rand.Rand
	tmpl     []missTemplate
	cycle    []int
	block    []int
	keys     []streamKey
	recent   []streamReq
	recentMs []int
	planned  [numClasses]int
}

func newStream(seed int64, lane int, tmpl []missTemplate) *stream {
	return &stream{lane: lane, rng: rand.New(rand.NewSource(seed*1000003 + int64(lane))), tmpl: tmpl}
}

func (s *stream) request(id int) serve.Request {
	k := s.keys[id]
	return s.tmpl[k.tmpl].request(k.seed)
}

// next returns the next request. A repeat, respelling or recall with
// nothing to draw from becomes a repeat, and a repeat with no history a
// miss.
func (s *stream) next() streamReq {
	if len(s.block) == 0 {
		s.block = append(s.block, blockClasses...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	class := s.block[0]
	s.block = s.block[1:]
	var r streamReq
	switch {
	case class == classMiss:
		r = s.miss()
	case class == classRespell && s.respell(&r):
	case class == classRecall && s.recall(&r):
	case len(s.recent) > 0:
		r = s.recent[s.rng.Intn(len(s.recent))]
		r.class = classRepeat
	default:
		r = s.miss()
	}
	s.planned[r.class]++
	s.recent = append(s.recent, r)
	if len(s.recent) > recentWindow {
		s.recent = s.recent[1:]
	}
	return r
}

func (s *stream) miss() streamReq {
	if len(s.cycle) == 0 {
		s.cycle = s.rng.Perm(len(s.tmpl))
	}
	// Seeds 2+lane+2k never repeat across lanes and never equal the
	// warm-up requests' default seed.
	s.keys = append(s.keys, streamKey{tmpl: s.cycle[0], seed: int64(2 + s.lane + 2*len(s.keys))})
	s.cycle = s.cycle[1:]
	id := len(s.keys) - 1
	s.recentMs = append(s.recentMs, id)
	if len(s.recentMs) > recentWindow {
		s.recentMs = s.recentMs[1:]
	}
	return streamReq{class: classMiss, key: id, body: mustJSON(s.request(id))}
}

// respell rewrites a recent miss in a spelling not sent before: same
// canonical identity, new raw request shape.
func (s *stream) respell(r *streamReq) bool {
	for try := 0; try < 4 && len(s.recentMs) > 0; try++ {
		id := s.recentMs[s.rng.Intn(len(s.recentMs))]
		v, ok := respelling(s.request(id), s.keys[id].variants)
		if !ok {
			continue
		}
		s.keys[id].variants++
		*r = streamReq{class: classRespell, key: id, body: mustJSON(v)}
		return true
	}
	return false
}

// recall resends, in its first spelling, a key between recallMinAge and
// recallMaxAge misses old.
func (s *stream) recall(r *streamReq) bool {
	n := len(s.keys)
	if n <= recallMinAge {
		return false
	}
	age := recallMinAge + s.rng.Intn(min(recallMaxAge, n-1)-recallMinAge+1)
	id := n - 1 - age
	*r = streamReq{class: classRecall, key: id, body: mustJSON(s.request(id))}
	return true
}

// respelling returns variant i of req: a different raw shape that
// resolves to the same canonical request.
func respelling(req serve.Request, i int) (serve.Request, bool) {
	switch i {
	case 0:
		req.Fabric = strings.ToUpper(req.Fabric)
	case 1:
		req.Heuristic = strings.ToUpper(req.Heuristic)
	case 2:
		req.Patience = 3
	case 3:
		req.Circuit = " " + req.Circuit
	case 4:
		if req.Backend == "" {
			req.Backend = "ion"
		} else {
			req.Backend = strings.ToUpper(req.Backend)
		}
	default:
		return req, false
	}
	return req, true
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err))
	}
	return b
}

// serveState is a running service with its client.
type serveState struct {
	srv     *serve.Server
	hs      *http.Server
	done    chan error
	url     string
	client  *http.Client
	tmpl    []missTemplate
	fabrics map[string]experiment.FabricChoice
}

func setupServeMix(rc *runCtx) (*serveState, error) {
	st := &serveState{tmpl: missTemplates(rc.short), fabrics: map[string]experiment.FabricChoice{}}
	start := time.Now()
	seen := map[string]bool{}
	for _, t := range st.tmpl {
		if !seen[t.circuit] {
			seen[t.circuit] = true
			if _, err := circuits.Resolve(t.circuit); err != nil {
				return nil, err
			}
		}
	}
	rc.set("circuits.resolve_ms", ms(time.Since(start)))
	start = time.Now()
	st.srv = serve.New(serve.Config{Workers: serveWorkers, CacheEntries: serveCacheEntries})
	rc.set("fabric.resolve_ms", ms(time.Since(start)))
	// The benchmark's own handles on the two fabrics, for the reference
	// maps and the layer probes.
	for _, name := range []string{"quale45x85", "small"} {
		fc, err := experiment.LoadFabric(name)
		if err != nil {
			return nil, err
		}
		st.fabrics[name] = fc
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.done = make(chan error, 1)
	go func() { st.done <- st.hs.Serve(ln) }()
	st.url = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveLanes, DisableCompression: true}}
	// Warm-up: one request per miss template (default seed) warms both
	// fabrics' route graphs on the pooled Mappers.
	for _, t := range st.tmpl {
		if _, _, err := st.post(mustJSON(t.request(0))); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	rc.ready()
	return st, nil
}

// close shuts the HTTP server down and waits for it to stop.
func (st *serveState) close() error {
	st.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// post sends one /map request and returns the body and whether it was
// a cache hit; any status but 200 is an error.
func (st *serveState) post(body []byte) ([]byte, bool, error) {
	resp, err := st.client.Post(st.url+"/map", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, resp.Header.Get("X-Cache") == "hit", nil
}

// laneResult is what one client saw during one drive. Responses are
// checked against their key's first response as they arrive
// (streamKey), so the client keeps no per-request bodies and its own
// memory grows only with the distinct keys.
type laneResult struct {
	stream     *stream
	requests   int
	sent, hits [numClasses]int
	errs       []string // the first few failed requests
	errCount   int
	hitUS      []float64
	missMS     []float64
	// hitTime and missTime sum the client-observed request times.
	hitTime, missTime time.Duration
	missed            []int32 // key id of every miss
	lastHits          [][]byte
	passWalls         []float64
	window            time.Duration
}

// drive runs both clients closed-loop for budget and returns their
// results.
func (st *serveState) drive(budget time.Duration, streams []*stream) []*laneResult {
	lanes := make([]*laneResult, len(streams))
	var wg sync.WaitGroup
	deadline := time.Now().Add(budget)
	for i := range streams {
		lr := &laneResult{stream: streams[i]}
		lanes[i] = lr
		wg.Add(1)
		go func() {
			defer wg.Done()
			laneStart := time.Now()
			passStart := laneStart
			// At least one full pass per lane, however short the budget.
			for n := 1; n <= lanePass || time.Now().Before(deadline); n++ {
				r := lr.stream.next()
				start := time.Now()
				body, hit, err := st.post(r.body)
				end := time.Now()
				lr.record(r, body, hit, err, end.Sub(start))
				if n%lanePass == 0 {
					lr.passWalls = append(lr.passWalls, end.Sub(passStart).Seconds())
					passStart = end
				}
			}
			lr.window = time.Since(laneStart)
		}()
	}
	wg.Wait()
	return lanes
}

// lastHitsKept is how many of its latest hit bodies a lane keeps for
// the no-socket handler probe.
const lastHitsKept = 32

func (lr *laneResult) record(r streamReq, body []byte, hit bool, err error, d time.Duration) {
	lr.requests++
	lr.sent[r.class]++
	if err != nil {
		lr.errCount++
		if len(lr.errs) < 5 {
			lr.errs = append(lr.errs, fmt.Sprintf("request %s: %v", r.body, err))
		}
		return
	}
	k := &lr.stream.keys[r.key]
	sum := sha256.Sum256(body)
	if k.responses == 0 {
		k.sum = sum
	} else if sum != k.sum {
		k.mismatched++
	}
	k.responses++
	if hit {
		lr.hits[r.class]++
		lr.hitUS = append(lr.hitUS, us(d))
		lr.hitTime += d
		if len(lr.lastHits) == lastHitsKept {
			lr.lastHits = lr.lastHits[1:]
		}
		lr.lastHits = append(lr.lastHits, r.body)
	} else {
		lr.missMS = append(lr.missMS, ms(d))
		lr.missTime += d
		lr.missed = append(lr.missed, int32(r.key))
	}
}

func runServeMix(rc *runCtx) error {
	st, err := setupServeMix(rc)
	if err != nil {
		return err
	}
	streams := make([]*stream, serveLanes)
	for i := range streams {
		streams[i] = newStream(rc.seed, i, st.tmpl)
	}
	var lanes, tracedLanes []*laneResult
	var cpu time.Duration
	var allocs uint64
	var heap []float64
	if rc.traced {
		lanes = st.drive(rc.budget/2, streams)
		tracedLanes = st.drive(rc.budget/2, streams)
	} else {
		// CPU time, allocations and the heap peak are taken over the
		// whole drive.
		peak := startHeapPeak()
		c0, a0 := cpuTime(), mallocs()
		lanes = st.drive(rc.budget, streams)
		cpu, allocs = cpuTime()-c0, mallocs()-a0
		peak.cut()
		heap = peak.finish()
	}
	var metricsText string
	var handlerUS []float64
	if rc.traced {
		if metricsText, err = st.scrape(); err != nil {
			st.close()
			return err
		}
		if handlerUS, err = st.handlerHits(tracedLanes); err != nil {
			st.close()
			return err
		}
	}
	if err := st.close(); err != nil {
		return err
	}
	all := append(append([]*laneResult(nil), lanes...), tracedLanes...)
	refs, err := st.checkResponses(rc, streams, all)
	if err != nil {
		return err
	}
	st.note(rc, streams, all)
	if rc.traced {
		return st.tracedMetrics(rc, lanes, tracedLanes, refs, metricsText, handlerUS)
	}

	var passWalls, hitUS, missMS []float64
	var requests int
	var window time.Duration
	for _, lr := range lanes {
		passWalls = append(passWalls, lr.passWalls...)
		hitUS = append(hitUS, lr.hitUS...)
		missMS = append(missMS, lr.missMS...)
		requests += lr.requests
		window = max(window, lr.window)
	}
	per := float64(lanePass) / float64(requests)
	rc.setMedian("peak_heap_mb", heap)
	rc.setMedian("pass_s", passWalls)
	rc.set("cpu_s", cpu.Seconds()*per)
	rc.set("allocs", float64(allocs)*per)
	rc.set("req_per_s", float64(requests)/window.Seconds())
	rc.reportLatencies(hitUS, missMS)
	return nil
}

// keyRef is one distinct request identity with its reference bytes.
type keyRef struct {
	req    serve.Request
	sum    [sha256.Size]byte
	err    error
	mapDur time.Duration
	report time.Duration
	// res is kept for the first key of each template, which the layer
	// probes of a traced run use.
	keep bool
	res  *core.Result
}

// checkResponses computes, for every distinct key any client sent, the
// reference report: a separate core.Map of the request rendered by
// serve.NewReport(...).MarshalBytes() — the bytes `qspr -report`
// writes. Every response must be 200 and byte-equal to its key's
// reference, so every hit is byte-equal to its miss: each key's
// responses were compared with its first one as they arrived, and the
// first one is compared with the reference here. Two goroutines share
// the reference work. The result is indexed by lane, then key id.
func (st *serveState) checkResponses(rc *runCtx, streams []*stream, lanes []*laneResult) ([][]*keyRef, error) {
	refs := make([][]*keyRef, len(streams))
	var todo []*keyRef
	kept := map[int]bool{}
	for i, s := range streams {
		refs[i] = make([]*keyRef, len(s.keys))
		for id, k := range s.keys {
			if k.responses == 0 {
				continue
			}
			ref := &keyRef{req: s.request(id), keep: !kept[k.tmpl]}
			kept[k.tmpl] = true
			refs[i][id] = ref
			todo = append(todo, ref)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(todo) {
					return
				}
				todo[i].err = todo[i].compute(st.fabrics)
			}
		}()
	}
	wg.Wait()
	for i, s := range streams {
		for id, k := range s.keys {
			ref := refs[i][id]
			switch {
			case ref == nil:
			case ref.err != nil:
				rc.checkMany(k.responses, k.responses, "reference for %s: %v", mustJSON(ref.req), ref.err)
			case k.sum != ref.sum:
				rc.checkMany(k.responses, k.responses, "responses to %s differ from the qspr -report bytes", mustJSON(ref.req))
			default:
				rc.checkMany(k.responses, k.mismatched, "%d responses to %s differ from the first", k.mismatched, mustJSON(ref.req))
			}
		}
	}
	for _, lr := range lanes {
		for _, e := range lr.errs {
			rc.check(false, "%s", e)
		}
		if extra := lr.errCount - len(lr.errs); extra > 0 {
			rc.checkMany(extra, extra, "%d more failed requests", extra)
		}
	}
	return refs, nil
}

// compute maps the key's request with core.Map exactly as the service
// resolves it and renders the reference report.
func (k *keyRef) compute(fabrics map[string]experiment.FabricChoice) error {
	b, err := circuits.Resolve(k.req.Circuit)
	if err != nil {
		return err
	}
	fc := fabrics[strings.ToLower(k.req.Fabric)]
	h, err := experiment.ParseHeuristic(k.req.Heuristic)
	if err != nil {
		return err
	}
	backend, err := core.CanonicalBackend(k.req.Backend)
	if err != nil {
		return err
	}
	opts := core.Options{Heuristic: h, Seeds: k.req.M, Seed: k.req.Seed, Patience: k.req.Patience, Backend: backend}
	start := time.Now()
	res, err := core.Map(b.Program, fc.Fabric, opts)
	k.mapDur = time.Since(start)
	if err != nil {
		return err
	}
	start = time.Now()
	rep, err := serve.NewReport(b.Name, fc.Name, opts, res, false, k.req.Noise)
	if err != nil {
		return err
	}
	body, err := rep.MarshalBytes()
	k.report = time.Since(start)
	if err != nil {
		return err
	}
	k.sum = sha256.Sum256(body)
	if k.keep {
		k.res = res
	}
	return nil
}

// note records the request stream: planned class shares, observed
// hits per class (a recall that missed was mapped again after its key
// was evicted from both tiers), distinct keys and the cache bound.
func (st *serveState) note(rc *runCtx, streams []*stream, lanes []*laneResult) {
	var planned, sent, hits [numClasses]int
	distinct := 0
	for _, s := range streams {
		for c := range planned {
			planned[c] += s.planned[c]
		}
		distinct += len(s.keys)
	}
	total := 0
	for _, lr := range lanes {
		for c := range sent {
			sent[c] += lr.sent[c]
			hits[c] += lr.hits[c]
			total += lr.sent[c]
		}
	}
	n := 0
	for _, p := range planned {
		n += p
	}
	var shares, observed strings.Builder
	for c := range planned {
		fmt.Fprintf(&shares, " %s=%.3f", classNames[c], float64(planned[c])/float64(n))
		fmt.Fprintf(&observed, " %s=%d/%d", classNames[c], hits[c], sent[c])
	}
	remiss := 0.0
	if sent[classRecall] > 0 {
		remiss = 1 - float64(hits[classRecall])/float64(sent[classRecall])
	}
	rc.note("stream: seed=%d lanes=%d templates=%d requests=%d planned%s; hits/sent%s; recall re-miss share=%.3f distinct_keys=%d cache_entries=%d (per tier, FIFO)",
		rc.seed, serveLanes, len(st.tmpl), total, shares.String(), observed.String(), remiss, distinct, serveCacheEntries)
}

// scrape reads the service's /metrics exposition.
func (st *serveState) scrape() (string, error) {
	resp, err := st.client.Get(st.url + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// handlerHits times Handler().ServeHTTP on a recorder — the service's
// hit path with no socket — over the lanes' latest cache hits, which
// are still cached.
func (st *serveState) handlerHits(lanes []*laneResult) ([]float64, error) {
	var bodies [][]byte
	for _, lr := range lanes {
		bodies = append(bodies, lr.lastHits...)
	}
	if len(bodies) == 0 {
		return nil, fmt.Errorf("serve-mix: no cache hits to time")
	}
	h := st.srv.Handler()
	var out []float64
	for i := 0; i < 2000; i++ {
		req := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code == http.StatusOK && rec.Header().Get("X-Cache") == "hit" {
			out = append(out, us(d))
		}
	}
	return out, nil
}

// metricValue reads one value from the /metrics exposition.
func metricValue(text, name string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok && k == name {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// tracedMetrics fills the serve-mix per-layer metrics. A request's
// layer split is: every request pays the hit path (the client-observed
// hit p50: serve.handler on a recorder, no socket, plus serve.net);
// a miss pays core.map (its key's reference map) and serve.report on
// top. Summed over the traced window's requests, that must reconcile
// with the client-observed request times.
func (st *serveState) tracedMetrics(rc *runCtx, untraced, traced []*laneResult, refs [][]*keyRef, metricsText string, handlerUS []float64) error {
	var untracedPass, tracedPass, hitUS []float64
	var observed, missLayers time.Duration
	requests := 0
	for _, lr := range untraced {
		untracedPass = append(untracedPass, lr.passWalls...)
	}
	for _, lr := range traced {
		tracedPass = append(tracedPass, lr.passWalls...)
		hitUS = append(hitUS, lr.hitUS...)
		observed += lr.hitTime + lr.missTime
		requests += lr.requests
		for _, id := range lr.missed {
			ref := refs[lr.stream.lane][id]
			missLayers += ref.mapDur + ref.report
		}
	}
	hitPath := time.Duration(median(hitUS) * float64(time.Microsecond))
	passes := float64(requests) / lanePass
	attributed := time.Duration(requests)*hitPath + missLayers
	rc.setMedian("trace.pass_s", tracedPass)
	rc.set("trace.overhead_s", median(tracedPass)-median(untracedPass))
	rc.reconcile(attributed.Seconds()/passes, observed.Seconds()/passes, "client-observed request time")

	rc.setMedian("serve.handler_hit_us", handlerUS)
	rc.set("serve.net_us", median(hitUS)-median(handlerUS))
	rc.set("serve.hits", metricValue(metricsText, "qsprd_cache_hits_total"))
	rc.set("serve.misses", metricValue(metricsText, "qsprd_cache_misses_total"))
	rc.set("serve.rejected", metricValue(metricsText, "qsprd_rejected_total"))
	rc.set("serve.hit_ratio", metricValue(metricsText, "qsprd_cache_hit_ratio"))

	var mapMS, reportUS, captureUS, pfailUS, swapMS []float64
	sim := engine.NewSim()
	for _, lane := range refs {
		for _, k := range lane {
			if k != nil {
				mapMS = append(mapMS, ms(k.mapDur))
				reportUS = append(reportUS, us(k.report))
			}
		}
	}
	// Layer probes over the first key of each miss template.
	for _, lane := range refs {
		for _, k := range lane {
			if k == nil || k.res == nil {
				continue
			}
			b, err := circuits.Resolve(k.req.Circuit)
			if err != nil {
				return err
			}
			g, err := qidg.Build(b.Program)
			if err != nil {
				return err
			}
			fab := st.fabrics[k.req.Fabric].Fabric
			switch {
			case k.req.Backend == "swap":
				start := time.Now()
				_, err := swapmap.Map(g, fab, swapmap.Options{Tech: gates.Default(), Trials: k.req.M, Seed: k.req.Seed, Workers: 1})
				if err != nil {
					return err
				}
				swapMS = append(swapMS, ms(time.Since(start)))
			case k.req.Noise != nil:
				start := time.Now()
				if _, err := noise.PFail(k.res.Mapping.Trace, g.NumQubits, *k.req.Noise); err != nil {
					return err
				}
				pfailUS = append(pfailUS, us(time.Since(start)))
			default:
				run, capt, _, err := engineProbe(sim, g, qsprConfig(fab), k.res.Mapping.Initial, 3)
				if err != nil {
					return err
				}
				captureUS = append(captureUS, us(capt-run))
			}
		}
	}
	fc := st.fabrics["quale45x85"]
	var coupleMS []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := swapmap.Couple(fc.Fabric); err != nil {
			return err
		}
		coupleMS = append(coupleMS, ms(time.Since(start)))
	}
	rg := buildRouteGraph(rc, qsprConfig(fc.Fabric))
	if err := probeRoutes(rc, rg, fc.Fabric, 200, rc.budget/20); err != nil {
		return err
	}
	rc.set("core.map_ms", mean(mapMS))
	rc.set("serve.report_us", mean(reportUS))
	rc.set("engine.capture_us", mean(captureUS))
	rc.set("noise.pfail_us", mean(pfailUS))
	rc.set("swapmap.map_ms", mean(swapMS))
	rc.setMedian("swapmap.couple_ms", coupleMS)

	var hitT, missT time.Duration
	for _, lr := range traced {
		hitT += lr.hitTime
		missT += lr.missTime
	}
	ot := observed.Seconds()
	rc.note("attribution of traced client-observed request time (%.3fs over %d lanes): hits %.2f%% (serve.handler ≈ %.1fus each, rest net) misses %.2f%% (core.map ≈ %.3fms, serve.report ≈ %.1fus each, rest serve+net)",
		ot, len(traced), share(hitT.Seconds(), ot), median(handlerUS), share(missT.Seconds(), ot), mean(mapMS), mean(reportUS))
	return nil
}
