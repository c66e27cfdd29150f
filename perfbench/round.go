package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"cjdbc"
	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/cache"
	"cjdbc/internal/controller"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
)

// runConfig is what one run varies: the seed, the client count, whether the
// layer seams are traced, and the amount of data and work per round.
type runConfig struct {
	seed      int64
	clients   int
	traced    bool
	sizes     sizes
	perClient int
}

// cluster is one round's controller, virtual database and backend engines.
type cluster struct {
	w       *workload
	ctrl    *cjdbc.Controller
	vdb     *cjdbc.VirtualDatabase
	engines map[string]*sqlengine.Engine
}

// vdbName names the benchmark's virtual database.
const vdbName = "bench"

// newCluster builds the paper's §6 configuration: LPRF balancing, early
// response to the first backend, parallel transactions and an in-memory
// recovery log; service cost stays off. In a traced round the driver, log
// and balancer are wrapped at their public seams.
func newCluster(w *workload, p *probe) (*cluster, error) {
	var repl balancer.Replication
	if w.partial != nil {
		repl = balancer.NewPartialReplication(w.partial)
	}
	bal, err := balancer.New("lprf")
	if err != nil {
		return nil, err
	}
	var log recovery.Log = recovery.NewMemoryLog()
	if p.traced {
		bal = &tracedBalancer{Balancer: bal, p: p}
		log = &tracedLog{Log: log, p: p}
	}
	var rc *cache.ResultCache
	if w.cache {
		rc = cache.New(cache.Config{Granularity: cache.GranTable, MaxEntries: 16384})
	}
	ctrl := cjdbc.NewController("perfbench", 1)
	c := &cluster{w: w, ctrl: ctrl, engines: map[string]*sqlengine.Engine{}}
	if _, err := ctrl.Internal().AddVirtualDatabase(controller.VDBConfig{
		Name:          vdbName,
		Replication:   repl,
		Balancer:      bal,
		Cache:         rc,
		RecoveryLog:   log,
		EarlyResponse: controller.ResponseFirst,
		ParallelTx:    true,
	}); err != nil {
		ctrl.Close()
		return nil, err
	}
	if c.vdb, err = ctrl.VirtualDatabase(vdbName); err != nil {
		ctrl.Close()
		return nil, err
	}
	for _, name := range w.backends {
		eng := sqlengine.New(name)
		c.engines[name] = eng
		var drv backend.Driver = &backend.EngineDriver{Engine: eng}
		if p.traced {
			drv = &tracedDriver{schemaDriver: &backend.EngineDriver{Engine: eng}, p: p}
		}
		if err := c.vdb.Internal().AddBackend(backend.New(backend.Config{Name: name, Driver: drv})); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) close() {
	c.ctrl.Close()
	for _, e := range c.engines {
		e.Close()
	}
}

// drain waits until every backend has applied the writes enqueued on it.
// Early response acknowledges a write once the first backend applied it, so
// the others may still be working when the client sees the reply; the
// checks read the engines only after this.
func (c *cluster) drain() {
	for _, b := range c.vdb.Internal().Backends() {
		b.DrainWrites()
	}
}

// backendTotals sums the backends' operation and failure counters.
func (c *cluster) backendTotals() (ops, failures int64) {
	for _, b := range c.vdb.Internal().Backends() {
		ops += b.Ops()
		failures += b.Failures()
	}
	return ops, failures
}

// roundResult is one round's verdict, operation counts and metrics.
type roundResult struct {
	attempted, failed int
	correct           bool
	stale             int // stale reads, counted apart from failures
	metrics           map[string]float64
	spans             []span // traced rounds only
}

// samples are latencies of interactions (ms) and of read and write
// statements (us).
type samples struct {
	interMs, readUs, writeUs []float64
}

func (s *samples) add(o samples) {
	s.interMs = append(s.interMs, o.interMs...)
	s.readUs = append(s.readUs, o.readUs...)
	s.writeUs = append(s.writeUs, o.writeUs...)
}

// latencyMetrics computes the latency metrics from samples.
func latencyMetrics(m map[string]float64, s samples) {
	m["interaction_p50_ms"] = quantile(s.interMs, 0.50)
	m["interaction_p99_ms"] = quantile(s.interMs, 0.99)
	m["read_p50_us"] = quantile(s.readUs, 0.50)
	m["write_p50_us"] = quantile(s.writeUs, 0.50)
}

func (rr roundResult) summary(r int, d time.Duration) string {
	keys := make([]string, 0, len(rr.metrics))
	for k := range rr.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := fmt.Sprintf("# round %d wall_s=%.2f attempted=%d failed=%d stale_reads=%d correct=%t", r, d.Seconds(), rr.attempted, rr.failed, rr.stale, rr.correct)
	for _, k := range keys {
		out += fmt.Sprintf(" %s=%.4g", k, rr.metrics[k])
	}
	return out
}

// seedFor derives an independent seed for one part of one round (the
// loader is part -1, client i is part i) from the workload seed.
func seedFor(seed int64, round, part int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(round)*0xBF58476D1CE4E5B9 + uint64(part+2)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return int64(x >> 1)
}

// runRound builds a cluster, loads it, backs one backend up, runs the
// round's traffic, checks the outcome and re-integrates the backed-up
// backend. Errors are faults of the set-up itself; failed interactions,
// failed checks and a failed re-integration are counted in the result.
func runRound(w *workload, cfg runConfig, round int, stderr io.Writer) (roundResult, error) {
	p := newProbe(cfg.traced)
	rr := roundResult{correct: true, metrics: map[string]float64{}}
	fail := func(what string, details []string) {
		rr.failed++
		fmt.Fprintf(stderr, "perfbench: %s round %d: %s failed (%d differences)\n", w.name, round, what, len(details))
		for i, d := range details {
			if i == 5 {
				fmt.Fprintf(stderr, "  ...\n")
				break
			}
			fmt.Fprintf(stderr, "  %s\n", d)
		}
	}

	// Set-up: schema and data through the virtual database, then the
	// online backup of the target backend.
	c, err := newCluster(w, p)
	if err != nil {
		return rr, err
	}
	defer c.close()
	ph := p.beginPhase()
	t0 := time.Now()
	loader, err := c.vdb.OpenSession("load", "")
	if err != nil {
		return rr, err
	}
	err = w.load(loader, cfg.sizes, seedFor(cfg.seed, round, -1))
	loader.Close()
	if err != nil {
		return rr, err
	}
	dump, err := c.vdb.BackupBackend(w.target, fmt.Sprintf("round%d", round))
	if err != nil {
		return rr, err
	}
	rr.metrics["setup_s"] = time.Since(t0).Seconds()
	p.endPhase(ph)
	c.drain()
	loaded, err := rowCounts(c.engines[w.peer])
	if err != nil {
		return rr, err
	}

	sessions := make([]*session, cfg.clients)
	clients := make([]interactor, cfg.clients)
	for i := range sessions {
		inner, err := c.vdb.OpenSession(fmt.Sprintf("client%d", i), "")
		if err != nil {
			return rr, err
		}
		sessions[i] = newSession(inner, w, cfg.sizes, p)
		rng := rand.New(rand.NewSource(seedFor(cfg.seed, round, i)))
		clients[i] = w.newClient(i, sessions[i], cfg.sizes, rng, idBase(loaded, i))
	}
	plansBefore := c.vdb.Internal().PlanCache().StatsSnapshot()
	var cacheBefore cache.Stats
	if rc := c.vdb.Internal().Cache(); rc != nil {
		cacheBefore = rc.StatsSnapshot()
	}
	opsBefore, failuresBefore := c.backendTotals()

	// Traffic: each client runs a fixed number of interactions, sending
	// the next only after the previous one's reply.
	runtime.GC()
	proc := readProcess()
	ph = p.beginPhase()
	interMs := make([][]float64, cfg.clients)
	errs := make([][]string, cfg.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sessions[i]
			lat := make([]float64, 0, cfg.perClient)
			for k := 0; k < cfg.perClient; k++ {
				s.parent = p.open(spanInteraction, ph)
				t := time.Now()
				_, err := clients[i].Interaction()
				d := time.Since(t)
				p.close(s.parent)
				if err != nil {
					errs[i] = append(errs[i], err.Error())
					continue
				}
				lat = append(lat, float64(d)/1e6)
			}
			interMs[i] = lat
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	p.endPhase(ph)
	proc = readProcess().minus(proc)
	c.drain()

	stmts := 0
	var lat samples
	led := newLedger()
	var mismatches, stale, failedInteractions []string
	for i, s := range sessions {
		stmts += s.stmts
		lat.add(samples{interMs[i], s.readUs, s.writeUs})
		led.merge(&s.led)
		mismatches = append(mismatches, s.mismatch...)
		stale = append(stale, s.stale...)
		failedInteractions = append(failedInteractions, errs[i]...)
		s.Close()
	}
	rr.attempted = cfg.clients*cfg.perClient + 1 // every interaction, plus the re-integration
	rr.failed = len(failedInteractions)
	if len(failedInteractions) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s round %d: %d interactions failed, first: %s\n", w.name, round, len(failedInteractions), failedInteractions[0])
	}
	if len(mismatches) > 0 {
		rr.correct = false
		fmt.Fprintf(stderr, "perfbench: %s round %d: %d reads failed online checks, first: %s\n", w.name, round, len(mismatches), mismatches[0])
	}
	if stmts == 0 || len(lat.interMs) == 0 || len(lat.readUs) == 0 || len(lat.writeUs) == 0 {
		return rr, fmt.Errorf("traffic completed no statements")
	}
	rr.metrics["sql_rps"] = float64(stmts) / elapsed.Seconds()
	latencyMetrics(rr.metrics, lat)
	rr.metrics["live_heap_mb"] = liveHeapMB()

	// Per-layer counters of the traffic phase, read before the checks'
	// own reads move them.
	tr := trafficCounters{stmts: stmts, elapsed: elapsed, proc: proc}
	tr.plans = diffPlans(c.vdb.Internal().PlanCache().StatsSnapshot(), plansBefore)
	if rc := c.vdb.Internal().Cache(); rc != nil {
		tr.cache = diffCache(rc.StatsSnapshot(), cacheBefore)
	}
	ops, failures := c.backendTotals()
	tr.backendOps, tr.backendFailures = ops-opsBefore, failures-failuresBefore
	if cfg.traced {
		entries, err := c.vdb.Internal().RecoveryLog().(*tracedLog).Log.Since(0)
		if err != nil {
			return rr, err
		}
		tr.logEntries = len(entries)
	}

	// Independent checks of the state traffic left behind.
	invariants, staleFinal := w.final(c, &led)
	rr.stale = len(stale) + staleFinal
	rr.metrics["controller.stale_reads"] = float64(rr.stale)
	if rr.stale > 0 {
		first := "a read after traffic"
		if len(stale) > 0 {
			first = stale[0]
		}
		fmt.Fprintf(stderr, "perfbench: %s round %d: %d stale reads (%d online, %d after traffic), first: %s\n", w.name, round, rr.stale, len(stale), staleFinal, first)
	}
	checks := []struct {
		what    string
		details []string
	}{
		{"replica equality", replicasAgree(c)},
		{"row-count ledger", rowCountsMatch(c, loaded, &led)},
		{"workload invariants", invariants},
		{"temporary-table cleanup", noTempTables(c)},
	}
	for _, ck := range checks {
		if len(ck.details) > 0 {
			rr.correct = false
			fail(ck.what, ck.details)
		}
	}

	// Re-integration of the backed-up backend after traffic stops: dump
	// restore plus replay of the whole traffic phase's log.
	ph = p.beginPhase()
	t0 = time.Now()
	err = c.vdb.RestoreBackend(w.target, dump)
	reint := time.Since(t0)
	p.endPhase(ph)
	rr.metrics["recovery.reintegrate_s"] = reint.Seconds()
	if err != nil {
		fail("re-integration of "+w.target, []string{err.Error()})
	} else if diff := enginesAgree(c.engines[w.target], c.engines[w.peer], hostedBy(w, w.target)); len(diff) > 0 {
		fail("re-integrated "+w.target+" equal to "+w.peer, diff)
	}

	if cfg.traced {
		layerMetrics(rr.metrics, p, sessions, tr)
		rr.spans = p.spans
	}
	return rr, nil
}

// liveHeapMB returns the live Go heap once forced collections settle it.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// process is the Go runtime's cumulative allocation and CPU accounting.
type process struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64
}

var processSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProcess() process {
	s := make([]metrics.Sample, len(processSamples))
	for i, name := range processSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return process{
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func (a process) minus(b process) process {
	return process{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
