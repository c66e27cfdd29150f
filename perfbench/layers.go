package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cjdbc/internal/cache"
	"cjdbc/internal/plancache"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the cluster sees, reported by
// untraced runs. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sql_rps", "1/s"},
	{"interaction_p50_ms", "ms"},
	{"interaction_p99_ms", "ms"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"live_heap_mb", "MB"},
}

// perLayer are the per-layer metrics of traced runs. README.md maps each
// to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"traced.sql_rps", "1/s"},
	{"controller.read_self_us", "us"},
	{"controller.write_self_us", "us"},
	{"controller.commit_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.misses", "count"},
	{"plancache.deferred", "count"},
	{"sqlparser.parse_us", "us"},
	{"sqlparser.bind_render_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.invalidations", "count"},
	{"cache.evictions", "count"},
	{"controller.stale_reads", "count"},
	{"balancer.chooses", "count"},
	{"balancer.choose_ns", "ns"},
	{"recovery.appends", "count"},
	{"recovery.append_us", "us"},
	{"recovery.log_entries", "count"},
	{"recovery.since_calls", "count"},
	{"recovery.entries_scanned_per_applied", "ratio"},
	{"recovery.reintegrate_s", "s"},
	{"backend.ops_per_sql", "ratio"},
	{"backend.conn_opens", "count"},
	{"backend.reintegrate_conn_opens", "count"},
	{"backend.failures", "count"},
	{"sqlengine.read_exec_us", "us"},
	{"sqlengine.write_exec_us", "us"},
	{"sqlengine.ddl_exec_us", "us"},
	{"sqlengine.rows_per_read", "rows"},
	{"sqlengine.close_us", "us"},
	{"sqlengine.replay_exec_s", "s"},
	{"sqlengine.replay_close_s", "s"},
	{"process.alloc_bytes_per_sql", "B"},
	{"process.mallocs_per_sql", "count"},
	{"process.gc_cpu_fraction", "ratio"},
}

// trafficCounters are the program's own counters over the traffic phase.
type trafficCounters struct {
	stmts           int
	elapsed         time.Duration
	proc            process
	plans           plancache.Stats
	cache           cache.Stats
	backendOps      int64
	backendFailures int64
	logEntries      int
}

func diffPlans(a, b plancache.Stats) plancache.Stats {
	return plancache.Stats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Puts: a.Puts - b.Puts,
		Evictions: a.Evictions - b.Evictions, Deferred: a.Deferred - b.Deferred}
}

func diffCache(a, b cache.Stats) cache.Stats {
	return cache.Stats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Puts: a.Puts - b.Puts,
		Invalidations: a.Invalidations - b.Invalidations, Evictions: a.Evictions - b.Evictions}
}

// spanSet accumulates the durations of one kind of span.
type spanSet struct {
	n     int
	total int64
	durs  []float64
	items int64
}

func (s *spanSet) add(sp span) {
	s.n++
	s.total += sp.dur()
	s.durs = append(s.durs, float64(sp.dur()))
	s.items += int64(sp.n)
}

func (s *spanSet) meanNs() float64 { return ratio(float64(s.total), float64(s.n)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics reduces a traced round's spans and counters to the
// per-layer metrics. Phases are the round's set-up, traffic and
// re-integration spans, in that order. Writes execute on backend worker
// goroutines, so an engine write span cannot be linked to the statement
// that caused it: the controller's self time is computed in aggregate, as
// statement time minus the engine time the statements cover.
func layerMetrics(m map[string]float64, p *probe, sessions []*session, tr trafficCounters) {
	var phases []int32
	for i, sp := range p.spans {
		if sp.kind == spanPhase {
			phases = append(phases, int32(i))
		}
	}
	traffic, reint := phases[1], phases[2]
	replayStart := int64(-1)
	for _, sp := range p.spans {
		if sp.kind == spanSince && sp.parent == reint && (replayStart < 0 || sp.start < replayStart) {
			replayStart = sp.start
		}
	}
	var stmt [spanInteraction]spanSet
	var exec, replay [spanClose + 1]spanSet
	var closes, appends, sinces, chooses spanSet
	var opens, reintOpens int
	for _, sp := range p.spans {
		switch {
		case sp.kind < spanInteraction:
			stmt[sp.kind].add(sp)
		case sp.kind == spanClose:
			closes.add(sp)
		}
		switch sp.parent {
		case traffic:
			switch sp.kind {
			case spanExecRead, spanExecWrite, spanExecDDL:
				exec[sp.kind].add(sp)
			case spanOpen:
				opens++
			case spanAppend:
				appends.add(sp)
			case spanChoose:
				chooses.add(sp)
			}
		case reint:
			switch sp.kind {
			case spanOpen:
				reintOpens++
			case spanSince:
				sinces.add(sp)
			case spanExecRead, spanExecWrite, spanExecDDL, spanClose:
				if replayStart >= 0 && sp.start >= replayStart {
					replay[sp.kind].add(sp)
				}
			}
		}
	}

	reads := stmt[spanStmtRead]
	m["traced.sql_rps"] = float64(tr.stmts) / tr.elapsed.Seconds()
	m["controller.read_self_us"] = ratio(float64(reads.total-exec[spanExecRead].total), float64(reads.n)) / 1e3
	m["controller.write_self_us"] = writeSelfUs(p.spans, traffic)
	m["controller.commit_us"] = quantile(stmt[spanStmtCommit].durs, 0.5) / 1e3

	m["plancache.hit_ratio"] = ratio(float64(tr.plans.Hits), float64(tr.plans.Hits+tr.plans.Misses))
	m["plancache.misses"] = float64(tr.plans.Misses)
	m["plancache.deferred"] = float64(tr.plans.Deferred)
	m["sqlparser.parse_us"], m["sqlparser.bind_render_us"] = retimeParser(sessions)

	m["cache.hit_ratio"] = ratio(float64(tr.cache.Hits), float64(tr.cache.Hits+tr.cache.Misses))
	m["cache.invalidations"] = float64(tr.cache.Invalidations)
	m["cache.evictions"] = float64(tr.cache.Evictions)

	m["balancer.chooses"] = float64(chooses.n)
	m["balancer.choose_ns"] = chooses.meanNs()

	m["recovery.appends"] = float64(appends.n)
	m["recovery.append_us"] = quantile(appends.durs, 0.5) / 1e3
	m["recovery.log_entries"] = float64(tr.logEntries)
	m["recovery.since_calls"] = float64(sinces.n)
	replayed := replay[spanExecRead].n + replay[spanExecWrite].n + replay[spanExecDDL].n
	m["recovery.entries_scanned_per_applied"] = ratio(float64(sinces.items), float64(replayed))

	m["backend.ops_per_sql"] = ratio(float64(tr.backendOps), float64(tr.stmts))
	m["backend.conn_opens"] = float64(opens)
	m["backend.reintegrate_conn_opens"] = float64(reintOpens)
	m["backend.failures"] = float64(tr.backendFailures)

	m["sqlengine.read_exec_us"] = exec[spanExecRead].meanNs() / 1e3
	m["sqlengine.write_exec_us"] = exec[spanExecWrite].meanNs() / 1e3
	m["sqlengine.ddl_exec_us"] = exec[spanExecDDL].meanNs() / 1e3
	m["sqlengine.rows_per_read"] = ratio(float64(exec[spanExecRead].items), float64(exec[spanExecRead].n))
	m["sqlengine.close_us"] = closes.meanNs() / 1e3
	m["sqlengine.replay_exec_s"] = float64(replay[spanExecRead].total+replay[spanExecWrite].total+replay[spanExecDDL].total) / 1e9
	m["sqlengine.replay_close_s"] = float64(replay[spanClose].total) / 1e9

	m["process.alloc_bytes_per_sql"] = ratio(float64(tr.proc.allocBytes), float64(tr.stmts))
	m["process.mallocs_per_sql"] = ratio(float64(tr.proc.mallocs), float64(tr.stmts))
	m["process.gc_cpu_fraction"] = ratio(tr.proc.gcCPU, tr.proc.totalCPU)
}

// writeSelfUs estimates the controller's mean self time per write
// statement. Under early response a write's reply follows the first
// backend's execution, which ran on a worker goroutine no seam links to the
// statement; the engine write ending last within the statement's span is
// taken as that execution, and the part of it inside the span is the engine
// time the statement covers.
func writeSelfUs(spans []span, traffic int32) float64 {
	var ends []int64
	byEnd := map[int64]int64{}
	for _, sp := range spans {
		if sp.parent == traffic && (sp.kind == spanExecWrite || sp.kind == spanExecDDL) {
			ends = append(ends, sp.end)
			byEnd[sp.end] = sp.start
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	var self float64
	n := 0
	for _, sp := range spans {
		if sp.kind != spanStmtWrite {
			continue
		}
		n++
		covered := int64(0)
		i := sort.Search(len(ends), func(i int) bool { return ends[i] > sp.end }) - 1
		if i >= 0 && ends[i] >= sp.start {
			covered = ends[i] - max(byEnd[ends[i]], sp.start)
		}
		self += float64(sp.dur() - covered)
	}
	return ratio(self, float64(n)) / 1e3
}

// retimeParser re-times the parser on the round's own statement stream:
// Parse on every distinct statement text (each one missed the fresh plan
// cache at least once), and Clone, BindParams and Render on the
// parameterized statements the sessions sampled. It returns microseconds
// per text and per statement.
func retimeParser(sessions []*session) (parseUs, bindUs float64) {
	const passes = 5
	texts := map[string]struct{}{}
	var bound []boundStmt
	for _, s := range sessions {
		for t := range s.texts {
			texts[t] = struct{}{}
		}
		bound = append(bound, s.bound...)
	}
	var parseNs int64
	for pass := 0; pass < passes; pass++ {
		for t := range texts {
			key := plancache.Normalize(t)
			t0 := time.Now()
			_, _ = sqlparser.Parse(key)
			parseNs += int64(time.Since(t0))
		}
	}
	type prepared struct {
		st   sqlparser.Statement
		vals []sqlval.Value
	}
	preps := make([]prepared, 0, len(bound))
	for _, b := range bound {
		st, err := sqlparser.Parse(plancache.Normalize(b.sql))
		if err != nil {
			continue
		}
		vals := make([]sqlval.Value, len(b.args))
		for i, a := range b.args {
			vals[i] = toValue(a)
		}
		preps = append(preps, prepared{st, vals})
	}
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, p := range preps {
			c := p.st.Clone()
			if sqlparser.BindParams(c, p.vals) == nil {
				_ = sqlparser.Render(c)
			}
		}
	}
	bindNs := time.Since(t0)
	parseUs = ratio(float64(parseNs), float64(passes*len(texts))) / 1e3
	bindUs = ratio(float64(bindNs), float64(passes*len(preps))) / 1e3
	return parseUs, bindUs
}

func toValue(a any) sqlval.Value {
	switch x := a.(type) {
	case int:
		return sqlval.Int(int64(x))
	case int64:
		return sqlval.Int(x)
	case float64:
		return sqlval.Float(x)
	case string:
		return sqlval.String_(x)
	case bool:
		return sqlval.Bool(x)
	case time.Time:
		return sqlval.Time(x)
	}
	return sqlval.Null
}

var spanNames = [...]string{
	spanStmtRead: "stmt.read", spanStmtWrite: "stmt.write", spanStmtBegin: "stmt.begin",
	spanStmtCommit: "stmt.commit", spanStmtRollback: "stmt.rollback", spanInteraction: "interaction",
	spanPhase: "phase", spanOpen: "backend.open", spanExecRead: "sqlengine.read",
	spanExecWrite: "sqlengine.write", spanExecDDL: "sqlengine.ddl", spanExecTx: "sqlengine.tx",
	spanClose: "sqlengine.close", spanAppend: "recovery.append", spanSince: "recovery.since",
	spanChoose: "balancer.choose",
}

// spanDir is where a traced run writes the spans of its last round, inside
// the build directory the run script uses.
const spanDir = ".bench_build/spans"

// writeSpans writes a round's spans as tab-separated lines: index, name,
// parent index, start and end in nanoseconds since the round began, and
// the rows or entries the call returned.
func writeSpans(spans []span, workload string) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spanDir, workload+".tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tname\tparent\tstart_ns\tend_ns\tn")
	for i, sp := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[sp.kind], sp.parent, sp.start, sp.end, sp.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
