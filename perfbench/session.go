package main

import (
	"errors"
	"strings"
	"time"

	"cjdbc"
)

// stmtKind classifies a client statement by its leading keyword, which is
// all the ledger and the latency split need.
type stmtKind uint8

const (
	stmtRead stmtKind = iota
	stmtWrite
	stmtBegin
	stmtCommit
	stmtRollback
)

func classify(sql string) stmtKind {
	word := sql
	if i := strings.IndexAny(sql, " \t\n("); i >= 0 {
		word = sql[:i]
	}
	switch strings.ToUpper(word) {
	case "SELECT":
		return stmtRead
	case "BEGIN":
		return stmtBegin
	case "COMMIT":
		return stmtCommit
	case "ROLLBACK":
		return stmtRollback
	}
	return stmtWrite
}

// ledger counts the effects of acknowledged writes from the statements
// issued, never from what the program reports back: rows inserted per
// table, and per-row counters a workload names (stock decrements, bids).
type ledger struct {
	inserted map[string]int64
	counters map[string]map[int64]int64
}

func newLedger() ledger {
	return ledger{inserted: map[string]int64{}, counters: map[string]map[int64]int64{}}
}

// effect is one write's contribution to the ledger.
type effect struct {
	table   string
	rows    int64
	counter string
	id      int64
}

func (l *ledger) apply(e effect) {
	if e.table != "" {
		l.inserted[e.table] += e.rows
	}
	if e.counter != "" {
		m := l.counters[e.counter]
		if m == nil {
			m = map[int64]int64{}
			l.counters[e.counter] = m
		}
		m[e.id]++
	}
}

func (l *ledger) merge(o *ledger) {
	for t, n := range o.inserted {
		l.inserted[t] += n
	}
	for c, m := range o.counters {
		dst := l.counters[c]
		if dst == nil {
			dst = map[int64]int64{}
			l.counters[c] = dst
		}
		for id, n := range m {
			dst[id] += n
		}
	}
}

// insertEffect reads an INSERT's table and counts its VALUES tuples.
func insertEffect(sql string) (effect, bool) {
	const prefix = "INSERT INTO "
	if !strings.HasPrefix(strings.ToUpper(sql), prefix) {
		return effect{}, false
	}
	rest := sql[len(prefix):]
	end := strings.IndexAny(rest, " (")
	if end < 0 {
		return effect{}, false
	}
	table := strings.ToLower(rest[:end])
	v := strings.Index(strings.ToUpper(rest), " VALUES ")
	if v < 0 {
		return effect{}, false
	}
	var tuples int64
	depth, quoted := 0, false
	for _, ch := range rest[v:] {
		switch {
		case ch == '\'':
			quoted = !quoted
		case quoted:
		case ch == '(':
			if depth == 0 {
				tuples++
			}
			depth++
		case ch == ')':
			depth--
		}
	}
	return effect{table: table, rows: tuples}, true
}

// errCheck marks a read whose result contradicted an independent check.
var errCheck = errors.New("perfbench: read result failed an independent check")

// session wraps one client's cjdbc.Session: it times every statement,
// keeps the ledger of the client's acknowledged writes, checks read results
// as they arrive and, in a traced round, records statement spans.
type session struct {
	inner cjdbc.Session
	w     *workload
	sizes sizes
	p     *probe
	// parent is the interaction span the next statements belong to.
	parent int32

	led  ledger
	tx   []effect // effects of the open transaction, acknowledged at COMMIT
	inTx bool

	stmts    int // SQL statements completed, demarcations excluded
	readUs   []float64
	writeUs  []float64
	mismatch []string
	stale    []string // reads older than the client's own acknowledged writes

	texts map[string]struct{} // traced: distinct statement texts
	bound []boundStmt         // traced: parameterized statements, for re-timing
}

// boundStmt is one parameterized statement of the run's stream.
type boundStmt struct {
	sql  string
	args []any
}

// maxBoundSample caps the parameterized statements one session keeps for
// re-timing the parser's bind and render steps.
const maxBoundSample = 2000

var _ cjdbc.Session = (*session)(nil)

func newSession(inner cjdbc.Session, w *workload, sz sizes, p *probe) *session {
	s := &session{inner: inner, w: w, sizes: sz, p: p, parent: -1, led: newLedger()}
	if p.traced {
		s.texts = map[string]struct{}{}
	}
	return s
}

// Exec runs one statement through the wrapped session.
func (s *session) Exec(sql string, args ...any) (*cjdbc.Rows, error) {
	kind := classify(sql)
	sp := s.p.open(spanStmtRead+spanKind(kind), s.parent)
	t0 := time.Now()
	rows, err := s.inner.Exec(sql, args...)
	d := time.Since(t0)
	s.p.close(sp)
	if s.texts != nil {
		s.texts[sql] = struct{}{}
		if len(args) > 0 && len(s.bound) < maxBoundSample {
			s.bound = append(s.bound, boundStmt{sql: sql, args: args})
		}
	}
	if err != nil {
		if kind == stmtCommit || kind == stmtRollback {
			s.tx, s.inTx = s.tx[:0], false
		}
		return rows, err
	}
	switch kind {
	case stmtRead:
		s.stmts++
		s.readUs = append(s.readUs, float64(d)/1e3)
		switch msg, stale := s.w.online(s, sql, args, rows); {
		case stale:
			s.stale = append(s.stale, msg)
		case msg != "":
			s.mismatch = append(s.mismatch, msg)
			return nil, errCheck
		}
		rows.Reset()
	case stmtWrite:
		s.stmts++
		s.writeUs = append(s.writeUs, float64(d)/1e3)
		var effs []effect
		if e, ok := insertEffect(sql); ok {
			effs = append(effs, e)
		}
		if c, id, ok := s.w.counter(sql, args); ok {
			effs = append(effs, effect{counter: c, id: id})
		}
		if s.inTx {
			s.tx = append(s.tx, effs...)
		} else {
			for _, e := range effs {
				s.led.apply(e)
			}
		}
	case stmtBegin:
		s.tx, s.inTx = s.tx[:0], true
	case stmtCommit:
		for _, e := range s.tx {
			s.led.apply(e)
		}
		s.tx, s.inTx = s.tx[:0], false
	case stmtRollback:
		s.tx, s.inTx = s.tx[:0], false
	}
	return rows, nil
}

// Query is Exec.
func (s *session) Query(sql string, args ...any) (*cjdbc.Rows, error) { return s.Exec(sql, args...) }

// Begin starts a transaction.
func (s *session) Begin() error { _, err := s.Exec("BEGIN"); return err }

// Commit commits; the transaction's writes enter the ledger once it is
// acknowledged.
func (s *session) Commit() error { _, err := s.Exec("COMMIT"); return err }

// Rollback aborts; the transaction's writes never enter the ledger.
func (s *session) Rollback() error { _, err := s.Exec("ROLLBACK"); return err }

// Close closes the wrapped session.
func (s *session) Close() error { return s.inner.Close() }
