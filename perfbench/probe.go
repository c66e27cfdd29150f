package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlparser"
)

// spanKind names what a span measured.
type spanKind uint8

// The statement kinds follow stmtKind's order, so a statement's span kind
// is spanStmtRead plus its stmtKind.
const (
	spanStmtRead spanKind = iota
	spanStmtWrite
	spanStmtBegin
	spanStmtCommit
	spanStmtRollback
	spanInteraction
	spanPhase     // setup, traffic or re-integration of one round
	spanOpen      // backend.Driver.Open
	spanExecRead  // engine SELECT
	spanExecWrite // engine INSERT, UPDATE or DELETE
	spanExecDDL   // engine CREATE or DROP
	spanExecTx    // engine BEGIN, COMMIT or ROLLBACK
	spanClose     // engine session close, which runs the version GC
	spanAppend    // recovery.Log.Append
	spanSince     // recovery.Log.Since; n is the entries returned
	spanChoose    // balancer.Balancer.Choose
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the round began; parent indexes the span that caused it, or the phase
// span when the seam cannot tell which request did.
type span struct {
	kind       spanKind
	parent     int32
	n          int32 // rows returned by an engine read, entries by Since
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// probe collects one round's spans. Untraced rounds keep it disabled, and
// every method is then a no-op. Spans stay in memory until the round's
// per-layer metrics are computed from them.
type probe struct {
	traced bool
	base   time.Time
	// phase is the span engine, log and balancer spans hang under.
	phase atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newProbe(traced bool) *probe {
	p := &probe{traced: traced, base: time.Now()}
	p.phase.Store(-1)
	return p
}

func (p *probe) now() int64 { return int64(time.Since(p.base)) }

// open starts a span whose end is set by close, returning its index.
func (p *probe) open(k spanKind, parent int32) int32 {
	if !p.traced {
		return -1
	}
	t := p.now()
	p.mu.Lock()
	i := int32(len(p.spans))
	p.spans = append(p.spans, span{kind: k, parent: parent, start: t})
	p.mu.Unlock()
	return i
}

func (p *probe) close(i int32) {
	if i < 0 {
		return
	}
	t := p.now()
	p.mu.Lock()
	p.spans[i].end = t
	p.mu.Unlock()
}

// record adds a finished span under the current phase.
func (p *probe) record(k spanKind, start int64, n int) {
	end := p.now()
	p.mu.Lock()
	p.spans = append(p.spans, span{kind: k, parent: p.phase.Load(), n: int32(n), start: start, end: end})
	p.mu.Unlock()
}

// beginPhase opens a phase span and makes it the parent of seam spans.
func (p *probe) beginPhase() int32 {
	i := p.open(spanPhase, -1)
	p.phase.Store(i)
	return i
}

func (p *probe) endPhase(i int32) {
	p.close(i)
	p.phase.Store(-1)
}

// engineConn is what the traced driver requires of the connections it
// wraps: the engine connection's optional interfaces, all forwarded, so the
// backend takes the same code paths with and without tracing.
type engineConn interface {
	backend.Conn
	backend.LockReserver
	backend.TicketReserver
	backend.ConnResetter
	backend.ConnKiller
}

// schemaDriver is a driver that can also describe its tables.
type schemaDriver interface {
	backend.Driver
	backend.SchemaProvider
}

// tracedDriver times connection opens and wraps each connection.
type tracedDriver struct {
	schemaDriver
	p *probe
}

// Open opens and wraps one connection.
func (d *tracedDriver) Open() (backend.Conn, error) {
	t := d.p.now()
	c, err := d.schemaDriver.Open()
	d.p.record(spanOpen, t, 0)
	if err != nil {
		return nil, err
	}
	ec, ok := c.(engineConn)
	if !ok {
		_ = c.Close()
		return nil, fmt.Errorf("perfbench: connection %T lacks the engine connection's optional interfaces", c)
	}
	return &tracedConn{engineConn: ec, p: d.p}, nil
}

// tracedConn times every engine call; the lock, ticket, reset and kill
// methods pass through the embedded connection untouched.
type tracedConn struct {
	engineConn
	p *probe
}

// Exec times one engine statement.
func (c *tracedConn) Exec(st sqlparser.Statement, sql string) (*backend.Result, error) {
	t := c.p.now()
	res, err := c.engineConn.Exec(st, sql)
	k, n := execKind(st, sql), 0
	if k == spanExecRead && res != nil {
		n = len(res.Rows)
	}
	c.p.record(k, t, n)
	return res, err
}

// Begin times a transaction start.
func (c *tracedConn) Begin() error { return c.timed(c.engineConn.Begin) }

// Commit times a commit.
func (c *tracedConn) Commit() error { return c.timed(c.engineConn.Commit) }

// Rollback times a rollback.
func (c *tracedConn) Rollback() error { return c.timed(c.engineConn.Rollback) }

func (c *tracedConn) timed(f func() error) error {
	t := c.p.now()
	err := f()
	c.p.record(spanExecTx, t, 0)
	return err
}

// Close times the session close, which includes the engine's version GC.
func (c *tracedConn) Close() error {
	t := c.p.now()
	err := c.engineConn.Close()
	c.p.record(spanClose, t, 0)
	return err
}

func execKind(st sqlparser.Statement, sql string) spanKind {
	if st != nil {
		switch st.(type) {
		case *sqlparser.Select:
			return spanExecRead
		case *sqlparser.CreateTable, *sqlparser.DropTable, *sqlparser.CreateIndex, *sqlparser.DropIndex:
			return spanExecDDL
		}
		return spanExecWrite
	}
	word := strings.ToUpper(strings.TrimSpace(sql))
	switch {
	case strings.HasPrefix(word, "SELECT"):
		return spanExecRead
	case strings.HasPrefix(word, "CREATE"), strings.HasPrefix(word, "DROP"):
		return spanExecDDL
	}
	return spanExecWrite
}

// tracedLog times the recovery log's appends and catch-up scans.
type tracedLog struct {
	recovery.Log
	p *probe
}

// Append times one append.
func (l *tracedLog) Append(e recovery.Entry) (uint64, error) {
	t := l.p.now()
	seq, err := l.Log.Append(e)
	l.p.record(spanAppend, t, 0)
	return seq, err
}

// Since times one scan and records how many entries it returned.
func (l *tracedLog) Since(seq uint64) ([]recovery.Entry, error) {
	t := l.p.now()
	es, err := l.Log.Since(seq)
	l.p.record(spanSince, t, len(es))
	return es, err
}

// tracedBalancer times each read's backend choice.
type tracedBalancer struct {
	balancer.Balancer
	p *probe
}

// Choose times one choice.
func (b *tracedBalancer) Choose(cands []*backend.Backend) (*backend.Backend, error) {
	t := b.p.now()
	c, err := b.Balancer.Choose(cands)
	b.p.record(spanChoose, t, 0)
	return c, err
}
