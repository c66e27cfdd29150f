package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"cjdbc"
	"cjdbc/internal/workload/rubis"
	"cjdbc/internal/workload/tpcw"
)

// sizes fixes the loaded database of a workload.
type sizes struct {
	tpcw  tpcw.Scale
	rubis rubis.Scale
}

// interactor runs one emulated-browser interaction and reports the SQL
// statements it issued.
type interactor interface {
	Interaction() (int, error)
}

// workload is one traffic mix on one cluster layout, together with the
// knowledge the independent checks need: how its writes change the data and
// which values its reads must return.
type workload struct {
	name string

	backends []string
	// partial maps tables to their hosts (RAIDb-2); nil replicates every
	// table on every backend.
	partial map[string][]string
	cache   bool
	// target is the backend backed up after the load and re-integrated
	// after traffic; peer is a backend hosting every table it hosts.
	target, peer string

	// clients is the number of emulated browsers; 0 means one per CPU.
	clients   int
	perClient int // interactions each client runs per round

	load      func(s cjdbc.Session, sz sizes, seed int64) error
	newClient func(id int, s cjdbc.Session, sz sizes, rng *rand.Rand, ids int64) interactor
	// counter names the per-row counter a write statement moves, if any,
	// and the row it moves.
	counter func(sql string, args []any) (name string, id int64, ok bool)
	// online checks one read result as the client receives it; stale
	// reports a value older than the client's own acknowledged writes.
	online func(s *session, sql string, args []any, rows *cjdbc.Rows) (msg string, stale bool)
	// final checks the workload's own invariants once traffic has stopped
	// and every backend has applied its writes. stale counts values the
	// virtual database served below what the engines hold.
	final func(c *cluster, led *ledger) (bad []string, stale int)
}

// Database sizes of the full benchmark. TPC-W keeps the generator's ratios
// (orders = 0.9 x customers, three lines per order, one author per four
// items); RUBiS keeps its ten categories and five regions.
var fullSizes = sizes{
	tpcw:  tpcw.Scale{Items: 1000, Customers: 1000, Authors: 250},
	rubis: rubis.Scale{Users: 1000, Items: 1000, Categories: 10, Regions: 5},
}

// workloads are the benchmark's traffic mixes; README.md explains the
// choice of each.
var workloads = []*workload{
	// The TPC-W mixes run one emulated browser each: with two, concurrent
	// order transactions leave the replicas diverged now and then (see
	// README.md), and a benchmark cannot be steady on that.
	tpcwWorkload("tpcw-shopping", tpcw.Shopping, 2000,
		nil, []string{"db0", "db1"}),
	tpcwWorkload("tpcw-ordering-raidb2", tpcw.Ordering, 2000,
		orderTablesOnTwo(), []string{"db0", "db1", "db2"}),
	rubisWorkload(),
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// orderTablesOnTwo is the partial-replication layout of the experiments
// package: orders, order_line and cc_xacts live on db0 and db1, every other
// table on all three backends.
func orderTablesOnTwo() map[string][]string {
	all := []string{"db0", "db1", "db2"}
	m := make(map[string][]string)
	for _, t := range tpcw.Tables {
		m[t] = all
	}
	for _, t := range tpcw.OrderTables {
		m[t] = all[:2]
	}
	return m
}

// The write statements whose per-row effect the TPC-W and RUBiS ledgers
// count, exactly as the workload clients issue them.
const (
	tpcwStockDecrement = "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = ? AND i_stock > 0"
	rubisBidIncrement  = "UPDATE items SET it_max_bid = ?, it_nb_bids = it_nb_bids + 1 WHERE it_id = ?"
)

func tpcwWorkload(name string, mix tpcw.Mix, perClient int, partial map[string][]string, backends []string) *workload {
	return &workload{
		name:      name,
		clients:   1,
		backends:  backends,
		partial:   partial,
		target:    "db1",
		peer:      "db0",
		perClient: perClient,
		load: func(s cjdbc.Session, sz sizes, seed int64) error {
			return tpcw.Load(s, sz.tpcw, seed)
		},
		newClient: func(id int, s cjdbc.Session, sz sizes, rng *rand.Rand, ids int64) interactor {
			return tpcw.NewClient(id, s, sz.tpcw, mix, rng, tpcw.NewIDAllocator(ids))
		},
		counter: func(sql string, args []any) (string, int64, bool) {
			if sql == tpcwStockDecrement {
				return "i_stock_decrements", argInt(args, 0), true
			}
			return "", 0, false
		},
		online: tpcwOnline,
		final:  tpcwFinal,
	}
}

func rubisWorkload() *workload {
	return &workload{
		name:      "rubis-bidding-cached",
		backends:  []string{"db0", "db1"},
		cache:     true,
		target:    "db1",
		peer:      "db0",
		perClient: 5000,
		load: func(s cjdbc.Session, sz sizes, seed int64) error {
			return rubis.Load(s, sz.rubis, seed)
		},
		newClient: func(_ int, s cjdbc.Session, sz sizes, rng *rand.Rand, ids int64) interactor {
			return rubis.NewClient(s, sz.rubis, rng, rubis.NewIDAllocator(ids))
		},
		counter: func(sql string, args []any) (string, int64, bool) {
			if sql == rubisBidIncrement {
				return "it_nb_bids", argInt(args, 1), true
			}
			return "", 0, false
		},
		online: rubisOnline,
		final:  rubisFinal,
	}
}

// clientCount is the number of emulated browsers the workload runs.
func (w *workload) clientCount() int {
	if w.clients == 0 {
		return runtime.NumCPU()
	}
	return w.clients
}

// idBase returns where client i's primary keys start: above every loaded
// table (the loaders number rows from 1) and in a band of its own, so
// concurrent clients never collide.
func idBase(loaded map[string]int64, client int) int64 {
	var top int64
	for _, n := range loaded {
		top = max(top, n)
	}
	return top + 1000 + int64(client)*10_000_000
}

// tpcwOnline checks TPC-W point reads of loaded rows against the loader's
// formulas: item N is titled "Title of Book N", customer N is named "firstN".
func tpcwOnline(s *session, sql string, args []any, rows *cjdbc.Rows) (string, bool) {
	sz := s.sizes.tpcw
	if id, title := colIndex(rows, "i_id"), colIndex(rows, "i_title"); id >= 0 && title >= 0 {
		for rows.Next() {
			n := valInt(rows.Value(id))
			if want := fmt.Sprintf("Title of Book %d", n); n <= int64(sz.Items) && rows.Value(title) != want {
				return fmt.Sprintf("%q: item %d titled %v, want %q", sql, n, rows.Value(title), want), false
			}
		}
	}
	if strings.Contains(sql, "FROM customer WHERE c_id = ?") {
		n := argInt(args, 0)
		if rows.Len() != 1 {
			return fmt.Sprintf("%q with c_id=%d: %d rows, want 1", sql, n, rows.Len()), false
		}
		rows.Reset()
		rows.Next()
		if want := fmt.Sprintf("first%d", n); rows.Value(colIndex(rows, "c_fname")) != want {
			return fmt.Sprintf("%q with c_id=%d: c_fname %v, want %q", sql, n, rows.Value(colIndex(rows, "c_fname")), want), false
		}
	}
	return "", false
}

// rubisOnline checks RUBiS reads: loaded item N is named "itemN", loaded
// user N is nicknamed "nickN", and no read of it_nb_bids shows fewer bids
// than this client's own acknowledged increments of that item.
func rubisOnline(s *session, sql string, args []any, rows *cjdbc.Rows) (string, bool) {
	sz := s.sizes.rubis
	idCol, nameCol, bidsCol := colIndex(rows, "it_id"), colIndex(rows, "it_name"), colIndex(rows, "it_nb_bids")
	pointItem := strings.HasSuffix(sql, "WHERE it_id = ?")
	for rows.Next() {
		var id int64
		switch {
		case idCol >= 0:
			id = valInt(rows.Value(idCol))
		case pointItem:
			id = argInt(args, len(args)-1)
		default:
			continue
		}
		if want := fmt.Sprintf("item%d", id); nameCol >= 0 && id <= int64(sz.Items) && rows.Value(nameCol) != want {
			return fmt.Sprintf("%q: item %d named %v, want %q", sql, id, rows.Value(nameCol), want), false
		}
		if bidsCol >= 0 {
			if got, own := valInt(rows.Value(bidsCol)), s.led.counters["it_nb_bids"][id]; got < own {
				return fmt.Sprintf("%q: item %d shows it_nb_bids=%d below this client's %d acknowledged bids", sql, id, got, own), true
			}
		}
	}
	if sql == "SELECT u_nickname, u_rating FROM users WHERE u_id = ?" {
		n := argInt(args, 0)
		rows.Reset()
		if rows.Len() != 1 || !rows.Next() {
			return fmt.Sprintf("%q with u_id=%d: %d rows, want 1", sql, n, rows.Len()), false
		}
		if want := fmt.Sprintf("nick%d", n); rows.Value(0) != want {
			return fmt.Sprintf("%q with u_id=%d: nickname %v, want %q", sql, n, rows.Value(0), want), false
		}
	}
	return "", false
}

// tpcwFinal checks every item's stock against the loader's formula minus
// the acknowledged decrements, floored at zero by the statement's guard.
func tpcwFinal(c *cluster, led *ledger) ([]string, int) {
	schema, rows, err := c.engines[c.w.peer].SnapshotTable("item")
	if err != nil {
		return []string{fmt.Sprintf("item snapshot: %v", err)}, 0
	}
	id, stock := schema.ColumnIndex("i_id"), schema.ColumnIndex("i_stock")
	var bad []string
	for _, r := range rows {
		n := r[id].I
		want := 50 + (n-1)%100 - led.counters["i_stock_decrements"][n]
		if want < 0 {
			want = 0
		}
		if r[stock].I != want {
			bad = append(bad, fmt.Sprintf("item %d: i_stock %d, want %d", n, r[stock].I, want))
		}
	}
	return bad, 0
}

// rubisFinal reads every item's bid count through the virtual database, and
// so through the result cache, and compares it with the acknowledged
// increments. A count the engines hold correctly but the virtual database
// serves below it is a stale read: a result cached from the backend that had
// not yet applied a bid, still served after traffic stopped. It is counted
// apart, not failed, because whether a round caches one depends on the
// interleaving of reads and early-acknowledged writes. A count above the
// ledger cannot be stale and fails the check.
func rubisFinal(c *cluster, led *ledger) ([]string, int) {
	schema, rows, err := c.engines[c.w.peer].SnapshotTable("items")
	if err != nil {
		return []string{fmt.Sprintf("items snapshot: %v", err)}, 0
	}
	s, err := c.vdb.OpenSession("check", "")
	if err != nil {
		return []string{fmt.Sprintf("open check session: %v", err)}, 0
	}
	defer s.Close()
	id, bids := schema.ColumnIndex("it_id"), schema.ColumnIndex("it_nb_bids")
	var bad []string
	stale := 0
	for _, r := range rows {
		n, want := r[id].I, led.counters["it_nb_bids"][r[id].I]
		if r[bids].I != want {
			bad = append(bad, fmt.Sprintf("item %d: it_nb_bids %d on %s, want %d", n, r[bids].I, c.w.peer, want))
			continue
		}
		res, err := s.Query("SELECT it_max_bid, it_nb_bids FROM items WHERE it_id = ?", n)
		if err != nil {
			bad = append(bad, fmt.Sprintf("item %d: %v", n, err))
			continue
		}
		var maxBid float64
		var got int64
		if !res.Next() || res.Scan(&maxBid, &got) != nil {
			bad = append(bad, fmt.Sprintf("item %d: no row through the virtual database", n))
			continue
		}
		switch {
		case got > want:
			bad = append(bad, fmt.Sprintf("item %d: it_nb_bids %d through the virtual database, want %d", n, got, want))
		case got < want:
			stale++
		}
	}
	return bad, stale
}

func colIndex(rows *cjdbc.Rows, name string) int {
	for i, c := range rows.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

func valInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	return -1
}

func argInt(args []any, i int) int64 {
	if i < 0 || i >= len(args) {
		return -1
	}
	switch x := args[i].(type) {
	case int:
		return int64(x)
	case int64:
		return x
	}
	return -1
}
