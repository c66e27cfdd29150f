package main

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlval"
)

// The checks below read the backends' engines directly, below every layer
// of the middleware, and compare what they find with the ledger and with
// the loader's formulas.

// renderValue writes a value with its full precision, so two replicas
// that differ only below the second in a timestamp still differ.
func renderValue(v sqlval.Value) string {
	switch v.K {
	case sqlval.KindNull:
		return "NULL"
	case sqlval.KindInt, sqlval.KindBool:
		return strconv.FormatInt(v.I, 10)
	case sqlval.KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case sqlval.KindTime:
		return v.T.UTC().Format(time.RFC3339Nano)
	case sqlval.KindBytes:
		return hex.EncodeToString(v.B)
	}
	return strconv.Quote(v.S)
}

// tableRows returns a table's rows as a sorted multiset of rendered rows.
func tableRows(e *sqlengine.Engine, table string) ([]string, error) {
	_, rows, err := e.SnapshotTable(table)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rows))
	var b strings.Builder
	for i, r := range rows {
		b.Reset()
		for j, v := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(renderValue(v))
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out, nil
}

// diffRows describes how two sorted row multisets differ.
func diffRows(table, nameA, nameB string, a, b []string) []string {
	var out []string
	i, j := 0, 0
	for (i < len(a) || j < len(b)) && len(out) < 3 {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, fmt.Sprintf("%s: row only on %s: (%s)", table, nameA, a[i]))
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, fmt.Sprintf("%s: row only on %s: (%s)", table, nameB, b[j]))
			j++
		default:
			i++
			j++
		}
	}
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// enginesAgree compares every table of want that filter admits with the
// same table on got, and reports any table one side lacks.
func enginesAgree(got, want *sqlengine.Engine, filter func(string) bool) []string {
	var out []string
	gotTables := map[string]bool{}
	for _, t := range got.TableNames() {
		gotTables[t] = true
	}
	for _, t := range want.TableNames() {
		if !filter(t) {
			continue
		}
		if !gotTables[t] {
			out = append(out, fmt.Sprintf("%s: missing on %s", t, got.Name()))
			continue
		}
		delete(gotTables, t)
		a, errA := tableRows(got, t)
		b, errB := tableRows(want, t)
		if errA != nil || errB != nil {
			out = append(out, fmt.Sprintf("%s: snapshot: %v %v", t, errA, errB))
			continue
		}
		if !sameRows(a, b) {
			out = append(out, fmt.Sprintf("%s: %d rows on %s, %d on %s", t, len(a), got.Name(), len(b), want.Name()))
			out = append(out, diffRows(t, got.Name(), want.Name(), a, b)...)
		}
	}
	for t := range gotTables {
		if filter(t) {
			out = append(out, fmt.Sprintf("%s: only on %s", t, got.Name()))
		}
	}
	return out
}

// hostedBy returns the table filter of one backend of a workload.
func hostedBy(w *workload, name string) func(string) bool {
	return func(table string) bool {
		hosts, ok := w.partial[table]
		if !ok {
			return true
		}
		for _, h := range hosts {
			if h == name {
				return true
			}
		}
		return false
	}
}

// replicasAgree checks that every backend holds the same row multiset for
// every table it hosts as the peer, which hosts them all.
func replicasAgree(c *cluster) []string {
	var out []string
	for _, name := range c.w.backends {
		if name != c.w.peer {
			out = append(out, enginesAgree(c.engines[name], c.engines[c.w.peer], hostedBy(c.w, name))...)
		}
	}
	return out
}

// rowCounts counts the rows of every table of an engine.
func rowCounts(e *sqlengine.Engine) (map[string]int64, error) {
	out := map[string]int64{}
	for _, t := range e.TableNames() {
		_, rows, err := e.SnapshotTable(t)
		if err != nil {
			return nil, err
		}
		out[t] = int64(len(rows))
	}
	return out, nil
}

// rowCountsMatch checks that each table grew by exactly the rows the
// ledger's acknowledged inserts add, and that no other table changed size.
func rowCountsMatch(c *cluster, loaded map[string]int64, led *ledger) []string {
	now, err := rowCounts(c.engines[c.w.peer])
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	for t, n := range now {
		if got, want := n-loaded[t], led.inserted[t]; got != want {
			out = append(out, fmt.Sprintf("%s: grew by %d rows, the ledger acknowledges %d", t, got, want))
		}
	}
	for t := range led.inserted {
		if _, ok := now[t]; !ok {
			out = append(out, fmt.Sprintf("%s: written but missing on %s", t, c.w.peer))
		}
	}
	sort.Strings(out)
	return out
}

// noTempTables checks that no best-seller temporary table outlived its
// transaction on any backend.
func noTempTables(c *cluster) []string {
	var out []string
	for _, name := range c.w.backends {
		for _, t := range c.engines[name].TableNames() {
			if strings.HasPrefix(t, "besttmp_") {
				out = append(out, fmt.Sprintf("%s left on %s", t, name))
			}
		}
	}
	return out
}
