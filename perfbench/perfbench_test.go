package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"cjdbc/internal/backend"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/workload/rubis"
	"cjdbc/internal/workload/tpcw"
)

// smokeSizes shrink every workload so one round of each, with every check
// and every traced seam, fits in a unit test and under the race detector.
var smokeSizes = sizes{
	tpcw:  tpcw.Scale{Items: 100, Customers: 100, Authors: 25},
	rubis: rubis.Scale{Users: 100, Items: 100, Categories: 10, Regions: 5},
}

// TestSmokeRounds runs one reduced round of each workload, untraced and
// traced. Every interaction must succeed and every check must pass; the
// re-integration is the only operation allowed to fail, because of the
// recovery faults README.md describes.
func TestSmokeRounds(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{seed: 1, clients: w.clientCount(), traced: traced, sizes: smokeSizes, perClient: 40}
				var stderr bytes.Buffer
				rr, err := runRound(w, cfg, 0, &stderr)
				if err != nil {
					t.Fatalf("round: %v\n%s", err, stderr.String())
				}
				if !rr.correct || rr.failed > 1 {
					t.Fatalf("correct=%t failed=%d of %d\n%s", rr.correct, rr.failed, rr.attempted, stderr.String())
				}
				if rr.attempted != cfg.clients*cfg.perClient+1 {
					t.Errorf("attempted %d operations, want %d", rr.attempted, cfg.clients*cfg.perClient+1)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					if _, ok := rr.metrics[d.name]; !ok {
						t.Errorf("metric %s missing", d.name)
					}
				}
				t.Logf("%s", stderr.String())
			})
		}
	}
}

// TestTracedConnKeepsInterfaces checks that the traced driver and its
// connections satisfy exactly the optional interfaces the engine's driver
// and connections do, so the backend takes the same code paths traced.
func TestTracedConnKeepsInterfaces(t *testing.T) {
	eng := sqlengine.New("t")
	defer eng.Close()
	plain := &backend.EngineDriver{Engine: eng}
	traced := &tracedDriver{schemaDriver: plain, p: newProbe(true)}

	optional := []reflect.Type{
		reflect.TypeOf((*backend.LockReserver)(nil)).Elem(),
		reflect.TypeOf((*backend.TicketReserver)(nil)).Elem(),
		reflect.TypeOf((*backend.ConnResetter)(nil)).Elem(),
		reflect.TypeOf((*backend.ConnKiller)(nil)).Elem(),
	}
	pc, err := plain.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	tc, err := traced.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	for _, it := range optional {
		if a, b := reflect.TypeOf(pc).Implements(it), reflect.TypeOf(tc).Implements(it); a != b {
			t.Errorf("%s: engine connection %t, traced connection %t", it, a, b)
		}
	}
	sp := reflect.TypeOf((*backend.SchemaProvider)(nil)).Elem()
	if a, b := reflect.TypeOf(plain).Implements(sp), reflect.TypeOf(traced).Implements(sp); a != b {
		t.Errorf("SchemaProvider: engine driver %t, traced driver %t", a, b)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names the workloads
// and metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	same := func(kind string, spec []struct{ Name, Unit string }, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(spec), len(defs))
			return
		}
		for i, d := range defs {
			if spec[i].Name != d.name || spec[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestInsertEffect checks the ledger's reading of INSERT statements.
func TestInsertEffect(t *testing.T) {
	for _, c := range []struct {
		sql   string
		table string
		rows  int64
	}{
		{"INSERT INTO cc_xacts (cx_o_id, cx_type, cx_amount, cx_auth_date) VALUES (?, 'VISA', 33.0, NOW())", "cc_xacts", 1},
		{"INSERT INTO order_line (ol_id, ol_o_id) VALUES (1, 2), (3, 4), (5, 6)", "order_line", 3},
		{"INSERT INTO comments (cm_id, cm_text) VALUES (?, 'nice (really)')", "comments", 1},
	} {
		e, ok := insertEffect(c.sql)
		if !ok || e.table != c.table || e.rows != c.rows {
			t.Errorf("%s: got %+v %t, want %s %d", c.sql, e, ok, c.table, c.rows)
		}
	}
	if _, ok := insertEffect("UPDATE item SET i_stock = 0"); ok {
		t.Error("UPDATE read as an INSERT")
	}
}
