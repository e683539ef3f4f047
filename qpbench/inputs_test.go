package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"mpl/internal/service"
)

// The open-loop schedule: whole groups of the fixed mix, evenly spaced at
// the offered rate, at least as long as asked and at least minGroups long,
// with every repeat pointing at a layout served before it.
func TestSchedule(t *testing.T) {
	slots := schedule(90, 2, 10)
	if len(slots) != 180 {
		t.Fatalf("%d slots, want 180 (90/s for 2 s)", len(slots))
	}
	gap := time.Second / 90
	counts := map[reqKind]int{}
	for i, s := range slots {
		if s.Idx != i || s.Group != i/len(groupKinds) || s.Kind != groupKinds[i%len(groupKinds)] {
			t.Fatalf("slot %d = %+v", i, s)
		}
		if s.Due != time.Duration(i)*gap {
			t.Fatalf("slot %d due at %v, want %v", i, s.Due, time.Duration(i)*gap)
		}
		switch s.Kind {
		case kindFresh:
			if s.Ref != s.Group {
				t.Fatalf("fresh slot %d refers to layout %d", i, s.Ref)
			}
		case kindHit:
			if s.Ref >= s.Group || s.Ref < -warmLayouts {
				t.Fatalf("repeat slot %d refers to layout %d, not one served before group %d", i, s.Ref, s.Group)
			}
		}
		counts[s.Kind]++
	}
	if counts[kindFresh] != 30 || counts[kindHit] != 60 || counts[kindEdit] != 90 {
		t.Fatalf("mix %v, want 1:2:3", counts)
	}
	if n := len(schedule(90, 0.1, 100)); n != 600 {
		t.Fatalf("minGroups not honored: %d slots", n)
	}
}

func hashes(ins []libInput) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = service.LayoutHash(in.Layout)
	}
	return out
}

// The same seed gives the same inputs; another seed gives other inputs.
func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full-chip layouts")
	}
	for _, gen := range []struct {
		name string
		f    func(int64) ([]libInput, error)
	}{{"fullchip", fullchipInputs}} {
		a, err := gen.f(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen.f(7)
		c, _ := gen.f(8)
		ha, hb, hc := hashes(a), hashes(b), hashes(c)
		for i := range ha {
			if ha[i] != hb[i] {
				t.Errorf("%s input %d differs between two runs of seed 7", gen.name, i)
			}
			if ha[i] == hc[i] {
				t.Errorf("%s input %d is the same for seeds 7 and 8", gen.name, i)
			}
		}
		if gen.name == "fullchip" {
			for _, in := range a {
				if n := len(in.Layout.Features); n < fullchipFeatures*9/10 || n > fullchipFeatures*11/10 {
					t.Errorf("%s has %d features, want about %d", in.Name, n, fullchipFeatures)
				}
			}
		}
	}
	for _, i := range []int{-1, 0, 5} {
		if service.LayoutHash(serveLayout(3, i)) != service.LayoutHash(serveLayout(3, i)) {
			t.Errorf("serve layout %d differs between two calls", i)
		}
		if service.LayoutHash(serveLayout(3, i)) == service.LayoutHash(serveLayout(4, i)) {
			t.Errorf("serve layout %d is the same for seeds 3 and 4", i)
		}
	}
	l := serveLayout(3, 2)
	e1 := editBatch(rand.New(rand.NewSource(mixSeed(3, 9))), l)
	e2 := editBatch(rand.New(rand.NewSource(mixSeed(3, 9))), l)
	b1, _ := json.Marshal(e1)
	b2, _ := json.Marshal(e2)
	if string(b1) != string(b2) || len(e1) < 1 || len(e1) > 3 {
		t.Fatalf("edit batches %s and %s", b1, b2)
	}
}

// BENCHMARK.json at the repository root declares exactly the metrics and
// workloads this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eDefs)
	check("per_layer", bj.PerLayer, layerDefs)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
}
