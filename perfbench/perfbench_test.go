package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
)

func testItems(w spec) []txn.ItemID {
	var items []txn.ItemID
	for s := 0; s < w.servers; s++ {
		for i := 0; i < w.itemsPerShard; i++ {
			items = append(items, core.ItemName(s, i))
		}
	}
	return items
}

// One seed must reproduce the identical operation stream and arrival
// times; another seed must not.
func TestScheduleIsSeeded(t *testing.T) {
	w, err := lookupWorkload("verified_read_open")
	if err != nil {
		t.Fatal(err)
	}
	items := testItems(w)
	a, err := schedule(w, items, 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule(w, items, 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c, err := schedule(w, items, 8, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}

	var reads, writes int
	for i, arr := range a {
		if i > 0 && arr.at < a[i-1].at {
			t.Fatalf("arrival %d at %v before its predecessor at %v", i, arr.at, a[i-1].at)
		}
		if arr.plan != nil {
			writes++
			continue
		}
		reads++
		if len(arr.ids) != readBatch {
			t.Fatalf("read of %d items, want %d", len(arr.ids), readBatch)
		}
	}
	if reads != int(2*w.readRate) || writes != int(2*w.writeRate) {
		t.Fatalf("got %d reads and %d writes in 2s, want %v and %v", reads, writes, 2*w.readRate, 2*w.writeRate)
	}

	// A closed-loop workload reads in its read phase, never in the window.
	lan, err := lookupWorkload("lan_commit")
	if err != nil {
		t.Fatal(err)
	}
	if arr, err := schedule(lan, testItems(lan), 7, 2*time.Second); err != nil || len(arr) != 0 {
		t.Fatalf("closed-loop window has %d open-loop arrivals (err %v), want none", len(arr), err)
	}
	if !reflect.DeepEqual(readArrivals(lan, 7, streamReadPhase, time.Second), readArrivals(lan, 7, streamReadPhase, time.Second)) {
		t.Fatal("same seed gave different read phases")
	}
}

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// Every workload, untraced and traced, must pass its correctness checks
// and emit exactly the metric names and units BENCHMARK.json lists.
func TestSuiteMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	phase := 2 * time.Second
	if testing.Short() {
		phase = 500 * time.Millisecond
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			res, err := execute(w, options{seed: 1, phase: phase, trace: traced, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.order) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.order), len(want))
			}
			for i := 0; i < len(res.order) && i < len(want); i++ {
				if got := res.order[i]; got.name != want[i].Name || got.unit != want[i].Unit {
					t.Errorf("%s traced=%v: metric %d is %s [%s], BENCHMARK.json has %s [%s]",
						w.name, traced, i, got.name, got.unit, want[i].Name, want[i].Unit)
				}
			}
		}
	}
}
