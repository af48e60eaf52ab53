package main

// Self-test: every workload runs briefly in both modes. Run it from this
// directory with `go test .`.

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the program in the parts
// that untraced runs start (see parts.go).
func TestMain(m *testing.M) {
	if os.Getenv(partEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// brief runs a workload for a short measuring time and returns the result
// line as it is printed.
func brief(t *testing.T, name string, trace bool, wrongRef int) (map[string]metric, *report) {
	t.Helper()
	rep, err := run(context.Background(), config{workload: name, seed: 7, duration: time.Second, trace: trace, wrongRef: wrongRef})
	if err != nil {
		t.Fatalf("%s trace=%t: %v", name, trace, err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var printed struct{ Metrics map[string]metric }
	if err := json.Unmarshal(data, &printed); err != nil {
		t.Fatal(err)
	}
	return printed.Metrics, rep
}

func TestEveryMetricPrintedWithItsUnit(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			got, rep := brief(t, name, trace, -1)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%t prints %d metrics, BENCHMARK.json names %d", name, trace, len(got), len(want))
			}
			for _, m := range want {
				if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s printed as %+v (present %t), want unit %s", name, trace, m.Name, g, ok, m.Unit)
				}
			}
		}
	}
}

func TestWrongAnswerCountsAsError(t *testing.T) {
	got, rep := brief(t, "serve-mixed", false, 0)
	if rep.Correct || rep.wrong == 0 || rep.Failed != rep.wrong {
		t.Errorf("corrupted reference: correct=%t wrong=%d failed=%d", rep.Correct, rep.wrong, rep.Failed)
	}
	if rate := rep.info["error_rate"].(float64); rate <= 0 {
		t.Errorf("error_rate %v with wrong answers", rate)
	}
	if s := got["success_rate"].Value; s >= 1 {
		t.Errorf("success_rate %v with wrong answers", s)
	}
}

func TestCountsRepeatForASeed(t *testing.T) {
	exact := func(name string) bool {
		return strings.HasPrefix(name, "exec.join_input_rows.") || strings.HasPrefix(name, "exec.group_input_rows.") ||
			name == "core.eager_share" || strings.HasPrefix(name, "workload.")
	}
	for _, name := range workloadNames {
		a, _ := brief(t, name, true, -1)
		b, _ := brief(t, name, true, -1)
		for m := range a {
			if exact(m) && a[m] != b[m] {
				t.Errorf("%s: %s is %v, then %v", name, m, a[m].Value, b[m].Value)
			}
		}
		if name == "olap" && (a["exec.join_input_rows.example1"].Value == 0 || a["core.eager_share"].Value == 0) {
			t.Errorf("olap counts are zero: %+v", a)
		}
	}
}
