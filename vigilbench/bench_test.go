package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests hold the command to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
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

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 100, 257} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // every value 0..n-1 once, shuffled
		}
		v, pct, beyond := tail(xs)
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if beyond != tailBeyond || above != tailBeyond {
			t.Errorf("n=%d: tail %v has %d samples above it, reported %d; want %d", n, v, above, beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	// Too few samples for any percentile with ten beyond: the maximum,
	// flagged by nothing beyond it.
	if v, pct, beyond := tail([]float64{3, 9, 1}); v != 9 || pct != 100 || beyond != 0 {
		t.Errorf("short tail = %v p%v beyond %d; want 9 p100 beyond 0", v, pct, beyond)
	}
}

func TestBlocksTileTheWindow(t *testing.T) {
	for _, c := range []struct{ W, L, k int }{{4, 103, 10}, {3, 9, 10}, {5, 5, 3}, {4, 1000, 7}} {
		next := c.W
		bs := blocks(c.W, c.L, c.k)
		for _, b := range bs {
			if b[0] != next || b[1] < b[0] {
				t.Fatalf("blocks(%d, %d, %d) = %v: not consecutive and non-empty", c.W, c.L, c.k, bs)
			}
			next = b[1] + 1
		}
		if next != c.L+1 || len(bs) != min(c.k, c.L-c.W+1) {
			t.Errorf("blocks(%d, %d, %d) = %v: want %d blocks ending at %d", c.W, c.L, c.k, bs, min(c.k, c.L-c.W+1), c.L)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "epoch", Parent: -1, Start: 0, End: 100},
		{Name: "engine.step", Parent: 0, Start: 0, End: 60},
		{Name: "transport.send", Parent: 1, Start: 10, End: 30},
		{Name: "transport.send", Parent: 1, Start: 20, End: 50}, // overlaps the previous send
		{Name: "transport.send", Parent: 1, Start: 55, End: 70}, // runs past its parent
		{Name: "ingest.wait", Parent: 0, Start: 60, End: 100},
	}
	want := []int64{0, 15, 20, 30, 15, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := byName(spans, got)
	if l := layers[2]; l.name != "transport.send" || l.count != 3 || l.total != 65 || l.self != 65 {
		t.Errorf("transport.send aggregate = %+v", l)
	}
}

// The charsets names and units must keep to.
var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecNamesAndWorkloads(t *testing.T) {
	s := loadSpec(t)
	seen := make(map[string]bool)
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !validName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is invalid or repeated", m.Name)
		}
		seen[m.Name] = true
		if !validUnit.MatchString(m.Unit) {
			t.Errorf("metric %s has invalid unit %q", m.Name, m.Unit)
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || !validName.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// through the whole command: the correctness gate must pass and the result
// line must carry exactly the metrics BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "1", "--seconds", "0.4",
					"--trace", trace, "--workdir", t.TempDir()}
				code := run(args, &stdout, &stderr, time.Now())
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
				}
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("gate: correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				want := s.EndToEnd
				if trace == "1" {
					want = s.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}
