package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
)

// A record compares a base commit with a head commit from interleaved
// runs (record.sh writes one JSON line per run). summarizeRecord applies
// the rule for claiming a change: the head wins at least nine tenths of
// the pairs and the medians differ by more than the base's own quartile
// spread; it flags a median worse than the base by more than the
// metric's bound as a regression, and a metric whose base spread exceeds
// its bound as unresolved unless every head run beats every base run.

// benchmarkSpec is the part of BENCHMARK.json a record needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runLine struct {
	Workload string `json:"workload"`
	Seed     int    `json:"seed"`
	Result   result `json:"result"`
}

type sideStats struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type metricRecord struct {
	Unit       string    `json:"unit"`
	Better     string    `json:"better"`
	Bound      float64   `json:"bound"`
	Base       sideStats `json:"base"`
	Head       sideStats `json:"head"`
	WinFrac    float64   `json:"win_frac"`   // pairs the head won; ties count for neither
	DeltaFrac  float64   `json:"delta_frac"` // (head - base) / base, of the medians
	Gain       bool      `json:"gain"`
	Regression bool      `json:"regression"`
	Unresolved bool      `json:"unresolved"`
}

// summarizeRecord reads BENCHMARK.json and args = [base.jsonl,
// head.jsonl], and writes the record to out.
func summarizeRecord(out string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: -summarize OUT.json BASE.jsonl HEAD.jsonl")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	base, err := readRuns(args[0])
	if err != nil {
		return err
	}
	head, err := readRuns(args[1])
	if err != nil {
		return err
	}
	rec := map[string]map[string]*metricRecord{}
	failed := 0
	for _, wl := range slices.Sorted(maps.Keys(base)) {
		b, h := base[wl], head[wl]
		for _, r := range append(append([]runLine{}, b...), h...) {
			if !r.Result.Correct {
				failed++
			}
		}
		rec[wl] = map[string]*metricRecord{}
		for _, m := range spec.EndToEnd {
			mr := &metricRecord{Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			bv, hv := values(b, m.Name), values(h, m.Name)
			mr.Base, mr.Head = side(bv), side(hv)
			better := func(x, y float64) bool { // x better than y
				if m.Better == "higher" {
					return x > y
				}
				return x < y
			}
			wins := 0
			for i := 0; i < min(len(bv), len(hv)); i++ {
				if better(hv[i], bv[i]) {
					wins++
				}
			}
			if n := min(len(bv), len(hv)); n > 0 {
				mr.WinFrac = float64(wins) / float64(n)
			}
			if mr.Base.Median != 0 {
				mr.DeltaFrac = (mr.Head.Median - mr.Base.Median) / mr.Base.Median
			}
			worse := mr.DeltaFrac
			if m.Better == "higher" {
				worse = -worse
			}
			spread := mr.Base.Q3 - mr.Base.Q1
			allBetter := len(hv) > 0 && len(bv) > 0 && better(worstOf(hv, better), bestOf(bv, better))
			mr.Gain = mr.WinFrac >= 0.9 && math.Abs(mr.Head.Median-mr.Base.Median) > spread
			mr.Regression = worse > m.Bound
			mr.Unresolved = mr.Base.Median != 0 && spread/math.Abs(mr.Base.Median) > m.Bound && !allBetter
			rec[wl][m.Name] = mr
		}
	}
	doc := map[string]any{"failed_runs": failed, "workloads": rec}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

func readRuns(path string) (map[string][]runLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]runLine{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var r runLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, sc.Err()
}

func values(runs []runLine, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func side(v []float64) sideStats {
	s := sideStats{Values: v, Median: median(v)}
	s.Q1, s.Q3 = quartiles(v)
	return s
}

// quartiles are Python's statistics.quantiles(v, n=4) first and third
// cut points (the "exclusive" method).
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		return median(v), median(v)
	}
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	m := len(d) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func worstOf(v []float64, better func(x, y float64) bool) float64 {
	w := v[0]
	for _, x := range v {
		if better(w, x) {
			w = x
		}
	}
	return w
}

func bestOf(v []float64, better func(x, y float64) bool) float64 {
	b := v[0]
	for _, x := range v {
		if better(x, b) {
			b = x
		}
	}
	return b
}
