package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

func baselineReport() report {
	return report{
		Rev: "aaaaaaa",
		SpMM: []spmmResult{
			{N: 128, SparseNsOp: 25000, DenseNsOp: 250000},
			{N: 256, SparseNsOp: 54000, DenseNsOp: 1900000},
		},
		Decide: []decideResult{{Kind: "cholesky", T: 8, NsPerDecision: 600000}},
		Train:  []trainResult{{Kind: "cholesky", T: 8, SparseEpsPerSec: 4.8}},
	}
}

// currentReport mirrors the baseline with small, tolerable drift, plus a
// stream section the baseline predates (must be skipped, not judged).
func currentReport() report {
	return report{
		Rev: "bbbbbbb",
		SpMM: []spmmResult{
			{N: 128, SparseNsOp: 27000, DenseNsOp: 260000},
		},
		Decide: []decideResult{{Kind: "cholesky", T: 8, NsPerDecision: 630000}},
		Train:  []trainResult{{Kind: "cholesky", T: 8, SparseEpsPerSec: 4.4}},
		Stream: []streamResult{{Policy: "mct", Jobs: 8, JobsPerSec: 120}},
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	rows, skipped, regressed := compareReports(baselineReport(), currentReport(), 0.20)
	if regressed {
		t.Fatalf("drift within 20%% flagged as regression: %+v", rows)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 matched rows (spmm 128, decide, train), got %d: %+v", len(rows), rows)
	}
	// Both directions of non-match must surface: the baseline's spmm n=256
	// row has no current counterpart, and the current stream row predates
	// the baseline.
	joined := strings.Join(skipped, "; ")
	if !strings.Contains(joined, "spmm n=256: not in current run") {
		t.Errorf("baseline-only row not reported skipped: %q", joined)
	}
	if !strings.Contains(joined, "stream mct jobs=8: not in baseline") {
		t.Errorf("current-only stream row not reported skipped: %q", joined)
	}
}

// TestCompareSyntheticRegression is the acceptance check for the gate: inject
// a regression in each judged metric in turn and require the gate to trip on
// exactly that row, in the metric's harm direction.
func TestCompareSyntheticRegression(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*report)
		metric string
	}{
		{"spmm ns/op up", func(r *report) { r.SpMM[0].SparseNsOp = 40000 }, "sparse_ns_op"},
		{"decide ns up", func(r *report) { r.Decide[0].NsPerDecision = 900000 }, "ns_per_decision"},
		{"train eps down", func(r *report) { r.Train[0].SparseEpsPerSec = 2.0 }, "sparse_eps_per_sec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := currentReport()
			tc.mutate(&cur)
			rows, _, regressed := compareReports(baselineReport(), cur, 0.20)
			if !regressed {
				t.Fatalf("synthetic regression not caught: %+v", rows)
			}
			for _, r := range rows {
				if r.Metric == tc.metric && !r.Regressed {
					t.Errorf("row %s %s should be regressed: %+v", r.Section, r.Config, r)
				}
				if r.Metric != tc.metric && r.Regressed {
					t.Errorf("unrelated row flagged: %+v", r)
				}
			}
			if w := worstDelta(rows); w <= 0.20 {
				t.Errorf("worst delta %v should exceed tolerance", w)
			}
		})
	}
}

// A throughput metric that improves (goes up) must never trip the gate, even
// when the change is far beyond the tolerance — direction matters.
func TestCompareImprovementNotRegression(t *testing.T) {
	cur := currentReport()
	cur.Train[0].SparseEpsPerSec = 50 // 10x faster training
	cur.SpMM[0].SparseNsOp = 1000     // 25x faster spmm
	_, _, regressed := compareReports(baselineReport(), cur, 0.20)
	if regressed {
		t.Fatal("improvements flagged as regression")
	}
}

func TestPrintComparisonTable(t *testing.T) {
	cur := currentReport()
	cur.Decide[0].NsPerDecision = 900000
	rows, skipped, _ := compareReports(baselineReport(), cur, 0.20)
	var sb strings.Builder
	printComparison(&sb, "BENCH_aaaaaaa.json", rows, skipped, 0.20)
	out := sb.String()
	for _, want := range []string{
		"BENCH_aaaaaaa.json", "ns_per_decision", "REGRESSED",
		"sparse_eps_per_sec", "skipped: spmm n=256",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestResolveTol(t *testing.T) {
	if got := resolveTol(0.35, ""); got != 0.35 {
		t.Errorf("flag should win: %v", got)
	}
	if got := resolveTol(0, "0.5"); got != 0.5 {
		t.Errorf("env fallback: %v", got)
	}
	if got := resolveTol(0, ""); got != 0.20 {
		t.Errorf("default: %v", got)
	}
	if got := resolveTol(0.1, "0.9"); got != 0.1 {
		t.Errorf("flag beats env: %v", got)
	}
}

// TestComparePrecisionRowsAgainstOldBaseline pins the PR 8 migration path: a
// current run with labeled decide pipeline rows gated against a pre-PR-8
// baseline (unlabeled decide row only) must judge the unlabeled row, skip
// every labeled row without failing, and still trip on a regression of the
// unlabeled row.
func TestComparePrecisionRowsAgainstOldBaseline(t *testing.T) {
	cur := currentReport()
	cur.Decide = append(cur.Decide,
		decideResult{Kind: "cholesky", T: 8, Path: "rebuild", Precision: "float64", NsPerDecision: 620000},
		decideResult{Kind: "cholesky", T: 8, Path: "serving", Precision: "float64", NsPerDecision: 90000},
		decideResult{Kind: "cholesky", T: 8, Path: "serving", Precision: "int8", NsPerDecision: 60000},
	)
	rows, skipped, regressed := compareReports(baselineReport(), cur, 0.20)
	if regressed {
		t.Fatalf("labeled rows against an old baseline tripped the gate: %+v", rows)
	}
	decideRows := 0
	for _, r := range rows {
		if r.Section == "decide" {
			decideRows++
			if r.Config != "cholesky T=8" {
				t.Errorf("labeled row %q judged against unlabeled baseline", r.Config)
			}
		}
	}
	if decideRows != 1 {
		t.Fatalf("want exactly the unlabeled decide row judged, got %d", decideRows)
	}
	joined := strings.Join(skipped, "; ")
	for _, want := range []string{
		"decide cholesky T=8 rebuild/float64: not in baseline",
		"decide cholesky T=8 serving/float64: not in baseline",
		"decide cholesky T=8 serving/int8: not in baseline",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing skip notice %q in %q", want, joined)
		}
	}

	// The unlabeled row must still gate.
	cur.Decide[0].NsPerDecision = 900000
	if _, _, regressed := compareReports(baselineReport(), cur, 0.20); !regressed {
		t.Fatal("unlabeled-row regression masked by labeled rows")
	}
}

// TestComparePrecisionRowsGate: once a baseline carries labeled rows, each
// pipeline gates independently — a regression on the int8 serving row trips
// even when the unlabeled default row improved.
func TestComparePrecisionRowsGate(t *testing.T) {
	base := baselineReport()
	base.Decide = append(base.Decide,
		decideResult{Kind: "cholesky", T: 8, Path: "serving", Precision: "int8", NsPerDecision: 60000})
	cur := currentReport()
	cur.Decide[0].NsPerDecision = 100000 // default row much faster
	cur.Decide = append(cur.Decide,
		decideResult{Kind: "cholesky", T: 8, Path: "serving", Precision: "int8", NsPerDecision: 90000})
	rows, _, regressed := compareReports(base, cur, 0.20)
	if !regressed {
		t.Fatalf("int8 row regression not caught: %+v", rows)
	}
	for _, r := range rows {
		if r.Config == "cholesky T=8 serving/int8" && !r.Regressed {
			t.Errorf("int8 row should be regressed: %+v", r)
		}
		if r.Config == "cholesky T=8" && r.Regressed {
			t.Errorf("improved default row flagged: %+v", r)
		}
	}
}

// TestCompareRetiredRowsSkipped gates a run shaped like the current benchmark
// (the rows decideVariants, the stream policies and the quick spmm/train
// configs produce) against the committed BENCH_273bd3e.json, which predates
// the removal of the batched section, the float32/int8 serving tiers and the
// unlabeled decide row. Every such baseline row must be printed as skipped,
// the surviving rows must still be judged, and nothing may trip the gate.
func TestCompareRetiredRowsSkipped(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_273bd3e.json")
	if err != nil {
		t.Fatal(err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Batched) == 0 {
		t.Fatal("baseline has no batched rows to exercise")
	}

	cur := report{
		SpMM:  []spmmResult{{N: 128, SparseNsOp: base.SpMM[0].SparseNsOp}},
		Train: []trainResult{{Kind: "cholesky", T: 8, SparseEpsPerSec: base.Train[0].SparseEpsPerSec}},
	}
	oldDecide := map[string]int64{}
	for _, r := range base.Decide {
		oldDecide[r.Path+"/"+r.Precision] = r.NsPerDecision
	}
	for _, v := range decideVariants() {
		cur.Decide = append(cur.Decide, decideResult{Kind: "cholesky", T: 8, Path: v.path, Precision: "float64",
			NsPerDecision: oldDecide[v.path+"/float64"]})
	}
	for _, r := range base.Stream {
		if r.Policy != "readys-int8" {
			cur.Stream = append(cur.Stream, r)
		}
	}

	rows, skipped, regressed := compareReports(base, cur, 0.20)
	if regressed {
		t.Fatalf("unchanged surviving rows tripped the gate: %+v", rows)
	}
	judged := map[string]bool{}
	for _, r := range rows {
		judged[r.Section+" "+r.Config] = true
	}
	for _, want := range []string{
		"decide cholesky T=8 rebuild/float64", "decide cholesky T=8 serving/float64",
		"stream readys jobs=20", "spmm n=128", "train cholesky T=8",
	} {
		if !judged[want] {
			t.Errorf("row %q not judged; judged %v", want, judged)
		}
	}

	var sb strings.Builder
	printComparison(&sb, "BENCH_273bd3e.json", rows, skipped, 0.20)
	out := sb.String()
	wants := []string{
		"skipped: decide cholesky T=8: not in current run",
		"skipped: decide cholesky T=8 serving/float32: not in current run",
		"skipped: decide cholesky T=8 serving/int8: not in current run",
		"skipped: stream readys-int8 jobs=20: not in current run",
	}
	for _, b := range base.Batched {
		arm := "unbatched"
		if b.Batched {
			arm = "batched"
		}
		wants = append(wants, fmt.Sprintf("skipped: batched clients=%d %s: not in current run", b.Clients, arm))
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q:\n%s", want, out)
		}
	}
}
