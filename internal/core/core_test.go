package core

import (
	"math"
	"strings"
	"testing"
)

func TestRelErr(t *testing.T) {
	if RelErr(110, 100) != 0.1 {
		t.Errorf("RelErr(110,100) = %v", RelErr(110, 100))
	}
	if RelErr(5, 0) != 5 {
		t.Errorf("RelErr(5,0) = %v", RelErr(5, 0))
	}
	if RelErr(-90, -100) != 0.1 {
		t.Errorf("RelErr(-90,-100) = %v", RelErr(-90, -100))
	}
}

func TestRecallPrecision(t *testing.T) {
	got := []uint64{1, 2, 3}
	want := []uint64{2, 3, 4}
	if r := Recall(got, want); math.Abs(r-2.0/3) > 1e-9 {
		t.Errorf("Recall = %v", r)
	}
	if p := Precision(got, want); math.Abs(p-2.0/3) > 1e-9 {
		t.Errorf("Precision = %v", p)
	}
	if Recall(nil, nil) != 1 || Precision(nil, want) != 1 {
		t.Error("empty-set conventions wrong")
	}
}

func TestTVD(t *testing.T) {
	counts := map[uint64]int{1: 50, 2: 50}
	weights := map[uint64]float64{1: 1, 2: 1}
	if d := TVD(counts, weights); d > 1e-9 {
		t.Errorf("TVD identical = %v", d)
	}
	counts = map[uint64]int{1: 100}
	weights = map[uint64]float64{2: 1}
	if d := TVD(counts, weights); math.Abs(d-1) > 1e-9 {
		t.Errorf("TVD disjoint = %v", d)
	}
	if d := TVD(map[uint64]int{}, weights); d != 1 {
		t.Errorf("TVD empty counts = %v", d)
	}
}

func TestTable(t *testing.T) {
	tb := &Table{Title: "demo", Headers: []string{"a", "b"}}
	tb.Add("row1", "1", "2")
	tb.Add("row2", "3.1", "2.0")
	s := tb.String()
	for _, want := range []string{"demo", "row1", "3.1", "2.0", "a", "b"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Median(xs) != 3 {
		t.Errorf("Median = %v", Median(xs))
	}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Error("extreme quantiles wrong")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Quantile mutated input")
	}
}

func TestHumanBits(t *testing.T) {
	if HumanBits(100) != "100b" {
		t.Errorf("HumanBits(100) = %s", HumanBits(100))
	}
	if !strings.HasSuffix(HumanBits(1<<20), "Kib") {
		t.Errorf("HumanBits(1Mi) = %s", HumanBits(1<<20))
	}
	if !strings.HasSuffix(HumanBits(1<<24), "Mib") {
		t.Errorf("HumanBits(16Mi) = %s", HumanBits(1<<24))
	}
}
