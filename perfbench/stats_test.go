package main

import (
	"math"
	"testing"
)

func seq(from, to float64) []float64 {
	var xs []float64
	for x := from; x <= to; x++ {
		xs = append(xs, x)
	}
	return xs
}

func TestSummarizeSingleSample(t *testing.T) {
	d := summarize([]float64{4.5}, 0.95)
	if d.N != 1 || d.P50 != 4.5 || d.Tail != 4.5 || d.TailOK {
		t.Fatalf("single sample: got %+v, want n=1 p50=p95=4.5 with the tail not reportable", d)
	}
	if _, err := d.tail("x_p95"); err == nil {
		t.Fatal("tail of a single sample reported")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	d := summarize(nil, 0.95)
	if d.N != 0 || !math.IsNaN(d.P50) || d.TailOK {
		t.Fatalf("no samples: got %+v", d)
	}
}

func TestSummarizeTooFewBeyondTail(t *testing.T) {
	// p95 of n samples leaves n - ceil(0.95 n) beyond it: 9 at 199
	// samples, 10 at 200.
	d := summarize(seq(1, 199), 0.95)
	if d.TailOK || d.Tail != 190 {
		t.Fatalf("199 samples: got %+v, want p95=190 not reportable", d)
	}
	d = summarize(seq(1, 200), 0.95)
	if !d.TailOK || d.Tail != 190 || d.P50 != 100 {
		t.Fatalf("200 samples: got %+v, want p50=100 and a reportable p95=190", d)
	}
	if v, err := d.tail("x_p95"); err != nil || v != 190 {
		t.Fatalf("tail: %v, %v", v, err)
	}
}

func TestSummarizeTiesDoNotCountAsBeyond(t *testing.T) {
	// 400 samples whose top 30 tie: p95 falls on the tied value and
	// nothing lies strictly beyond it.
	xs := seq(1, 370)
	for i := 0; i < 30; i++ {
		xs = append(xs, 1000)
	}
	d := summarize(xs, 0.95)
	if d.Tail != 1000 || d.TailOK {
		t.Fatalf("tied tail: got %+v, want p95=1000 not reportable", d)
	}
	// All samples equal: the median is the value, the tail is not
	// reportable.
	d = summarize([]float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 0.5)
	if d.P50 != 2 || d.TailOK {
		t.Fatalf("all tied: got %+v", d)
	}
}

func TestSummarizeIgnoresInputOrder(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	d := summarize(xs, 0.95)
	if d.P50 != 3 || d.Tail != 5 {
		t.Fatalf("got %+v, want p50=3 p95=5", d)
	}
	if xs[0] != 5 {
		t.Fatal("summarize reordered its input")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2 {
		t.Fatalf("median of an even count = %v, want the lower middle 2", m)
	}
}
