package provenance

import "testing"

func TestHistoryBoundedWindowAndQuantiles(t *testing.T) {
	h := newHistory(4)
	if _, ok := h.quantile("sig", 0.95); ok {
		t.Fatal("quantile on empty history")
	}
	for _, v := range []float64{10, 20, 30} {
		h.add("sig", v)
	}
	if got, _ := h.quantile("sig", 0.95); got != 30 {
		t.Fatalf("p95 of {10,20,30} = %v", got)
	}
	if got, _ := h.quantile("sig", 0.5); got != 20 {
		t.Fatalf("p50 of {10,20,30} = %v", got)
	}
	// Overflow the window: the oldest samples fall out.
	for _, v := range []float64{40, 50, 60} {
		h.add("sig", v)
	}
	if h.count("sig") != 4 {
		t.Fatalf("window count = %d, want 4", h.count("sig"))
	}
	if got, _ := h.quantile("sig", 0.95); got != 60 {
		t.Fatalf("p95 of sliding window = %v, want 60", got)
	}
	if got, _ := h.quantile("sig", 0.0); got != 30 {
		t.Fatalf("min of sliding window = %v, want 30", got)
	}
	// Cached sorted window survives repeated queries.
	if got, _ := h.quantile("sig", 0.95); got != 60 {
		t.Fatal("cached quantile diverged")
	}
}
