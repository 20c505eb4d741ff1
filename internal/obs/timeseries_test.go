package obs

import (
	"strings"
	"testing"

	"ddosim/internal/sim"
)

func TestWindowsSampleAndCSV(t *testing.T) {
	w := NewWindows(sim.Second)
	infected := 0.0
	sent := 0.0
	w.Column("infected", func() float64 { return infected })
	w.DeltaColumn("tx_bytes", func() float64 { return sent })

	infected, sent = 2, 1000
	w.Sample(1 * sim.Second)
	infected, sent = 5, 1800
	w.Sample(2 * sim.Second)

	if w.Rows() != 2 {
		t.Fatalf("rows=%d", w.Rows())
	}
	var sb strings.Builder
	if err := w.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "window_start_s,infected,tx_bytes\n0,2,1000\n1,5,800\n"
	if sb.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWindowsValuesZeroFillsPastLastRow(t *testing.T) {
	w := NewWindows(sim.Second)
	sent := 0.0
	w.DeltaColumn("tx_bytes", func() float64 { return sent })
	w.Column("gauge", func() float64 { return 7 })
	sent = 100
	w.Sample(1 * sim.Second)
	w.Sample(2 * sim.Second) // a quiet second
	sent = 130
	w.Sample(3 * sim.Second)

	got := w.Values("tx_bytes", -1, 5)
	want := []float64{0, 100, 0, 30, 0, 0}
	if len(got) != len(want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
	if g := w.Values("gauge", 2, 3); len(g) != 1 || g[0] != 7 {
		t.Fatalf("gauge row 2 = %v", g)
	}
	if g := w.Values("tx_bytes", 3, 3); len(g) != 0 {
		t.Fatalf("empty range = %v", g)
	}
	var nilW *Windows
	if g := nilW.Values("tx_bytes", 0, 2); len(g) != 2 || g[0] != 0 || g[1] != 0 {
		t.Fatalf("nil windows = %v", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered column read without a panic")
		}
	}()
	w.Values("tx_byte", 0, 1)
}

func TestWindowsSampleIdempotentAtSameInstant(t *testing.T) {
	w := NewWindows(sim.Second)
	calls := 0
	w.Column("c", func() float64 { calls++; return float64(calls) })
	w.Sample(1 * sim.Second)
	w.Sample(1 * sim.Second) // tail flush colliding with ticker fire
	w.Sample(500 * sim.Millisecond)
	if w.Rows() != 1 || calls != 1 {
		t.Fatalf("rows=%d calls=%d, want 1/1", w.Rows(), calls)
	}
}

func TestWindowsReadsOncePerSampleInOrder(t *testing.T) {
	w := NewWindows(sim.Second)
	var order []string
	w.Column("a", func() float64 { order = append(order, "a"); return 0 })
	w.Column("b", func() float64 { order = append(order, "b"); return 0 })
	w.Sample(1 * sim.Second)
	w.Sample(2 * sim.Second)
	if got := strings.Join(order, ""); got != "abab" {
		t.Fatalf("read order %q", got)
	}
}

func TestWindowsWriteJSONL(t *testing.T) {
	w := NewWindows(sim.Second)
	w.Column("infected", func() float64 { return 3 })
	w.Column("rate", func() float64 { return 0.5 })
	w.Sample(1 * sim.Second)
	var sb strings.Builder
	if err := w.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"t_s":0,"infected":3,"rate":0.5}` + "\n"
	if sb.String() != want {
		t.Fatalf("jsonl:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWindowsNilSafe(t *testing.T) {
	var w *Windows
	w.Column("x", func() float64 { return 1 })
	w.DeltaColumn("y", func() float64 { return 1 })
	w.Sample(sim.Second)
	if w.Rows() != 0 || w.Width() != 0 {
		t.Fatal("nil windows should be inert")
	}
	var sb strings.Builder
	if err := w.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "window_start_s\n" {
		t.Fatalf("nil csv %q", sb.String())
	}
	if err := w.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestNewWindowsPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindows(0)
}
