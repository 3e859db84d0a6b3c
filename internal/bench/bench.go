// Package bench is the experiment harness: it regenerates every table and
// figure of the reconstructed evaluation and renders them as
// aligned-text tables.
//
// Each RunXX function builds its own small world, sweeps the experiment's
// parameter, measures, and returns a Table. cmd/p2drm-bench drives them;
// the root bench_test.go exposes the same operations as testing.B
// benchmarks for profiling.
//
// Parameters are laboratory-scale by default (768-bit group, 1024-bit
// RSA) so the full suite completes in minutes; pass quick=false for the
// production-parameter sweep where it matters (T1).
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render draws the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// timeOp measures the mean wall time of n invocations of f.
func timeOp(n int, f func() error) (time.Duration, error) {
	if n <= 0 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// fmtDur renders a duration with sensible precision for tables.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

// Runner names an experiment and its generator.
type Runner struct {
	ID  string
	Run func(quick bool) (*Table, error)
}

// All lists every experiment in report order.
func All() []Runner {
	return []Runner{
		{"T1", RunT1},
		{"T2", RunT2},
		{"T3", RunT3},
		{"T4", RunT4},
		{"T5", RunT5},
		{"F1", RunF1},
		{"F2", RunF2},
		{"F3", RunF3},
		{"A1", RunA1},
	}
}

// RunAll executes every experiment and writes rendered tables to w.
func RunAll(quick bool, w io.Writer) error {
	for _, r := range All() {
		t, err := r.Run(quick)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", r.ID, err)
		}
		if _, err := io.WriteString(w, t.Render()+"\n"); err != nil {
			return err
		}
	}
	return nil
}
