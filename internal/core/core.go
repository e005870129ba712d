// Package core ties the library together: the columnar batch every
// structure ingests (batch.go), and the evaluation metrics the
// benchmark harness uses to regenerate the paper's Figure 1 rows
// (relative error, recall/precision for heavy hitters, total variation
// distance for samplers, and space-ratio reporting).
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"weak"
)

// OrNew returns dst, or a new T when dst is nil: the storage a structure's
// CloneInto writes its copy into.
func OrNew[T any](dst *T) *T {
	if dst == nil {
		return new(T)
	}
	return dst
}

// Grow returns (*s)[:n], first replacing *s with a fresh slice when it
// cannot hold n: the one resize rule of every reusable scratch column.
// Contents are unspecified; the caller fills them.
func Grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// Spare is one scratch column for whoever needs it next: Take lends it
// (a Take that finds it lent makes its own) and Give hands it back. It
// is held weakly, so a collection frees it as it would a sync.Pool's,
// but unlike a pool it drops nothing at random under the race detector.
// The zero value is ready.
type Spare[T any] struct {
	mu  sync.Mutex
	col weak.Pointer[[]T]
}

// Take returns the spare column, or a new one when it is lent or was
// collected, at n entries (contents unspecified).
func (s *Spare[T]) Take(n int) *[]T {
	s.mu.Lock()
	p := s.col.Value()
	s.col = weak.Pointer[[]T]{}
	s.mu.Unlock()
	if p == nil {
		p = new([]T)
	}
	Grow(p, n)
	return p
}

// Give makes p the spare column.
func (s *Spare[T]) Give(p *[]T) {
	s.mu.Lock()
	s.col = weak.Make(p)
	s.mu.Unlock()
}

// SumBlocks writes first (nil: what dst holds) plus the entries of
// parts slices into dst, all of dst's length — the table sum of a k-way
// merge of linear sketches. It runs a block at a time, so each block of
// dst stays in cache while every part is added to it.
func SumBlocks[T int64 | uint64](dst, first []T, parts int, part func(int) []T) {
	const block = 512
	for lo := 0; lo < len(dst); lo += block {
		hi := min(lo+block, len(dst))
		d := dst[lo:hi]
		if first != nil {
			copy(d, first[lo:hi])
		}
		for j := range parts {
			for c, v := range part(j)[lo:hi] {
				d[c] += v
			}
		}
	}
}

// RelErr returns |got-want| / |want| (or |got| when want == 0).
func RelErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Recall returns the fraction of `want` present in `got` (1 when `want`
// is empty).
func Recall(got, want []uint64) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[uint64]bool, len(got))
	for _, g := range got {
		set[g] = true
	}
	hit := 0
	for _, w := range want {
		if set[w] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// Precision returns the fraction of `got` present in `want` (1 when
// `got` is empty).
func Precision(got, want []uint64) float64 {
	if len(got) == 0 {
		return 1
	}
	set := make(map[uint64]bool, len(want))
	for _, w := range want {
		set[w] = true
	}
	hit := 0
	for _, g := range got {
		if set[g] {
			hit++
		}
	}
	return float64(hit) / float64(len(got))
}

// TVD returns the total variation distance between an empirical count
// map and a target distribution given as weights (normalized here).
func TVD(counts map[uint64]int, weights map[uint64]float64) float64 {
	var total int
	for _, c := range counts {
		total += c
	}
	var wTotal float64
	for _, w := range weights {
		wTotal += math.Abs(w)
	}
	if total == 0 || wTotal == 0 {
		return 1
	}
	keys := make(map[uint64]bool)
	for k := range counts {
		keys[k] = true
	}
	for k := range weights {
		keys[k] = true
	}
	var d float64
	for k := range keys {
		p := float64(counts[k]) / float64(total)
		q := math.Abs(weights[k]) / wTotal
		d += math.Abs(p - q)
	}
	return d / 2
}

// Row is one line of an experiment table.
type Row struct {
	Name   string
	Values []string
}

// Table accumulates rows and renders an aligned text table, the output
// format of cmd/bdbench.
type Table struct {
	Title   string
	Headers []string
	Rows    []Row
}

// Add appends a row.
func (t *Table) Add(name string, values ...string) {
	t.Rows = append(t.Rows, Row{Name: name, Values: values})
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers)+1)
	update := func(col int, s string) {
		if len(s) > widths[col] {
			widths[col] = len(s)
		}
	}
	update(0, "")
	for i, h := range t.Headers {
		update(i+1, h)
	}
	for _, r := range t.Rows {
		update(0, r.Name)
		for i, v := range r.Values {
			if i+1 < len(widths) {
				update(i+1, v)
			}
		}
	}
	writeRow := func(name string, vals []string) {
		fmt.Fprintf(&b, "  %-*s", widths[0], name)
		for i, v := range vals {
			if i+1 < len(widths) {
				fmt.Fprintf(&b, "  %*s", widths[i+1], v)
			} else {
				fmt.Fprintf(&b, "  %s", v)
			}
		}
		b.WriteByte('\n')
	}
	writeRow("", t.Headers)
	for _, r := range t.Rows {
		writeRow(r.Name, r.Values)
	}
	return b.String()
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs (not in place).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// Median returns the middle value.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// HumanBits renders a bit count as b / Kib / Mib (1 Kib = 1024 bits).
func HumanBits(bits int64) string {
	switch {
	case bits < 1<<13:
		return fmt.Sprintf("%db", bits)
	case bits < 1<<23:
		return fmt.Sprintf("%.1fKib", float64(bits)/1024)
	default:
		return fmt.Sprintf("%.1fMib", float64(bits)/(1024*1024))
	}
}
