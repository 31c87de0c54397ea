package la

import (
	"slices"
	"sync"
	"testing"
)

// TestScratchPoolConcurrent compiles and symbolically factors patterns
// of several sizes from several goroutines at once, so pooled scratch
// passes between goroutines and between sizes. Every result must equal
// the one a fresh scratch gives: nothing a previous user left behind may
// show.
func TestScratchPoolConcurrent(t *testing.T) {
	type result struct {
		m  *CSR
		lu *SparseLU
	}
	build := func(n int) *Builder { return fuzzPattern(n, int64(n), 0.1, n, false) }
	fresh := func(b *Builder) result {
		m := refCompile(b)
		s := new(scratch)
		lu := &SparseLU{perm: s.mdOrder(s.adjacency(m), nil)}
		s.analyze(m, lu)
		return result{m, lu}
	}
	sizes := []int{3, 40, 11, 90, 0, 25}
	want := make([]result, len(sizes))
	for i, n := range sizes {
		want[i] = fresh(build(n))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (g + rep) % len(sizes)
				m := build(sizes[i]).Compile()
				lu, err := NewSymbolicLU(m)
				if err != nil {
					t.Error(err)
					return
				}
				w := want[i]
				if !slices.Equal(m.RowPtr, w.m.RowPtr) || !slices.Equal(m.ColIdx, w.m.ColIdx) {
					t.Errorf("n=%d: pattern differs from a fresh compile", sizes[i])
				}
				if !slices.Equal(lu.perm, w.lu.perm) || !slices.Equal(lu.aRow, w.lu.aRow) ||
					!slices.Equal(lu.li, w.lu.li) || !slices.Equal(lu.ui, w.lu.ui) || lu.lx != nil {
					t.Errorf("n=%d: symbolic template differs from a fresh analysis", sizes[i])
				}
			}
		}()
	}
	wg.Wait()
}
