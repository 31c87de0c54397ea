package cfg_test

import (
	"go/ast"
	"testing"

	"repro/internal/analysis/cfg"
)

const concSrc = `package p

import (
	"context"
	"sync"
)

type S struct {
	mu sync.Mutex
	wg sync.WaitGroup
}

func worker(ch chan int) {}

func (s *S) run(ctx context.Context, in chan int) {
	if ctx.Err() != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var rw sync.RWMutex
	rw.RLock()
	rw.RUnlock()
	done := make(chan struct{})
	buf := make(chan int, 4)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-in:
				buf <- v
			}
		}
	}()
	go worker(buf)
	s.wg.Wait()
	close(done)
	<-done
	for range in {
	}
}
`

// TestConcSummaryDumpGolden pins the mutex-op summary of a function
// that also exercises the operations the summary ignores (context polls,
// WaitGroup calls, channel ops, a named spawn). Every function literal —
// the spawned goroutine body included — is a boundary: its interior ops
// (the deferred Done, the ctx.Done select, the send on buf) belong to
// the literal's own summary, pinned by the second golden below.
func TestConcSummaryDumpGolden(t *testing.T) {
	fset, file, info := check(t, concSrc)
	var fd *ast.FuncDecl
	for _, d := range file.Decls {
		if f, ok := d.(*ast.FuncDecl); ok && f.Name.Name == "run" {
			fd = f
		}
	}
	sum := cfg.Summarize(fd.Body, info)

	want := `mutex Lock (p.S).mu @19
mutex Unlock (p.S).mu deferred @20
mutex RLock rw @22
mutex RUnlock rw @23
lit @27
`
	if got := sum.Dump(fset); got != want {
		t.Errorf("summary dump mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	if len(sum.Lits) != 1 || len(sum.Deferred) != 0 {
		t.Fatalf("want the spawned literal as the one non-deferred literal, got %d literals, %d deferred", len(sum.Lits), len(sum.Deferred))
	}
	inner := cfg.Summarize(sum.Lits[0], info)
	if got := inner.Dump(fset); got != "" {
		t.Errorf("spawned body holds no mutex op, got:\n%s", got)
	}
}
