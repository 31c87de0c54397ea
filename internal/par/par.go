// Package par provides the bounded worker pool shared by the solver's
// parallel restart portfolio (internal/solc) and the experiment harness
// ensemble fan-outs (internal/experiments). Work items are claimed in
// index order, so a pool of size 1 degenerates to a plain sequential loop.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Limit normalizes a parallelism request: values ≤ 0 select GOMAXPROCS.
func Limit(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// bg tracks every goroutine started by Go, so Join can act as a
// process-exit barrier; the obs tests use it to join the exposition
// server's goroutine.
var bg sync.WaitGroup

// Go runs fn on its own goroutine. It exists for the few long-lived
// service goroutines (the obs exposition server) that do not fit the
// bounded ForEach pool; everything fan-out shaped must keep using
// ForEach. Callers own fn's termination — typically a Shutdown call plus
// a private done channel — and Join offers a global barrier over every
// Go-started goroutine for orderly process exit and leak-checking tests.
func Go(fn func()) {
	bg.Add(1)
	go func() {
		defer bg.Done()
		fn()
	}()
}

// Join blocks until every goroutine started by Go has returned.
func Join() { bg.Wait() }

// ForEach runs fn(ctx, i) for every i in [0, n) on at most Limit(parallelism)
// goroutines and blocks until every started call returns. Indices are
// claimed in increasing order; at parallelism 1 the loop runs on the
// calling goroutine. Once ctx is cancelled, unclaimed indices are skipped;
// fn is responsible for observing ctx during long calls.
func ForEach(ctx context.Context, n, parallelism int, fn func(ctx context.Context, i int)) {
	if n <= 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := Limit(parallelism)
	if p == 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(ctx, i)
		}
		return
	}
	if ctx.Err() != nil {
		return // already cancelled: don't spawn workers that would only observe it
	}
	if p > n {
		p = n
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				fn(ctx, i)
			}
		}()
	}
	wg.Wait()
}
