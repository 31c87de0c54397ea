package par

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsAll(t *testing.T) {
	for _, p := range []int{1, 3, 16} {
		var hits [50]int32
		ForEach(context.Background(), len(hits), p, func(_ context.Context, i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("parallelism %d: index %d visited %d times", p, i, h)
			}
		}
	}
}

func TestForEachSequentialOrder(t *testing.T) {
	var order []int
	ForEach(context.Background(), 10, 1, func(_ context.Context, i int) {
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("pool of one must run in index order, got %v", order)
		}
	}
}

// TestForEachInlineAtOne checks that a pool of one runs fn on the calling
// goroutine, starting none, and that a cancellation between indices
// still skips the rest.
func TestForEachInlineAtOne(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int
	ForEach(ctx, 10, 1, func(_ context.Context, i int) {
		if got := runtime.NumGoroutine(); got != before {
			t.Errorf("index %d: %d goroutines inside fn, want the %d before the call", i, got, before)
		}
		if ran++; ran == 4 {
			cancel()
		}
	})
	if ran != 4 {
		t.Fatalf("ran %d items after cancellation at the fourth, want 4", ran)
	}
}

func TestForEachCancelledSkipsRest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	ForEach(ctx, 100, 1, func(_ context.Context, i int) {
		if atomic.AddInt32(&ran, 1) == 3 {
			cancel()
		}
	})
	if ran != 3 {
		t.Fatalf("ran %d items after cancellation at the third, want 3", ran)
	}
}

func TestForEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	ForEach(ctx, 10, 4, func(_ context.Context, i int) { atomic.AddInt32(&ran, 1) })
	if ran != 0 {
		t.Fatalf("ran %d items under a pre-cancelled context", ran)
	}
}

func TestForEachZeroItems(t *testing.T) {
	ForEach(context.Background(), 0, 4, func(_ context.Context, i int) {
		t.Fatal("fn called for n=0")
	})
	ForEach(nil, -3, 0, func(_ context.Context, i int) {
		t.Fatal("fn called for n<0")
	})
}

// TestForEachCancelMidFlightRace cancels from outside the pool while
// many workers are claiming indices — a regression net for the race
// detector (CI runs this package with -race): the claim counter, the
// cancellation flag and the hits array are all contended here.
func TestForEachCancelMidFlightRace(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var hits [512]int32
	var ran int32
	go func() {
		for atomic.LoadInt32(&ran) < 32 {
			runtime.Gosched()
		}
		cancel()
	}()
	ForEach(ctx, len(hits), 8, func(_ context.Context, i int) {
		atomic.AddInt32(&ran, 1)
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h > 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	if atomic.LoadInt32(&ran) < 32 {
		t.Fatalf("cancelled before the trigger count: ran %d", ran)
	}
}

func TestLimit(t *testing.T) {
	if got := Limit(3); got != 3 {
		t.Fatalf("Limit(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Limit(0); got != want {
		t.Fatalf("Limit(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Limit(-1); got != want {
		t.Fatalf("Limit(-1) = %d, want GOMAXPROCS %d", got, want)
	}
}
