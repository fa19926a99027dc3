package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunCatalogueIndexAligned: whatever the pool width, item i holds
// the outcome of fn(ctx, i) and every item ran exactly once.
func TestRunCatalogueIndexAligned(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 2, 8} {
		out := make([]int, n)
		items, err := RunCatalogue(context.Background(), n, workers, func(_ context.Context, i int) error {
			out[i] = i * i
			if i%7 == 3 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, it := range items {
			if !it.Done || out[i] != i*i {
				t.Errorf("workers=%d: item %d done=%v value=%d", workers, i, it.Done, out[i])
			}
			if wantErr := i%7 == 3; (it.Err != nil) != wantErr ||
				(wantErr && it.Err.Error() != fmt.Sprintf("item %d failed", i)) {
				t.Errorf("workers=%d: item %d err=%v", workers, i, it.Err)
			}
		}
	}
}

// TestRunCatalogueSingleWorkerOrder: with one worker the catalogue runs
// in list order.
func TestRunCatalogueSingleWorkerOrder(t *testing.T) {
	var order []int
	if _, err := RunCatalogue(context.Background(), 20, 1, func(_ context.Context, i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("dispatch order %v, want 0..19", order)
		}
	}
	if len(order) != 20 {
		t.Fatalf("ran %d of 20 items", len(order))
	}
}

// TestRunCatalogueWorkerBound: at most min(workers, n) items run at
// once, with <= 0 meaning GOMAXPROCS.
func TestRunCatalogueWorkerBound(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{3, 8, 3},
		{8, 2, 2},
		{2 * runtime.GOMAXPROCS(0), 0, runtime.GOMAXPROCS(0)},
		{2 * runtime.GOMAXPROCS(0), -1, runtime.GOMAXPROCS(0)},
	}
	for _, tc := range cases {
		// Every item blocks until want items are running together, so
		// the run finishes only if the pool is at least that wide; the
		// peak shows it is no wider.
		var running, peak atomic.Int32
		var mu sync.Mutex
		cond := sync.NewCond(&mu)
		arrived := 0
		_, err := RunCatalogue(context.Background(), tc.n, tc.workers, func(_ context.Context, i int) error {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			mu.Lock()
			arrived++
			if arrived <= tc.want {
				for arrived < tc.want {
					cond.Wait()
				}
				cond.Broadcast()
			}
			mu.Unlock()
			running.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", tc.n, tc.workers, err)
		}
		if got := int(peak.Load()); got != tc.want {
			t.Errorf("n=%d workers=%d: %d items ran at once, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// TestRunCatalogueCancelStopsDispatch: cancelling mid-run stops
// dispatch; the run reports the single catalogue-stopped entry wrapping
// ErrCancelled, counting only the items that finished.
func TestRunCatalogueCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	items, err := RunCatalogue(ctx, 10, 1, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 2 {
			cancel()
			return fmt.Errorf("item %d: %w", i, ErrCancelled)
		}
		return nil
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if !strings.Contains(err.Error(), "catalogue stopped after 2 of 10") {
		t.Errorf("error %q does not report 2 of 10 finished", err)
	}
	if got := ran.Load(); got != 3 {
		t.Errorf("ran %d items after cancelling at the third, want 3", got)
	}
	for i, it := range items {
		if it.Done != (i <= 2) {
			t.Errorf("item %d done=%v", i, it.Done)
		}
	}

	// An already-dead context dispatches nothing.
	items, err = RunCatalogue(ctx, 4, 2, func(context.Context, int) error {
		t.Error("item dispatched on a cancelled context")
		return nil
	})
	if !errors.Is(err, ErrCancelled) || items[0].Done {
		t.Errorf("cancelled run: err=%v items=%+v", err, items)
	}
}
