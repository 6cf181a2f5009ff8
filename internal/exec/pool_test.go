package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Cells must execute every index exactly once in both modes and return
// the lowest-indexed error regardless of completion order.
func TestCells(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		hit := make([]atomic.Bool, 100)
		if err := Cells(context.Background(), workers, len(hit), func(i int) error {
			if hit[i].Swap(true) {
				t.Errorf("cell %d ran twice", i)
			}
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 100 {
			t.Errorf("workers=%d: ran %d cells, want 100", workers, ran.Load())
		}

		errLow, errHigh := errors.New("low"), errors.New("high")
		err := Cells(context.Background(), workers, 50, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			}
			return nil
		})
		// Serial mode stops at the first failure; parallel mode finishes
		// the batch. Both must surface the lowest-indexed error.
		if err != errLow {
			t.Errorf("workers=%d: got error %v, want lowest-indexed %v", workers, err, errLow)
		}
	}

	if err := Cells(context.Background(), 4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero cells must be a no-op, got %v", err)
	}
	if got := Workers(false, 8); got != 1 {
		t.Errorf("Workers(false, 8) = %d, want 1", got)
	}
	if got := Workers(true, 0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(true, 0) = %d, want GOMAXPROCS", got)
	}
}

// Once ctx is done the pool hands out no further cell, returns ctx's
// error, and leaves no goroutine behind.
func TestCellsStopAtCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := Cells(ctx, workers, 1000, func(i int) error {
			if ran.Add(1) == 10 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		// Each worker may finish the cell it already holds.
		if n := ran.Load(); n < 10 || n > int64(9+workers) {
			t.Errorf("workers=%d: ran %d cells after cancelling at the 10th", workers, n)
		}
	}

	// A cell error below the cancellation point still wins.
	ctx, cancel := context.WithCancel(context.Background())
	errCell := errors.New("cell 2")
	err := Cells(ctx, 1, 10, func(i int) error {
		if i == 2 {
			cancel()
			return errCell
		}
		return nil
	})
	cancel()
	if err != errCell {
		t.Errorf("got %v, want the failing cell's error", err)
	}

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
