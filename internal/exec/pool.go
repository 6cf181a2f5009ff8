package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the pool width a caller's Parallel and Workers options ask
// for: 1 (serial) unless parallel is set, else workers, where zero or
// less means GOMAXPROCS.
func Workers(parallel bool, workers int) int {
	if !parallel {
		return 1
	}
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Cells runs cell(0), …, cell(n-1) on a deterministic worker pool of at
// most workers goroutines, serially when workers < 2. Cells write their
// results into slots the caller indexed beforehand, so a parallel run
// assembles output identical to a serial one. Cells are handed out in
// index order, and none is handed out once ctx is done; a nil ctx never
// cancels. The error returned is the lowest-indexed cell's error in
// both modes, else ctx's error if any cell was never handed out.
func Cells(ctx context.Context, workers, n int, cell func(i int) error) error {
	if n <= 0 {
		return nil
	}
	done := func() bool { return ctx != nil && ctx.Err() != nil }
	if workers < 2 || n == 1 {
		for i := 0; i < n; i++ {
			if done() {
				return ctx.Err()
			}
			if err := cell(i); err != nil {
				return err
			}
		}
		return nil
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	// Every claimed index below n ran; the cells never handed out are
	// those at or above the claim count.
	handed := min(int(next.Load()), n)
	for _, err := range errs[:handed] {
		if err != nil {
			return err
		}
	}
	if handed < n {
		return ctx.Err()
	}
	return nil
}
