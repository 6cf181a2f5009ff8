package dag

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestJoinErrorPrecedence(t *testing.T) {
	sideErr, mainErr := errors.New("side"), errors.New("main")
	fail := func(err error) func() error { return func() error { return err } }
	for _, tc := range []struct {
		side, main, want error
	}{
		{nil, nil, nil},
		{sideErr, nil, sideErr},
		{nil, mainErr, mainErr},
		{sideErr, mainErr, sideErr},
	} {
		if got := Join(fail(tc.side), fail(tc.main)); got != tc.want {
			t.Errorf("Join(%v, %v) = %v, want %v", tc.side, tc.main, got, tc.want)
		}
	}
}

// joinPanic runs Join and returns the value it panicked with, or nil.
func joinPanic(side, main func() error) (value any) {
	defer func() { value = recover() }()
	_ = Join(side, main)
	return nil
}

// A panic in side reaches the caller's goroutine, where a recover (such
// as net/http's per-request one) can catch it.
func TestJoinRaisesSidePanic(t *testing.T) {
	got := joinPanic(func() error { panic("side") }, func() error { return nil })
	if got != "side" {
		t.Fatalf("recovered %v, want side's panic", got)
	}
}

// When main panics, Join still waits for side before unwinding.
func TestJoinWaitsWhenMainPanics(t *testing.T) {
	release := make(chan struct{})
	var finished atomic.Bool
	got := joinPanic(func() error {
		<-release
		time.Sleep(10 * time.Millisecond)
		finished.Store(true)
		return nil
	}, func() error {
		close(release)
		panic("main")
	})
	if got != "main" || !finished.Load() {
		t.Fatalf("recovered %v with side finished %v, want main's panic after side finished", got, finished.Load())
	}
}
