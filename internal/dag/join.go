package dag

// Join runs side on a goroutine of its own while main runs on the
// caller's, and returns once both have returned: side's error when it
// failed, main's otherwise. It is how the compile pipeline overlaps
// passes that only read their shared inputs and each write outputs of
// their own. The fixed precedence makes the result the one running side
// and then main would give, so overlapping a pass never changes an
// error. A panic in side is raised again on the caller's goroutine, as
// if side had run there. No goroutine outlives the call, even when main
// panics.
func Join(side, main func() error) (err error) {
	type result struct {
		err      error
		panicked bool
		value    any
	}
	done := make(chan result, 1)
	go func() {
		r := result{panicked: true}
		defer func() {
			if r.panicked {
				r.value = recover()
			}
			done <- r
		}()
		r.err = side()
		r.panicked = false
	}()
	defer func() {
		r := <-done
		if r.panicked {
			panic(r.value)
		}
		if r.err != nil {
			err = r.err
		}
	}()
	return main()
}
