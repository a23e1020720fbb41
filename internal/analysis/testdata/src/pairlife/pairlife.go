// Package pairlife exercises the pair-lifetime rule: values produced
// by //chirp:acquires functions must reach a //chirp:releases call on
// every path, fail-fast error paths are refined away, and escaping
// values stop being tracked.
package pairlife

import "errors"

type res struct{ n int }

type holder struct{ r *res }

// acquire hands out a tracked resource.
//
//chirp:acquires widget
func acquire(ok bool) (*res, error) {
	if !ok {
		return nil, errors.New("no")
	}
	return &res{}, nil
}

// release returns a tracked resource.
//
//chirp:releases widget
func release(r *res) {}

// Close releases the resource through a method.
//
//chirp:releases widget
func (r *res) Close() {}

// retain returns a handle with a release closure.
//
//chirp:acquires handle
func retain() (string, func(), error) {
	return "h", func() {}, nil
}

func use(r *res) int { return r.n }

// cleanPath acquires, checks the error, uses, releases.
func cleanPath() (int, error) {
	r, err := acquire(true)
	if err != nil {
		return 0, err
	}
	n := use(r)
	release(r)
	return n, nil
}

// cleanDefer releases via defer on every path.
func cleanDefer(flag bool) (int, error) {
	r, err := acquire(true)
	if err != nil {
		return 0, err
	}
	defer release(r)
	if flag {
		return r.n, nil
	}
	return use(r), nil
}

// cleanMethod releases through the annotated method.
func cleanMethod() error {
	r, err := acquire(true)
	if err != nil {
		return err
	}
	r.Close()
	return nil
}

// secondErrorLeaks forgets the release on the second error path —
// the exact bug class this rule exists for.
func secondErrorLeaks(flag bool) (int, error) {
	r, err := acquire(true)
	if err != nil {
		return 0, err
	}
	n, err2 := other(flag)
	if err2 != nil {
		return 0, err2 // want "return may leak"
	}
	release(r)
	return n, nil
}

func other(flag bool) (int, error) {
	if flag {
		return 0, errors.New("other")
	}
	return 1, nil
}

// branchLeaks releases on one branch only.
func branchLeaks(flag bool) {
	r, err := acquire(true)
	if err != nil {
		return
	}
	if flag {
		release(r)
	}
} // want "function may end leaking"

// discarded drops the acquired value on the floor.
func discarded() {
	acquire(true)
} // want "function may end leaking"

// escapesReturn hands the resource to the caller: not a leak here.
func escapesReturn() (*res, error) {
	return acquire(true)
}

// escapesVar hands a bound resource to the caller.
func escapesVar() (*res, error) {
	r, err := acquire(true)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// escapesStruct stores the resource into a longer-lived holder.
func escapesStruct() (*holder, error) {
	r, err := acquire(true)
	if err != nil {
		return nil, err
	}
	return &holder{r: r}, nil
}

// escapesField stores the resource into a field.
func escapesField(h *holder) error {
	r, err := acquire(true)
	if err != nil {
		return err
	}
	h.r = r
	return nil
}

// escapesClosure lets a function literal own the release.
func escapesClosure() (func(), error) {
	r, err := acquire(true)
	if err != nil {
		return nil, err
	}
	return func() { release(r) }, nil
}

// borrow passes the resource to an ordinary callee and still owns it:
// forgetting the release afterwards is a leak.
func borrow() {
	r, err := acquire(true)
	if err != nil {
		return
	}
	use(r)
} // want "function may end leaking"

// closureRelease calls the acquired release closure.
func closureRelease() error {
	_, done, err := retain()
	if err != nil {
		return err
	}
	done()
	return nil
}

// closureDeferRelease defers the acquired release closure.
func closureDeferRelease(flag bool) error {
	_, done, err := retain()
	if err != nil {
		return err
	}
	defer done()
	if flag {
		return errors.New("later")
	}
	return nil
}

// closureLeak forgets to call the release closure on the early return.
func closureLeak(flag bool) error {
	_, done, err := retain()
	if err != nil {
		return err
	}
	if flag {
		return errors.New("early") // want "return may leak"
	}
	done()
	return nil
}

// loopClean acquires and releases every iteration.
func loopClean(n int) {
	for i := 0; i < n; i++ {
		r, err := acquire(true)
		if err != nil {
			continue
		}
		release(r)
	}
}

// sharedCleanup intentionally leaks here; a process-exit hook owns it.
//
//chirp:allow pair-lifetime released by the process-exit hook
func sharedCleanup() {
	acquire(true)
}
