// Fixture for the lockorder analyzer: unbalanced acquires are flagged,
// in declarations and in literals; deferred unlocks, failure-path exits
// and TryLock are exempt.
package lockordertest

import (
	"errors"
	"sync"
)

var a sync.Mutex

// LeakyLock returns on one branch without unlocking, and the branch is
// not a failure exit.
func LeakyLock(cond bool) {
	a.Lock() // want `lockordertest\.a acquired with Lock is not released on every non-failure path`
	if cond {
		return
	}
	a.Unlock()
}

// LeakyRead: same discipline applies to read locks, matched by RUnlock.
func LeakyRead(cond bool) {
	var rw sync.RWMutex
	rw.RLock() // want `rw acquired with RLock is not released on every non-failure path`
	if cond {
		return
	}
	rw.RUnlock()
}

// DeferredOK is exempt: the unlock is deferred, so every exit releases.
func DeferredOK(cond bool) error {
	a.Lock()
	defer a.Unlock()
	if cond {
		return errors.New("boom")
	}
	return nil
}

// ReturnBeforeDefer leaks on the early return: the deferred release only
// covers the paths that reach the defer statement.
func ReturnBeforeDefer(cond bool) {
	a.Lock() // want `lockordertest\.a acquired with Lock is not released on every non-failure path`
	if cond {
		return
	}
	defer a.Unlock()
}

// DeferredFirstOK is exempt: a release deferred before the acquire runs
// at every exit after it.
func DeferredFirstOK(cond bool) {
	defer a.Unlock()
	a.Lock()
	if cond {
		return
	}
}

// DeferredLitOK is exempt: the release lives inside a deferred literal.
func DeferredLitOK() {
	a.Lock()
	defer func() {
		a.Unlock()
	}()
}

// ErrPathNoUnlock is exempt: the unbalanced exit returns a non-nil
// error, a failure path that ends the run (same cold-path contract as
// hotalloc).
func ErrPathNoUnlock(cond bool) error {
	a.Lock()
	if cond {
		return errors.New("boom")
	}
	a.Unlock()
	return nil
}

// TryOK is exempt: TryLock is conditional by construction.
func TryOK() {
	if a.TryLock() {
		a.Unlock()
	}
}

// LeakyGoroutine: a spawned literal is checked as a function of its own.
func LeakyGoroutine(cond bool) {
	go func() {
		a.Lock() // want `lockordertest\.a acquired with Lock is not released on every non-failure path`
		if cond {
			return
		}
		a.Unlock()
	}()
}
