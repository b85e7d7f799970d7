// Package memo holds the program's one single-flight memo, Group. The
// method is affordable because each expensive product — a benchmark
// trace, a BADCO model, a population IPC table — is computed once and
// shared by every workload that reads it; Group is how each is computed
// once.
package memo

import (
	"context"
	"errors"
	"sync"
)

// entry is one in-flight (or settled) computation of a value.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Group memoizes one value per key with single-flight semantics:
// concurrent callers of the same key block on a single computation,
// while different keys compute independently and may run in parallel.
// The mutex only guards the entry map, never a computation. The zero
// Group is empty and ready to use.
//
// A computation that fails (most commonly: its context was cancelled) is
// not memoized — the entry is dropped, the failure is reported to every
// caller blocked on it, and the next caller recomputes. A waiter whose
// own context is cancelled stops waiting with that context's error while
// the computation keeps running for the remaining callers.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
}

// Do returns the memoized value for key, computing it at most once.
func (g *Group[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	for {
		g.mu.Lock()
		if e, ok := g.m[key]; ok {
			g.mu.Unlock()
			select {
			case <-e.done:
				if e.err != nil && isCtxErr(e.err) && ctx.Err() == nil {
					// The computing caller was cancelled, but this
					// waiter is live: retry with our own context
					// instead of inheriting someone else's
					// cancellation. (The failed entry was already
					// dropped, so the loop starts a fresh computation.)
					continue
				}
				return e.val, e.err
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		if g.m == nil {
			g.m = make(map[K]*entry[V])
		}
		e := &entry[V]{done: make(chan struct{})}
		g.m[key] = e
		g.mu.Unlock()
		e.val, e.err = compute()
		if e.err != nil {
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
		}
		close(e.done)
		return e.val, e.err
	}
}

// Cached returns key's value if a computation of it has already
// succeeded, without waiting on or starting one.
func (g *Group[K, V]) Cached(key K) (V, bool) {
	g.mu.Lock()
	e, ok := g.m[key]
	g.mu.Unlock()
	if ok {
		select {
		case <-e.done:
			if e.err == nil {
				return e.val, true
			}
		default:
		}
	}
	var zero V
	return zero, false
}

// Forget drops key's settled value, so the next Do recomputes it. An
// in-flight computation is left alone (it is in use by definition): its
// callers still receive the value, and the entry becomes forgettable
// once settled. Forgetting an unknown key is a no-op.
func (g *Group[K, V]) Forget(key K) {
	g.mu.Lock()
	if e, ok := g.m[key]; ok {
		select {
		case <-e.done:
			delete(g.m, key)
		default:
		}
	}
	g.mu.Unlock()
}

// Len returns the number of memoized and in-flight entries.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

// isCtxErr reports whether err is a context cancellation/deadline — the
// only failures worth retrying on behalf of a live waiter (a
// deterministic compute error would just fail again).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
