// Package deque implements an owner-only double-ended queue. The
// work-stealing runtime (internal/steal) queues each worker's seeded
// tasks in one; a worker's private deque of the paper (Kimmig et al.
// §3.2) is its search's own depth-first frames, which need no queue.
//
// The deque is deliberately unsynchronized: each worker owns one and is
// the only goroutine that ever touches it.
package deque

// Deque is a growable ring-buffer double-ended queue. The zero value is
// an empty deque ready for use. It is NOT safe for concurrent use; see
// the package comment for the ownership discipline.
type Deque[T any] struct {
	buf   []T
	head  int // index of front element, valid when size > 0
	size  int
	zeroT T
}

// Len returns the number of elements.
func (d *Deque[T]) Len() int { return d.size }

// Empty reports whether the deque holds no elements.
func (d *Deque[T]) Empty() bool { return d.size == 0 }

// grow doubles capacity, re-linearizing the ring.
func (d *Deque[T]) grow() {
	newCap := 2 * len(d.buf)
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]T, newCap)
	for i := 0; i < d.size; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = buf
	d.head = 0
}

// PushFront adds x at the front (the owner's DFS end).
func (d *Deque[T]) PushFront(x T) {
	if d.size == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = x
	d.size++
}

// PushBack adds x at the back. The engines use it for the initial work
// distribution (§3.3), which deals root-level tasks to the back so that
// the owner still works depth-first from the front.
func (d *Deque[T]) PushBack(x T) {
	if d.size == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.size)%len(d.buf)] = x
	d.size++
}

// PopFront removes and returns the front element. ok is false when the
// deque is empty.
func (d *Deque[T]) PopFront() (x T, ok bool) {
	if d.size == 0 {
		return d.zeroT, false
	}
	x = d.buf[d.head]
	d.buf[d.head] = d.zeroT // release references for the GC
	d.head = (d.head + 1) % len(d.buf)
	d.size--
	return x, true
}

// PopBack removes and returns the back element (the steal end). ok is
// false when the deque is empty.
func (d *Deque[T]) PopBack() (x T, ok bool) {
	if d.size == 0 {
		return d.zeroT, false
	}
	i := (d.head + d.size - 1) % len(d.buf)
	x = d.buf[i]
	d.buf[i] = d.zeroT
	d.size--
	return x, true
}

// Front returns the front element without removing it.
func (d *Deque[T]) Front() (x T, ok bool) {
	if d.size == 0 {
		return d.zeroT, false
	}
	return d.buf[d.head], true
}

// Back returns the back element without removing it.
func (d *Deque[T]) Back() (x T, ok bool) {
	if d.size == 0 {
		return d.zeroT, false
	}
	return d.buf[(d.head+d.size-1)%len(d.buf)], true
}

// Clear removes all elements, keeping capacity.
func (d *Deque[T]) Clear() {
	for i := 0; i < d.size; i++ {
		d.buf[(d.head+i)%len(d.buf)] = d.zeroT
	}
	d.head = 0
	d.size = 0
}
