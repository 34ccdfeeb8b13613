// Package fifo provides a first-in first-out queue over a ring buffer,
// for the simulator's descriptor rings and interrupt queues: popping
// never shrinks the backing array and pushing never regrows it while the
// queue stays within its capacity.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue of capacity 0;
// New sizes one up front.
type Queue[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

// New returns an empty queue with room for capacity elements.
func New[T any](capacity int) Queue[T] {
	return Queue[T]{buf: make([]T, capacity)}
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Cap reports how many elements fit before Push must grow the buffer.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Push appends v at the tail. A full queue doubles its buffer, keeping
// the order; a queue sized for its bound never does.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.index(q.n)] = v
	q.n++
}

// Pop removes and returns the oldest element; ok is false if the queue is
// empty. The vacated slot is zeroed so it keeps nothing alive.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero
	q.head = q.index(1)
	q.n--
	return v, true
}

// At returns the i-th oldest element, 0 ≤ i < Len.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("fifo: index out of range")
	}
	return q.buf[q.index(i)]
}

func (q *Queue[T]) index(i int) int {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

func (q *Queue[T]) grow() {
	buf := make([]T, max(2*len(q.buf), 4))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[q.index(i)]
	}
	q.buf, q.head = buf, 0
}
