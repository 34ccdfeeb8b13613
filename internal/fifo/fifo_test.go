package fifo

import "testing"

// TestQueueWrapsAround pushes and pops through the buffer's end many
// times at every fill level, checking order against a slice model.
func TestQueueWrapsAround(t *testing.T) {
	const capacity = 5
	q := New[int](capacity)
	var model []int
	next := 0
	for round := 0; round < 4*capacity; round++ {
		for q.Len() < round%capacity+1 {
			q.Push(next)
			model = append(model, next)
			next++
		}
		for i, want := range model {
			if got := q.At(i); got != want {
				t.Fatalf("round %d: At(%d) = %d, want %d", round, i, got, want)
			}
		}
		for q.Len() > round%2 {
			got, ok := q.Pop()
			if !ok || got != model[0] {
				t.Fatalf("round %d: Pop = (%d, %v), want (%d, true)", round, got, ok, model[0])
			}
			model = model[1:]
		}
	}
	if q.Cap() != capacity {
		t.Fatalf("Cap = %d after staying within capacity, want %d", q.Cap(), capacity)
	}
	// Every push past the capacity reused a slot of the one buffer.
	if next <= 2*capacity {
		t.Fatalf("only %d pushes: the test did not wrap", next)
	}
}

// TestQueueGrowKeepsOrder overfills a wrapped queue: the buffer grows
// and the elements still come out in push order.
func TestQueueGrowKeepsOrder(t *testing.T) {
	q := New[int](3)
	q.Push(0)
	q.Push(1)
	q.Pop()
	q.Pop() // head is now 2: the next pushes wrap
	for i := 2; i < 12; i++ {
		q.Push(i)
	}
	if q.Cap() < 10 {
		t.Fatalf("Cap = %d holding 10 elements", q.Cap())
	}
	for want := 2; want < 12; want++ {
		if got, ok := q.Pop(); !ok || got != want {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", got, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on an empty queue reported an element")
	}
}

func TestQueueZeroValueAndPopClears(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	q.Push(v)
	if got, ok := q.Pop(); !ok || got != v {
		t.Fatal("zero-value queue lost its element")
	}
	for i := 0; i < q.Cap(); i++ {
		if q.buf[i] != nil {
			t.Fatalf("slot %d still references a popped element", i)
		}
	}
}

func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	q := New[int](8)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}); n != 0 {
		t.Fatalf("%v allocs per fill and drain, want 0", n)
	}
}
