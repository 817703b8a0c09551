package netrun

import (
	"errors"
	"sync"
	"time"
)

// mailbox is an unbounded FIFO with a single consumer: a slice queue under
// a mutex plus a one-slot ready channel. put never blocks, so whatever
// fills a mailbox (an endpoint's receive path filling its node's inbox, a
// stream link's Send filling its writer's queue) can never stall behind a
// slow consumer. It needs no capacity: the stop-and-wait ARQ lets a sender
// run at most one frame ahead of the acknowledgements, so a queue only
// grows with frames a consumer has not asked for yet.
type mailbox[T any] struct {
	mu    sync.Mutex
	items []T
	head  int
	// ready holds a token whenever a put may have found the consumer
	// waiting; a stale token only costs the consumer one empty take. A
	// node's endpoints leave their ack tokens here too (see endpoint), so
	// the node's loop waits on one channel whatever it waits for.
	ready chan struct{}
}

func newMailbox[T any]() mailbox[T] {
	return mailbox[T]{ready: make(chan struct{}, 1)}
}

// put appends v and wakes the consumer.
func (mb *mailbox[T]) put(v T) {
	mb.mu.Lock()
	mb.items = append(mb.items, v)
	mb.mu.Unlock()
	select {
	case mb.ready <- struct{}{}:
	default:
	}
}

// take pops the oldest item, if any. Once the queue empties its backing
// array is reused from the front, so a steady trickle allocates nothing.
func (mb *mailbox[T]) take() (v T, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.head == len(mb.items) {
		return v, false
	}
	v = mb.items[mb.head]
	var zero T
	mb.items[mb.head] = zero // drop the reference for the collector
	mb.head++
	if mb.head == len(mb.items) {
		mb.items, mb.head = mb.items[:0], 0
	}
	return v, true
}

// errNoItem reports that a mailbox wait ran out its deadline.
var errNoItem = errors.New("netrun: mailbox wait timed out")

// next returns the oldest item, waiting up to d for one on timer t, or
// with no deadline when t is nil. It returns errNoItem when d passes, and
// ErrLinkClosed once done is closed and nothing is left queued: an item
// that raced with the close is still delivered.
func (mb *mailbox[T]) next(t *waitTimer, d time.Duration, done <-chan struct{}) (T, error) {
	if v, ok := mb.take(); ok {
		return v, nil
	}
	var expired <-chan time.Time
	if t != nil {
		expired = t.arm(d)
		defer t.disarm()
	}
	for {
		select {
		case <-mb.ready:
			if v, ok := mb.take(); ok {
				return v, nil
			}
		case <-expired:
			var zero T
			return zero, errNoItem
		case <-done:
			if v, ok := mb.take(); ok {
				return v, nil
			}
			var zero T
			return zero, ErrLinkClosed
		}
	}
}

// waitTimer is a one-shot timer reused across the waits of one goroutine,
// so a wait allocates no timer. Every arm must be followed by disarm on
// every return path: an armed timer stays in the runtime's timer heap
// until it fires, so one left behind by a long receive deadline would
// outlive its run.
type waitTimer struct {
	t *time.Timer
}

// arm starts the timer for d and returns the channel it fires on.
func (w *waitTimer) arm(d time.Duration) <-chan time.Time {
	if w.t == nil {
		w.t = time.NewTimer(d)
	} else {
		w.t.Reset(d)
	}
	return w.t.C
}

// disarm stops the timer and drains a fire nobody received. With this
// module's go 1.22 timer semantics the channel is buffered and Stop does
// not drain it, so without the drain the next arm would see a stale fire.
func (w *waitTimer) disarm() {
	if !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
}
