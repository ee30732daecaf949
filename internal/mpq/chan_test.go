package mpq

// ChanQueue adapts a buffered Go channel to the Queue interface: the
// reference backend the contract tests and the ablation benchmarks run
// beside the rings. It is test-only — no construction has a channel
// transport.
type ChanQueue struct {
	ch chan Msg
}

// NewChan creates a channel-backed queue with the given capacity.
func NewChan(cap int) *ChanQueue { return &ChanQueue{ch: make(chan Msg, cap)} }

// Send implements Queue.
func (q *ChanQueue) Send(m Msg) { q.ch <- m }

// Recv implements Queue.
func (q *ChanQueue) Recv() Msg { return <-q.ch }

// TryRecv implements Queue.
func (q *ChanQueue) TryRecv() (Msg, bool) {
	select {
	case m := <-q.ch:
		return m, true
	default:
		return Msg{}, false
	}
}

// RecvBatch implements Queue.
func (q *ChanQueue) RecvBatch(buf []Msg) int { return recvBatchBlocking(q, buf) }

// TryRecvBatch implements Queue.
func (q *ChanQueue) TryRecvBatch(buf []Msg) int {
	n := 0
	for n < len(buf) {
		select {
		case m := <-q.ch:
			buf[n] = m
			n++
		default:
			return n
		}
	}
	return n
}

// Empty implements Queue.
func (q *ChanQueue) Empty() bool { return len(q.ch) == 0 }
