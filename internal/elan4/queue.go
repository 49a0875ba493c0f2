package elan4

import (
	"qsmpi/internal/simtime"
)

// QueuedMsg is one message deposited into a receive queue by a QDMA.
type QueuedMsg struct {
	SrcVPID int
	Data    []byte
}

// RecvQueue is a QDMA receive queue: a ring of fixed-size slots (QSLOTS in
// Quadrics terminology) that remote processes post small messages into.
// Each deposit increments the queue's host event word; the host consumes
// slots with Poll and must Free them to make room. The paper builds both
// its incoming-message path and its shared completion queue out of these.
type RecvQueue struct {
	ctx      *Context
	id       int
	slotSize int
	slots    []QueuedMsg
	// slotBufs are the per-slot backing arrays, allocated once (lazily)
	// and reused for every deposit into that slot — the hardware reality
	// of a QSLOT ring, and the reason deposits allocate nothing.
	slotBufs [][]byte
	head     int // next slot to poll
	count    int // occupied slots

	// HostWord is incremented once per deposit; hosts poll or block on it.
	hostWord *simtime.Counter
	// notify are extra host words bumped on every deposit (e.g. a shared
	// "any activity" word the PML progress engine waits on).
	notify []*simtime.Counter

	irqArmed  bool
	irqSignal *simtime.Signal

	// event, if set, is triggered (count decremented after the NIC's
	// event-update cost) on every accepted deposit — the queue
	// descriptor's event field in Elan4 hardware. The collective trees
	// chain their combine step off it.
	event *Event

	deposits  int64
	rejects   int64
	highWater int // deepest occupancy ever seen
}

// CreateQueue allocates receive queue id with nslots slots of the
// hardware slot size (QDMAMaxPayload). Creating an id twice panics: queue
// ids are protocol constants chosen by each transport layer.
func (c *Context) CreateQueue(id, nslots int) *RecvQueue {
	if _, dup := c.queues[id]; dup {
		panic("elan4: duplicate queue id")
	}
	q := &RecvQueue{
		ctx:      c,
		id:       id,
		slotSize: c.nic.cfg.QDMAMaxPayload,
		slots:    make([]QueuedMsg, nslots),
		slotBufs: make([][]byte, nslots),
		hostWord: simtime.NewCounter(),
	}
	c.queues[id] = q
	return q
}

// HostWord returns the counter incremented on every deposit.
func (q *RecvQueue) HostWord() *simtime.Counter { return q.hostWord }

// AddNotify registers an extra host word bumped on every deposit. Elan4
// events can target arbitrary host words; transports use this to share one
// "activity" word across many queues.
func (q *RecvQueue) AddNotify(c *simtime.Counter) { q.notify = append(q.notify, c) }

// SetEvent attaches an Elan event to the queue descriptor: every accepted
// deposit triggers it (one count decrement, charged the NIC event-update
// cost). This is how the NIC-resident collective trees learn of children's
// contributions without any host polling — the queue fills, the event
// counts down, and the chained combine fires.
func (q *RecvQueue) SetEvent(ev *Event) { q.event = ev }

// Slots returns the ring capacity.
func (q *RecvQueue) Slots() int { return len(q.slots) }

// Pending returns the number of occupied slots.
func (q *RecvQueue) Pending() int { return q.count }

// Deposits returns the total number of accepted deposits.
func (q *RecvQueue) Deposits() int64 { return q.deposits }

// Rejects returns how many deposits found the ring full (each causes a
// sender-side NACK and retry).
func (q *RecvQueue) Rejects() int64 { return q.rejects }

// HighWater returns the deepest slot occupancy the ring has reached — the
// CQ-depth metric for queues used as completion queues.
func (q *RecvQueue) HighWater() int { return q.highWater }

// Poll consumes the oldest deposited message, if any. The returned data
// aliases the slot; callers must copy or finish with it before Free-ing
// enough slots for the ring to wrap (the transport layers copy).
func (q *RecvQueue) Poll() (QueuedMsg, bool) {
	if q.count == 0 {
		return QueuedMsg{}, false
	}
	m := q.slots[q.head]
	q.slots[q.head] = QueuedMsg{}
	q.head = (q.head + 1) % len(q.slots)
	q.count--
	return m, true
}

// ArmInterrupt makes the next deposit raise a host interrupt firing sig.
// One-shot, like Event.ArmInterrupt.
func (q *RecvQueue) ArmInterrupt(sig *simtime.Signal) {
	q.irqArmed = true
	q.irqSignal = sig
}

// DisarmInterrupt cancels a pending arm.
func (q *RecvQueue) DisarmInterrupt() {
	q.irqArmed = false
	q.irqSignal = nil
}

// deposit is called by the NIC at delivery time. It returns false when the
// ring is full, which NACKs the QDMA back to the sender.
func (q *RecvQueue) deposit(src int, data []byte) bool {
	if q.count == len(q.slots) {
		q.rejects++
		return false
	}
	idx := (q.head + q.count) % len(q.slots)
	buf := q.slotBufs[idx]
	if cap(buf) < len(data) {
		size := q.slotSize
		if size < len(data) {
			size = len(data)
		}
		buf = make([]byte, size)
		q.slotBufs[idx] = buf
	}
	cp := buf[:len(data)]
	copy(cp, data)
	q.slots[idx] = QueuedMsg{SrcVPID: src, Data: cp}
	q.count++
	if q.count > q.highWater {
		q.highWater = q.count
	}
	q.deposits++
	q.hostWord.Add(1)
	for _, c := range q.notify {
		c.Add(1)
	}
	if q.irqArmed {
		q.irqArmed = false
		sig := q.irqSignal
		q.irqSignal = nil
		q.ctx.nic.raiseInterrupt(sig)
	}
	if q.event != nil {
		q.event.trigger()
	}
	return true
}
