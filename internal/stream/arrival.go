package stream

import "sync"

// arrivalLog records the inlet-clock arrival time of recent samples for
// ArrivalTime, in a fixed array sized to the inlet's ring: seq selects slot
// seq mod capacity, and each slot is tagged with the seq it holds. An outlet
// numbers its samples consecutively, so the at most capacity samples the
// ring holds own distinct slots, and memory stays fixed however long the
// inlet runs. A lookup for an older seq whose slot was reused misses.
type arrivalLog struct {
	mu    sync.Mutex
	slots []arrival
}

type arrival struct {
	tag uint64 // seq+1; 0 marks a slot never written
	at  float64
}

func newArrivalLog(capacity int) *arrivalLog {
	return &arrivalLog{slots: make([]arrival, capacity)}
}

func (l *arrivalLog) record(seq uint64, at float64) {
	l.mu.Lock()
	l.slots[seq%uint64(len(l.slots))] = arrival{tag: seq + 1, at: at}
	l.mu.Unlock()
}

func (l *arrivalLog) lookup(seq uint64) (float64, bool) {
	l.mu.Lock()
	a := l.slots[seq%uint64(len(l.slots))]
	l.mu.Unlock()
	return a.at, a.tag == seq+1
}
