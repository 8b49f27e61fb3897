//! Deterministic discrete-event queue.
//!
//! The simulator advances by repeatedly popping the earliest pending event.
//! Determinism matters: two events scheduled for the same instant must pop
//! in the order they were pushed (stable FIFO tie-breaking), otherwise runs
//! with identical seeds could diverge depending on queue internals.
//!
//! The queue is a monotone calendar wheel. [`SLOTS`] buckets of
//! [`SLOT_PS`] picoseconds each cover a window of [`HORIZON_PS`] (about
//! 1 µs) that starts at the *cursor*, the slot of the latest popped event.
//! A bitmap of non-empty buckets finds the next bucket, and each bucket is
//! a linked list kept sorted by `(time, seq)`. Events past the window, or
//! before the cursor, go to a binary-heap overflow. A pop takes the smaller
//! of the wheel head and the overflow head, so events leave in exactly
//! `(time, seq)` order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the bucket width in picoseconds.
const SLOT_SHIFT: u32 = 10;
/// Width of one wheel bucket: 1024 ps.
pub const SLOT_PS: u64 = 1 << SLOT_SHIFT;
/// Number of wheel buckets.
pub const SLOTS: usize = 1024;
/// Span of the wheel window: events this far past the cursor overflow.
pub const HORIZON_PS: u64 = SLOT_PS * SLOTS as u64;
const WORDS: usize = SLOTS / 64;
/// End-of-list marker for node links.
const NIL: u32 = u32::MAX;

/// A scheduled entry: `(time, sequence, payload)` with min-ordering.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the earliest
        // (and, on ties, the first-pushed) entry at the top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One wheel entry, linked into its bucket or into the free list.
struct Node<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    /// `None` while the node sits on the free list.
    event: Option<E>,
}

/// First and last node of one bucket's sorted list.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// Deterministic work counters of one [`EventQueue`], cumulative since
/// construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Events pushed.
    pub pushes: u64,
    /// Pushes that landed in the overflow heap (past the horizon or
    /// before the cursor) instead of the wheel.
    pub overflow_pushes: u64,
    /// Largest number of events pending at once.
    pub peak_depth: u64,
}

/// A discrete-event priority queue ordered by [`SimTime`].
///
/// Events with equal timestamps pop in insertion order. The queue also
/// tracks the current simulation clock: [`EventQueue::now`] returns the
/// timestamp of the most recently popped event. An event may be pushed
/// before `now`; it still pops in `(time, seq)` order.
///
/// # Examples
///
/// ```
/// use simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(20.0), "late");
/// q.push(SimTime::from_ns(10.0), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.now(), SimTime::from_ns(10.0));
/// assert!(q.pop_through(SimTime::from_ns(15.0)).is_none());
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// One sorted list per slot; empty until the first wheel push.
    buckets: Vec<Bucket>,
    /// Node storage for wheel entries; freed nodes are reused.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Bit `i` is set iff bucket `i` is non-empty.
    occupied: [u64; WORDS],
    /// Absolute slot (`time >> SLOT_SHIFT`) of the latest popped event.
    /// Every wheel entry lies in `cursor .. cursor + SLOTS`.
    cursor: u64,
    wheel_len: usize,
    overflow: BinaryHeap<Scheduled<E>>,
    counters: QueueCounters,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`]. Does not
    /// allocate.
    pub fn new() -> Self {
        EventQueue {
            buckets: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            occupied: [0; WORDS],
            cursor: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            counters: QueueCounters::default(),
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.counters.pushes;
        self.counters.pushes += 1;
        let depth = (self.len() + 1) as u64;
        if depth > self.counters.peak_depth {
            self.counters.peak_depth = depth;
        }
        let slot = time.as_ps() >> SLOT_SHIFT;
        if slot < self.cursor || slot - self.cursor >= SLOTS as u64 {
            self.counters.overflow_pushes += 1;
            self.overflow.push(Scheduled { time, seq, event });
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![EMPTY_BUCKET; SLOTS];
        }
        let idx = self.alloc(Node {
            time,
            seq,
            next: NIL,
            event: Some(event),
        });
        let b = slot as usize % SLOTS;
        let Bucket { head, tail } = self.buckets[b];
        if head == NIL {
            self.buckets[b] = Bucket {
                head: idx,
                tail: idx,
            };
            self.occupied[b / 64] |= 1 << (b % 64);
        } else if self.nodes[tail as usize].time <= time {
            // Later than (or tied with) everything here: append, FIFO.
            self.nodes[tail as usize].next = idx;
            self.buckets[b].tail = idx;
        } else if time < self.nodes[head as usize].time {
            self.nodes[idx as usize].next = head;
            self.buckets[b].head = idx;
        } else {
            // Insert after the last node with time <= `time`; the tail is
            // later, so the walk stops before the end of the list.
            let mut prev = head;
            loop {
                let next = self.nodes[prev as usize].next;
                if self.nodes[next as usize].time > time {
                    self.nodes[idx as usize].next = next;
                    self.nodes[prev as usize].next = idx;
                    break;
                }
                prev = next;
            }
        }
        self.wheel_len += 1;
    }

    /// Schedules `event` at `delay` after the current clock.
    pub fn push_after(&mut self, delay: SimTime, event: E) {
        self.push(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_through(SimTime::MAX)
    }

    /// Pops the earliest event if it is due at or before `limit`, advancing
    /// the clock to its timestamp; otherwise leaves the queue untouched.
    pub fn pop_through(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let wheel = self.wheel_head();
        let from_wheel = match (wheel, self.overflow.peek()) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((_, n)), Some(o)) => {
                let n = &self.nodes[n as usize];
                (n.time, n.seq) < (o.time, o.seq)
            }
        };
        let (time, event) = if from_wheel {
            let (b, idx) = wheel.expect("wheel head");
            let node = &mut self.nodes[idx as usize];
            if node.time > limit {
                return None;
            }
            let (time, next) = (node.time, node.next);
            let event = node.event.take().expect("live wheel node");
            node.next = self.free;
            self.free = idx;
            self.buckets[b].head = next;
            if next == NIL {
                self.buckets[b].tail = NIL;
                self.occupied[b / 64] &= !(1 << (b % 64));
            }
            self.wheel_len -= 1;
            (time, event)
        } else {
            if self.overflow.peek().expect("overflow head").time > limit {
                return None;
            }
            let s = self.overflow.pop().expect("overflow head");
            (s.time, s.event)
        };
        // Every remaining wheel entry is at or after `time`, so the window
        // may start at its slot; the cursor never moves backwards.
        self.cursor = self.cursor.max(time.as_ps() >> SLOT_SHIFT);
        self.now = time;
        Some((time, event))
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel = self
            .wheel_head()
            .map(|(_, n)| &self.nodes[n as usize])
            .map(|n| (n.time, n.seq));
        let overflow = self.overflow.peek().map(|o| (o.time, o.seq));
        match (wheel, overflow) {
            (Some(w), Some(o)) => Some(w.min(o).0),
            (w, o) => w.or(o).map(|(t, _)| t),
        }
    }

    /// The current simulation clock (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push, overflow and peak-depth counters since construction.
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Bucket index and head node of the earliest non-empty bucket,
    /// scanning the bitmap circularly from the cursor's bucket.
    fn wheel_head(&self) -> Option<(usize, u32)> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = self.cursor as usize % SLOTS;
        let first = start / 64;
        let mut bits = self.occupied[first] & (!0u64 << (start % 64));
        let mut word = first;
        // The wrap-around ends back at `first`, whose bits at or past the
        // start are already known to be clear.
        for step in 1..=WORDS {
            if bits != 0 {
                break;
            }
            word = (first + step) % WORDS;
            bits = self.occupied[word];
        }
        debug_assert!(bits != 0, "wheel_len > 0 but no bucket is occupied");
        let b = word * 64 + bits.trailing_zeros() as usize;
        Some((b, self.buckets[b].head))
    }

    /// Stores `node`, reusing a freed slot when one exists.
    fn alloc(&mut self, node: Node<E>) -> u32 {
        if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than u32::MAX events pending in the wheel");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30.0), 3);
        q.push(SimTime::from_ns(10.0), 1);
        q.push(SimTime::from_ns(20.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_ns(42.0), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(42.0));
    }

    #[test]
    fn push_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10.0), "a");
        q.pop();
        q.push_after(SimTime::from_ns(5.0), "b");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ns(15.0));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(7.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7.0)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10.0), 1);
        q.push(SimTime::from_ns(30.0), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_ns(20.0), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.is_empty());
    }

    #[test]
    fn new_queue_does_not_allocate() {
        let q: EventQueue<u64> = EventQueue::new();
        assert_eq!(q.buckets.capacity(), 0);
        assert_eq!(q.nodes.capacity(), 0);
        assert_eq!(q.overflow.capacity(), 0);
    }

    #[test]
    fn push_before_now_pops_in_time_seq_order() {
        let mut q = EventQueue::new();
        let t = |ns: f64| SimTime::from_ns(ns);
        q.push(t(5_000.0), "a");
        q.push(t(5_000.5), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        let before = q.counters().overflow_pushes;
        // Behind the cursor: must overflow, not land in a wrapped bucket.
        q.push(t(100.0), "past");
        q.push(t(4_000.0), "past-later");
        q.push(t(100.0), "past-tie");
        assert_eq!(q.counters().overflow_pushes, before + 3);
        assert_eq!(q.peek_time(), Some(t(100.0)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (t(100.0), "past"),
                (t(100.0), "past-tie"),
                (t(4_000.0), "past-later"),
                (t(5_000.5), "b"),
            ]
        );
    }

    #[test]
    fn overflow_and_wheel_ties_pop_fifo() {
        let mut q = EventQueue::new();
        let far = SimTime::from_ps(HORIZON_PS + 5);
        q.push(far, 0); // past the horizon: overflow
        q.push(SimTime::from_ps(HORIZON_PS - 1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(far, 2); // now inside the window: wheel
        assert_eq!(q.counters().overflow_pushes, 1);
        assert_eq!(q.pop(), Some((far, 0)));
        assert_eq!(q.pop(), Some((far, 2)));
    }

    #[test]
    fn pop_through_stops_at_limit() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10.0), 1);
        q.push(SimTime::from_ns(2_000.0), 2);
        assert_eq!(q.pop_through(SimTime::from_ns(5.0)), None);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.pop_through(SimTime::from_ns(10.0)).unwrap().1, 1);
        assert_eq!(q.pop_through(SimTime::from_ns(1_999.0)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_through(SimTime::from_ns(2_000.0)).unwrap().1, 2);
    }

    #[test]
    fn counters_track_pushes_and_peak_depth() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.push(SimTime::from_ns(i as f64), i);
        }
        q.pop();
        q.pop();
        q.push(SimTime::from_ms(1.0), 9);
        assert_eq!(
            q.counters(),
            QueueCounters {
                pushes: 6,
                overflow_pushes: 1,
                peak_depth: 5,
            }
        );
    }
}
